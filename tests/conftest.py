"""Fixtures shared by the test modules."""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def load_tool(monkeypatch):
    """A loader of the script tools/<name>.py as a module.  The script's
    shared setup module, found on tools/ as a script finds it, pins the
    BLAS thread variables and extends sys.path on import; monkeypatch
    restores both."""
    def load(name):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "1")
        monkeypatch.setattr(sys, "path", [os.path.join(ROOT, "tools"), *sys.path])
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(ROOT, "tools", f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load
