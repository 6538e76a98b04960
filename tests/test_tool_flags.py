"""The scripts in tools/ each run one study, whose settings are module
constants: ``--problems`` is each script's one option besides ``-h``."""

import importlib.util
import os
import subprocess
import sys

from isqp import engine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = ("robustness_sweep", "scale_sweep", "fingerprint_runs", "calibrate_rho")


def test_problems_is_the_only_option(monkeypatch):
    for name in TOOLS:
        done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", f"{name}.py"), "-h"],
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.splitlines()[0] == f"usage: {name}.py [-h] [--problems PROBLEMS]"

    # The study's grid holds the paper's configuration, which its selection
    # rule reads, and only values that SolverOptions accepts.  The script's
    # shared setup module, found on tools/ as a script finds it, pins the
    # BLAS thread variables and extends sys.path on import; monkeypatch
    # restores both.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", [os.path.join(ROOT, "tools"), *sys.path])
    spec = importlib.util.spec_from_file_location(
        "calibrate_rho", os.path.join(ROOT, "tools", "calibrate_rho.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.PAPER in tool.RHOS
    for rho in tool.RHOS:
        assert engine.SolverOptions(rho=rho).rho == rho
