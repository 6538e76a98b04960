"""The scripts in tools/ each run one study, whose settings are module
constants: ``--problems`` is each script's one option besides ``-h``."""

import os
import subprocess
import sys

from isqp import engine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = ("robustness_sweep", "scale_sweep", "fingerprint_runs", "calibrate_rho")


def test_problems_is_the_only_option(load_tool):
    for name in TOOLS:
        done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", f"{name}.py"), "-h"],
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.splitlines()[0] == f"usage: {name}.py [-h] [--problems PROBLEMS]"

    # The study's grid holds the paper's configuration, which its selection
    # rule reads, and only values that SolverOptions accepts.
    tool = load_tool("calibrate_rho")
    assert tool.PAPER in tool.RHOS
    for rho in tool.RHOS:
        assert engine.SolverOptions(rho=rho).rho == rho
