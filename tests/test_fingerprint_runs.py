"""Smoke test of the run fingerprints (tools/fingerprint_runs.py): two corpus
problems, fingerprinted twice as a script."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "fingerprint_runs.py")


def _fingerprint(*args):
    return subprocess.run([sys.executable, SCRIPT, *args], capture_output=True,
                          text=True, timeout=60, check=True).stdout


def test_two_problems_fingerprint_identically_twice():
    args = ("--workload", "hs-corpus", "--problems", "HS035,HS044")
    first = _fingerprint(*args)
    assert first == _fingerprint(*args)
    lines = [line.split() for line in first.splitlines()]
    assert [line[:3] for line in lines] == [
        ["hs-corpus", f"{name}-{start}", "converged"]
        for name in ("HS035", "HS044") for start in "ab"]
    for line in lines:
        assert len(line) == 7
        assert all(int(count) > 0 for count in line[3:6])
        assert len(line[6]) == 64 and int(line[6], 16) >= 0

