"""Smoke test of the run fingerprints (tools/fingerprint_runs.py): two corpus
problems, fingerprinted twice as a script, the trace-free hash, and the
selections refused before anything is solved."""

import importlib.util
import math
import os
import subprocess
import sys

import pytest

from isqp import corpus, engine

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
        assert len(line) == 8
        assert all(int(count) > 0 for count in line[3:6])
        for digest in line[6:]:
            assert len(digest) == 64 and int(digest, 16) >= 0
        assert line[6] != line[7]


def test_report_hash_leaves_out_the_trace(monkeypatch):
    # The script pins the BLAS thread variables and extends sys.path on
    # import; monkeypatch restores both.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("fingerprint_runs", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    entry = corpus.get_problem("HS035")
    report = engine.solve(entry.problem, entry.x0_feasible)
    full, alone = tool.fingerprint(report), tool.fingerprint(report, with_trace=False)
    report.trace[0].fc = math.nextafter(report.trace[0].fc, math.inf)
    assert tool.fingerprint(report) != full
    assert tool.fingerprint(report, with_trace=False) == alone
    report.fv = math.nextafter(report.fv, math.inf)
    assert tool.fingerprint(report, with_trace=False) != alone



# A name that matched nothing once printed no line for it and exited 0, so
# two empty outputs compared as identical.
@pytest.mark.parametrize("args,message", [
    (("--workload", "hs-corpus", "--problems", "HS35,HS044"),
     "--problems names ['HS35'] match no instance of ['hs-corpus']"),
    (("--problems", "HS35,convex-n20-s9"),
     "--problems names ['HS35', 'convex-n20-s9'] match no instance"),
    (("--workload", "convex-n20", "--problems", "HS035"),
     "--problems names ['HS035'] match no instance of ['convex-n20']"),
    (("--workload", "hs-corpus,hs-corpus", "--problems", "HS035"),
     "--workload names ['hs-corpus'] more than once"),
], ids=["misspelt", "all-workloads", "other-workload", "repeated-workload"])
def test_bad_selection_is_refused_before_any_solve(args, message):
    done = subprocess.run([sys.executable, SCRIPT, *args], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"error: {message}" in done.stderr
