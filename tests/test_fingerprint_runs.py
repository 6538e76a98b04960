"""Smoke test of the run fingerprints (tools/fingerprint_runs.py): two corpus
problems, fingerprinted twice as a script, the trace-free and count-free
hashes, and the names refused before anything is solved."""

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
    args = ("--problems", "HS035,HS044")
    first = _fingerprint(*args)
    assert first == _fingerprint(*args)
    lines = [line.split() for line in first.splitlines()]
    assert [line[:3] for line in lines] == [
        ["hs-corpus", f"{name}-{start}", "converged"]
        for name in ("HS035", "HS044") for start in "ab"]
    for line in lines:
        assert len(line) == 9
        assert all(int(count) > 0 for count in line[3:6])
        for digest in line[6:]:
            assert len(digest) == 64 and int(digest, 16) >= 0
        assert len(set(line[6:])) == 3


@pytest.fixture
def tool(load_tool):
    """tools/fingerprint_runs.py, imported as a module."""
    return load_tool("fingerprint_runs")


def _hs035_report():
    entry = corpus.get_problem("HS035")
    return engine.solve(entry.problem, entry.x0_feasible)


def test_report_hash_leaves_out_the_trace(tool):
    report = _hs035_report()
    full, alone = tool.fingerprint(report), tool.fingerprint(report, with_trace=False)
    report.trace[0].fc = math.nextafter(report.trace[0].fc, math.inf)
    assert tool.fingerprint(report) != full
    assert tool.fingerprint(report, with_trace=False) == alone
    report.fv = math.nextafter(report.fv, math.inf)
    assert tool.fingerprint(report, with_trace=False) != alone


def test_count_free_hash_leaves_out_the_evaluation_counts(tool):
    report = _hs035_report()
    full, free = tool.fingerprint(report), tool.fingerprint(report, with_counts=False)
    report.nf0 += 1
    report.nf += 1
    assert tool.fingerprint(report) != full
    assert tool.fingerprint(report, with_counts=False) == free
    report.ni += 1
    assert tool.fingerprint(report, with_counts=False) != free
    report.ni -= 1
    report.trace[0].fc = math.nextafter(report.trace[0].fc, math.inf)
    assert tool.fingerprint(report, with_counts=False) != free



# A name that matched nothing once printed no line for it and exited 0, so
# two empty outputs compared as identical.
@pytest.mark.parametrize("args,message", [
    (("--problems", "HS35,HS044"), "--problems names ['HS35'] match no instance"),
    (("--problems", "HS35,convex-n20-s9"),
     "--problems names ['HS35', 'convex-n20-s9'] match no instance"),
    (("--problems", "HS035,HS035"), "argument --problems: repeated value in 'HS035,HS035'"),
], ids=["misspelt", "all-workloads", "repeated-name"])
def test_bad_selection_is_refused_before_any_solve(args, message):
    done = subprocess.run([sys.executable, SCRIPT, *args], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"error: {message}" in done.stderr
