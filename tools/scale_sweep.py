"""Objective-scale sweep: solve the benchmark's deterministic instances
with f0 and its gradient multiplied by 10^k, and print how the runs ended
at each scale.

Usage, from the root of a checkout:

    python3 tools/scale_sweep.py
    python3 tools/scale_sweep.py --problems HS035,convex-n20-s0

The instances are the 28 of the ``hs-corpus`` and ``convex-n20`` workloads
of ``perfbench/workloads.py``, which is imported and not changed; every
solve uses default ``SolverOptions``.  A converged run must pass its
workload's check: a corpus run's fv is divided by the scale before it is
read against the reference, and a convex run must meet the KKT check of
the scaled program, recomputed from its callbacks.  The output is a
Markdown table with one row per exponent k of ``EXPONENTS`` (-6, -4, -2,
0, 2, 4, 6): the runs that converged and pass the check, then every other
exit by status, naming the converged runs that fail it.  ``--problems``
keeps the instances whose program has one of the given names (``HS035``,
``convex-n20-s1``, ...).  A repeated name, or a name that no instance has,
is a usage error (exit 2) raised before anything is solved.
"""

import _common  # first: it pins BLAS before numpy loads and sets the import paths

import dataclasses
import sys
from collections import Counter

import numpy as np

import workloads
from isqp import engine, model

WORKLOADS = ("hs-corpus", "convex-n20")
EXPONENTS = (-6, -4, -2, 0, 2, 4, 6)
CONVERGED = engine.SolveStatus.CONVERGED


def scaled(problem: model.NlpProblem, scale: float) -> model.NlpProblem:
    """The program with f0 and grad_f0 multiplied by ``scale``; a missing
    gradient stays missing, so its finite differences read the scaled f0."""
    f0, grad_f0 = problem.f0, problem.grad_f0
    return dataclasses.replace(
        problem, f0=lambda x: scale * f0(x),
        grad_f0=None if grad_f0 is None else (
            lambda x: scale * np.asarray(grad_f0(x), dtype=float)))


def _label(k: int) -> str:
    return "1" if k == 0 else f"1e{k}"


def _check(workload: str, inst, problem: model.NlpProblem, report, scale: float):
    """Why a converged run of the scaled ``problem`` fails, or None."""
    if workload == "hs-corpus":
        return inst.check(dataclasses.replace(report, fv=report.fv / scale))
    return workloads.kkt_check(problem)(report)


def row(k: int, instances) -> str:
    """One table row: solve every instance at the scale 10^k."""
    scale = float(f"1e{k}")
    statuses = Counter()
    wrong = []
    for workload, inst in instances:
        problem = scaled(inst.problem, scale)
        report = engine.solve(problem, inst.x0)
        if (report.status is CONVERGED
                and _check(workload, inst, problem, report, scale) is not None):
            wrong.append(inst.name)
            continue
        statuses[report.status.value] += 1
    exits = [f"{count} `{status}`" for status, count in sorted(statuses.items())
             if status != CONVERGED.value]
    if wrong:
        exits.append(f"{', '.join(wrong)} `converged` but fail the check")
    return f"| {_label(k)} | {statuses[CONVERGED.value]} | {'; '.join(exits) or '—'} |"


def main(argv=None) -> int:
    instances = _common.keep_problems(argv, __doc__, [
        (workload, inst) for workload in WORKLOADS for inst in workloads.build(workload)])
    print(f"| f0 × | converged at the reference (of {len(instances)}) | other exits |")
    print("|-----:|------:|-------------|")
    for k in EXPONENTS:
        print(row(k, instances), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
