"""Robustness sweep: solve every corpus problem from perturbed starts, and
the planted family of ``tests/test_planted.py``, under default
``SolverOptions``, and print how each problem's runs ended.

Usage, from the root of a checkout:

    python3 tools/robustness_sweep.py
    python3 tools/robustness_sweep.py --problems HS035,HS012

For each seed of ``SEEDS`` (0 to 3), one ``numpy.random.default_rng(seed)``
draws ``DRAWS`` (30) N(0, 1) perturbations of each corpus problem's first
listed start (its feasible start "a" when it has one), problem after
problem in ``corpus.list_problems()`` order; ``--problems`` solves some of
them, from the starts that the sweep over every problem draws for them.
Each line gives a problem, its run count and the count of each status;
the ``degenerate`` runs are then listed with seed, draw, iteration and
message.  The planted family runs its seeds 0 .. ``PLANTED``-1 (0 to 19)
with 0 and 2 equality rows, each from its own start, whatever
``--problems`` keeps.  A repeated name or a name not in the corpus is a
usage error (exit 2) raised before anything is solved.
"""

import _common  # first: it pins BLAS before numpy loads and sets the import paths

import sys
from collections import Counter

import numpy as np

from isqp import corpus, engine
from test_planted import planted_problem

STATUSES = [s.value for s in engine.SolveStatus]
SEEDS = (0, 1, 2, 3)
DRAWS = 30
PLANTED = 20
PLANTED_EQ = (0, 2)


def _line(label: str, statuses: Counter) -> str:
    total = sum(statuses.values())
    counts = " ".join(f"{s}={statuses[s]}" for s in STATUSES if statuses[s])
    return f"{label:<12} {total:>4} {counts}".rstrip()


def starts(seed: int):
    """(name, draw, x0) of every perturbed corpus start of one seed, in
    sweep order: ``DRAWS`` starts per problem from one generator."""
    rng = np.random.default_rng(seed)
    for name in corpus.list_problems():
        base = next(iter(corpus.get_problem(name).starts.values()))
        for draw in range(DRAWS):
            yield name, draw, base + rng.standard_normal(base.size)


def main(argv=None) -> int:
    entries = [(name, corpus.get_problem(name)) for name in corpus.list_problems()]
    names = [name for name, _ in _common.keep_problems(argv, __doc__, entries)]
    per_problem = {name: Counter() for name in names}
    per_seed = {}
    failures = []
    for seed in SEEDS:
        per_seed[seed] = Counter()
        for name, draw, x0 in starts(seed):
            if name not in per_problem:
                continue
            report = engine.solve(corpus.get_problem(name).problem, x0)
            status = report.status.value
            per_problem[name][status] += 1
            per_seed[seed][status] += 1
            if report.status is engine.SolveStatus.DEGENERATE:
                failures.append(f"  {name} seed {seed} draw {draw} k={report.ni}: "
                                f"{report.message}")
    for name in names:
        print(_line(name, per_problem[name]))
    for seed in SEEDS:
        print(_line(f"seed {seed}", per_seed[seed]))
    print(_line("corpus", sum(per_problem.values(), Counter())))
    for line in failures:
        print(line)
    for m_eq in PLANTED_EQ:
        statuses = Counter()
        for seed in range(PLANTED):
            problem, x0, _, _ = planted_problem(seed, m_eq=m_eq)
            statuses[engine.solve(problem, x0).status.value] += 1
        print(_line(f"planted-e{m_eq}", statuses))
    return 0


if __name__ == "__main__":
    sys.exit(main())
