"""Robustness sweep: solve every corpus problem from perturbed starts, and
the planted family of ``tests/test_planted.py``, under default
``SolverOptions``, and print how each problem's runs ended.

Usage, from the root of a checkout:

    python3 tools/robustness_sweep.py --seeds 0,1,2,3
    python3 tools/robustness_sweep.py --seeds 0 --draws 2 --problems HS035 --planted 1

For each seed, one ``numpy.random.default_rng(seed)`` draws ``--draws``
(default 30) N(0, 1) perturbations of each corpus problem's first listed
start (its feasible start "a" when it has one), problem after problem in
``corpus.list_problems()`` order; ``--problems`` solves some of them, from
the starts that the sweep over every problem draws for them.  Each
line gives a problem, its run count and the count of each status; the
``degenerate`` runs are then listed with seed, draw, iteration and
message.  The planted family runs its seeds 0 .. ``--planted``-1
(default 20) with 0 and 2 equality rows, each from its own start, once
whatever the seeds.  A repeated seed or name, a negative seed, a name not
in the corpus, ``--draws`` below 1 or ``--planted`` below 0 is a usage
error (exit 2) raised before anything is solved.
"""

import _common  # first: it pins BLAS before numpy loads and sets the import paths

import argparse
import sys
from collections import Counter

import numpy as np

from isqp import corpus, engine
from test_planted import planted_problem

STATUSES = [s.value for s in engine.SolveStatus]
PLANTED_EQ = (0, 2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_common.comma_list(int), required=True)
    parser.add_argument("--draws", type=int, default=30)
    parser.add_argument("--problems", type=_common.comma_list(str), default=None,
                        help="comma-separated corpus names (default: all)")
    parser.add_argument("--planted", type=int, default=20,
                        help="planted seeds 0 .. N-1 per equality count")
    args = parser.parse_args(argv)
    # numpy.random.default_rng takes no negative seed.
    if min(args.seeds) < 0:
        parser.error(f"--seeds must be at least 0, got {min(args.seeds)}")
    # A count that sweeps nothing prints zero-run lines, and two empty
    # sweeps would compare as identical.
    if args.draws < 1:
        parser.error(f"--draws must be at least 1, got {args.draws}")
    if args.planted < 0:
        parser.error(f"--planted must be at least 0, got {args.planted}")
    entries = [(name, corpus.get_problem(name)) for name in corpus.list_problems()]
    args.problems = [name for name, _ in _common.keep_problems(
        parser, entries, args.problems, " of the corpus")]
    return args


def _line(label: str, statuses: Counter) -> str:
    total = sum(statuses.values())
    counts = " ".join(f"{s}={statuses[s]}" for s in STATUSES if statuses[s])
    return f"{label:<12} {total:>4} {counts}".rstrip()


def starts(seed: int, draws: int):
    """(name, draw, x0) of every perturbed corpus start of one seed, in
    sweep order: ``draws`` starts per problem from one generator."""
    rng = np.random.default_rng(seed)
    for name in corpus.list_problems():
        base = next(iter(corpus.get_problem(name).starts.values()))
        for draw in range(draws):
            yield name, draw, base + rng.standard_normal(base.size)


def main(argv=None) -> int:
    args = parse_args(argv)
    per_problem = {name: Counter() for name in args.problems}
    per_seed = {}
    failures = []
    for seed in args.seeds:
        per_seed[seed] = Counter()
        for name, draw, x0 in starts(seed, args.draws):
            if name not in per_problem:
                continue
            report = engine.solve(corpus.get_problem(name).problem, x0)
            status = report.status.value
            per_problem[name][status] += 1
            per_seed[seed][status] += 1
            if report.status is engine.SolveStatus.DEGENERATE:
                failures.append(f"  {name} seed {seed} draw {draw} k={report.ni}: "
                                f"{report.message}")
    for name in args.problems:
        print(_line(name, per_problem[name]))
    for seed in args.seeds:
        print(_line(f"seed {seed}", per_seed[seed]))
    print(_line("corpus", sum(per_problem.values(), Counter())))
    for line in failures:
        print(line)
    for m_eq in PLANTED_EQ:
        statuses = Counter()
        for seed in range(args.planted):
            problem, x0, _, _ = planted_problem(seed, m_eq=m_eq)
            statuses[engine.solve(problem, x0).status.value] += 1
        print(_line(f"planted-e{m_eq}", statuses))
    return 0


if __name__ == "__main__":
    sys.exit(main())
