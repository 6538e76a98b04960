"""Study of the infeasible-phase reward ``rho`` and the merit fraction
``alpha`` of both searches: solve a fixed instance set under every
configuration of a grid, print each configuration's totals and the
Dolan-More performance profiles of the configurations on every metric of
``isqp.bench.PROFILE_METRICS`` (ni, nf0, nf and cpu_seconds), and name the
configuration the selection rule picks.  Every grid point is checked as a
``SolverOptions`` before anything is solved, so a value out of range is a
usage error.

Usage, from the root of a checkout:

    python3 tools/calibrate_rho.py
    python3 tools/calibrate_rho.py --rho 2,100 --alpha 0.5 --family hs-corpus

The instance families come from the benchmark's generators
(``perfbench/workloads.py``):

- ``hs-corpus``: the 25 corpus runs, each checked against its reference fv;
- ``convex-n20`` and ``convex-n50``: convex data seeds 0-9 at n = 20, 50;
- ``logit-5k``: logit data seeds 0-7 at 5 000 samples;
- ``logit-eq``: the four logit instances of the benchmark (50 000 samples).

A run counts as solved when it converges, that is, stops at a feasible
iterate that passes the KKT certificate, and also passes its family's check
(the corpus fv rule, or the KKT residual recomputed from the callbacks).
Each run's cost is read by ``isqp.bench.profile_metric``, the rule that
``isqp profile`` ranks runs by, so any other run is infinitely expensive in
the profiles.  The profiles are ``isqp.bench.compute_profiles`` over every
configuration of the grid.  Each profile row gives the fraction of
instances a configuration solves within tau times the best configuration's
cost, at a few tau, and ``area``: the area under the curve over log2(tau)
from 1 to the largest finite ratio, divided by that width (1 means best on
every instance).

The selection rule: among configurations with alpha = 0.5, keep those
that solve every instance the paper's configuration (rho = 2, alpha = 0.5)
solves and leave every counter of the benchmark's workloads (hs-corpus,
convex-n20 seeds 0-2, logit-eq) at or below the paper configuration's; of
those, pick the one with the largest sum of the ni and nf0 profile areas.
nf and cpu_seconds are printed for the record; cpu_seconds varies by up to
30% between identical runs, so it does not decide.  The paper's
configuration is always part of the grid.  A repeated ``--rho``,
``--alpha`` or ``--family`` value, or a ``--problems`` name that is not in
the corpus or without the ``hs-corpus`` family, is a usage error too.
"""

import os

# BLAS threads change iteration counts; pin them before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from isqp import bench, corpus, engine  # noqa: E402

RHOS = (2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1000.0)
ALPHAS = (0.5, 0.4, 0.25)
PAPER = (2.0, 0.5)  # (rho, alpha) of the paper's benchmark configuration
SEEDS = range(10)
LOGIT_SEEDS = range(8)
DECIDING = ("ni", "nf0")
TAUS = (1.0, 1.25, 2.0, 4.0)


def _synthetic(generate, seeds):
    out = []
    for seed in seeds:
        problem, x0 = generate(seed)
        out.append(workloads.Instance(f"s{seed}", problem, x0, workloads.kkt_check(problem)))
    return out


FAMILIES = {
    "hs-corpus": workloads.hs_instances,
    "convex-n20": lambda: _synthetic(workloads.convex_problem, SEEDS),
    "convex-n50": lambda: _synthetic(lambda s: workloads.convex_problem(s, 50), SEEDS),
    "logit-5k": lambda: _synthetic(lambda s: workloads.logit_problem(s, samples=5000),
                                   LOGIT_SEEDS),
    "logit-eq": lambda: _synthetic(workloads.logit_problem, workloads.LOGIT_SEEDS),
}

# The benchmark's workloads, as (family, instance names or None for all).
BENCH_WORKLOADS = {
    "hs-corpus": ("hs-corpus", None),
    "convex-n20": ("convex-n20", {f"s{s}" for s in workloads.CONVEX_SEEDS}),
    "logit-eq": ("logit-eq", None),
}


@dataclass(frozen=True)
class Run:
    """One solve: the counters the study reads, under the names that
    bench.profile_metric reads from a result row.  ``converged`` means the
    run converged and passed its family's check."""

    problem: str  # the instance family
    start: str    # the instance within it
    converged: bool
    ni: int
    nf0: int
    nf: int
    cpu_seconds: float


def label(rho: float, alpha: float) -> str:
    return f"rho={rho:g},alpha={alpha:g}"


def solve_all(instances, rho: float, alpha: float) -> list[Run]:
    """Solve every (family, instance) pair under one configuration."""
    options = engine.SolverOptions(rho=rho, alpha=alpha)
    runs = []
    for family, inst in instances:
        report = engine.solve(inst.problem, inst.x0, options)
        converged = (report.status is engine.SolveStatus.CONVERGED
                     and inst.check(report) is None)
        runs.append(Run(family, inst.name, converged, report.ni, report.nf0, report.nf,
                        report.cpu_seconds))
    return runs


def totals(runs) -> tuple[int, int, int, int]:
    """(solved, ni, nf0, nf) summed over runs."""
    return (sum(r.converged for r in runs), sum(r.ni for r in runs),
            sum(r.nf0 for r in runs), sum(r.nf for r in runs))


def slashed(values) -> str:
    return "/".join(str(v) for v in values)


def bench_totals(runs) -> dict[str, tuple[int, int, int, int]]:
    """Totals on each benchmark workload whose family was solved."""
    out = {}
    for workload, (family, names) in BENCH_WORKLOADS.items():
        chosen = [r for r in runs
                  if r.problem == family and (names is None or r.start in names)]
        if chosen:
            out[workload] = totals(chosen)
    return out


def profiles(results: dict[str, list[Run]], metric: str) -> dict[str, tuple]:
    """Profile points per configuration label, from bench.compute_profiles
    over the costs bench.profile_metric reads."""
    by_config = {name: bench.profile_metric(runs, metric) for name, runs in results.items()}
    return {curve.solver: curve.points for curve in bench.compute_profiles(by_config)}


def fraction_at(points, tau: float) -> float:
    """The profile's value at tau: the last point at or below it."""
    return max((p.rho for p in points if p.tau <= tau), default=0.0)


def area(points) -> float:
    """Area under the profile over log2(tau) from 1 to the last grid point,
    divided by that width; the value at tau = 1 when no ratio exceeds 1."""
    width = math.log2(points[-1].tau)
    if width == 0.0:
        return points[0].rho
    steps = zip(points, points[1:])
    return sum(a.rho * (math.log2(b.tau) - math.log2(a.tau)) for a, b in steps) / width


def select(results: dict[str, list[Run]], areas: dict[str, dict[str, float]],
           grid) -> tuple[float, float] | None:
    """The configuration the selection rule picks, or None."""
    paper = results[label(*PAPER)]
    solved_by_paper = {(r.problem, r.start) for r in paper if r.converged}
    limits = bench_totals(paper)
    best, best_score = None, -math.inf
    for rho, alpha in grid:
        if alpha != PAPER[1]:
            continue
        name = label(rho, alpha)
        runs = results[name]
        if not solved_by_paper <= {(r.problem, r.start) for r in runs if r.converged}:
            continue
        mine = bench_totals(runs)
        if any(mine[w][0] < limits[w][0] or any(a > b for a, b in zip(mine[w][1:], limits[w][1:]))
               for w in limits):
            continue
        score = sum(areas[m][name] for m in DECIDING)
        if score > best_score:
            best, best_score = (rho, alpha), score
    return best


def study(rhos, alphas, families, problems=None):
    """Run the grid; returns (grid, results by label, instances)."""
    grid = [(rho, alpha) for alpha in alphas for rho in rhos]
    if PAPER not in grid:
        grid.insert(0, PAPER)
    instances = [(family, inst) for family in families for inst in FAMILIES[family]()
                 if problems is None or family != "hs-corpus"
                 or inst.name.split("-")[0] in problems]
    if not instances:
        raise SystemExit("calibrate_rho: no instances selected")
    results = {}
    for rho, alpha in grid:
        results[label(rho, alpha)] = solve_all(instances, rho, alpha)
        print(f"solved {label(rho, alpha)}", file=sys.stderr, flush=True)
    return grid, results, instances


def report(grid, results, families) -> None:
    """Print the totals and profiles of a study, and its selection."""
    print("totals (solved, ni, nf0, nf) per family, then on the benchmark workloads")
    print(f"{'configuration':22s} " + " ".join(f"{f:>26s}" for f in families))
    for rho, alpha in grid:
        name = label(rho, alpha)
        runs = results[name]
        cells = [slashed(totals([r for r in runs if r.problem == f])) for f in families]
        print(f"{name:22s} " + " ".join(f"{c:>26s}" for c in cells))
    for rho, alpha in grid:
        name = label(rho, alpha)
        cells = [f"{w} {slashed(t)}" for w, t in bench_totals(results[name]).items()]
        print(f"bench {name:22s} " + ", ".join(cells))

    areas = {}
    print("profile metric configuration area " + " ".join(f"tau<={t:g}" for t in TAUS)
          + " solved")
    for metric in bench.PROFILE_METRICS:
        curves = profiles(results, metric)
        areas[metric] = {name: area(points) for name, points in curves.items()}
        for rho, alpha in grid:
            name = label(rho, alpha)
            points = curves[name]
            cells = [f"{fraction_at(points, t):.3f}" for t in TAUS]
            print(f"profile {metric} {name} {areas[metric][name]:.3f} " + " ".join(cells)
                  + f" {points[-1].rho:.3f}")
    chosen = select(results, areas, grid)
    print("selected: " + ("none" if chosen is None else label(*chosen)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])

    def floats(text):
        return tuple(float(v) for v in text.split(","))

    parser.add_argument("--rho", type=floats, default=RHOS,
                        help="comma-separated rho values (default: %(default)s)")
    parser.add_argument("--alpha", type=floats, default=ALPHAS,
                        help="comma-separated alpha values (default: %(default)s)")
    parser.add_argument("--family", type=lambda t: tuple(t.split(",")), default=tuple(FAMILIES),
                        help="comma-separated instance families (default: all)")
    parser.add_argument("--problems", type=lambda t: set(t.split(",")), default=None,
                        help="comma-separated corpus problem names to keep (default: all)")
    args = parser.parse_args(argv)
    for flag in ("rho", "alpha", "family"):
        values = getattr(args, flag)
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            parser.error(f"--{flag} names {', '.join(map(str, repeated))} more than once")
    unknown = set(args.family) - set(FAMILIES)
    if unknown:
        parser.error(f"unknown family {sorted(unknown)}; choose from {list(FAMILIES)}")
    unknown = set(args.problems or ()) - set(corpus.list_problems())
    if unknown:
        parser.error(f"unknown corpus problem {sorted(unknown)}")
    if args.problems is not None and "hs-corpus" not in args.family:
        parser.error("--problems selects corpus problems, but --family leaves out hs-corpus")
    for rho, alpha in itertools.product(args.rho, args.alpha):
        try:
            engine.SolverOptions(rho=rho, alpha=alpha)
        except ValueError as exc:
            parser.error(str(exc))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    grid, results, instances = study(args.rho, args.alpha, args.family, args.problems)
    print(f"{len(instances)} instances, {len(grid)} configurations")
    report(grid, results, args.family)
    return 0


if __name__ == "__main__":
    sys.exit(main())
