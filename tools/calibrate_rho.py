"""Study of the infeasible-phase reward ``rho``: solve a fixed instance set
under every ``rho`` of the grid ``RHOS``, print each configuration's totals
and the Dolan-More performance profiles of the configurations on every
metric of ``isqp.bench.PROFILE_METRICS`` (ni, nf0, nf and cpu_seconds),
and name the configuration the selection rule picks.

Usage, from the root of a checkout:

    python3 tools/calibrate_rho.py
    python3 tools/calibrate_rho.py --problems HS035,HS044

The grid is rho = 2, 5, 10, 20, 50, 100 and 1000.  The instance families
come from the benchmark's generators
(``perfbench/workloads.py``):

- ``hs-corpus``: the 25 corpus runs, each checked against its reference fv;
- ``convex-n20`` and ``convex-n50``: convex data seeds 0-9 at n = 20, 50;
- ``logit-5k``: logit data seeds 0-7 at 5 000 samples, named
  ``logit-n10-s0-5k`` ... ``logit-n10-s7-5k``;
- ``logit-eq``: the four logit instances of the benchmark (50 000 samples),
  named ``logit-n10-s0`` ... ``logit-n10-s3``.

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

The selection rule: keep the configurations that solve every instance the
paper's configuration (rho = 2) solves and leave every counter of the
benchmark's workloads (hs-corpus, convex-n20 seeds 0-2, logit-eq) at or
below the paper configuration's; of those, pick the one with the largest
sum of the ni and nf0 profile areas.
nf and cpu_seconds are printed for the record; cpu_seconds varies by up to
30% between identical runs, so it does not decide.  ``--problems`` keeps
the instances whose program has one of the given names (``HS035``,
``convex-n20-s3``, ``logit-n10-s0-5k``, ...) in any family.  A repeated
name, or a name that no instance has, is a usage error (exit 2) raised
before anything is solved.
"""

import _common  # first: it pins BLAS before numpy loads and sets the import paths

import dataclasses
import math
import sys
from dataclasses import dataclass

import workloads
from isqp import bench, engine

PAPER = 2.0  # rho of the paper's benchmark configuration
RHOS = (PAPER, 5.0, 10.0, 20.0, 50.0, 100.0, 1000.0)
SEEDS = range(10)
LOGIT_SEEDS = range(8)
DECIDING = ("ni", "nf0")
TAUS = (1.0, 1.25, 2.0, 4.0)


def _logit_5k(seed):
    """A logit instance at 5 000 samples, named apart from the benchmark's
    logit-eq instance of the same seed (50 000 samples)."""
    problem, x0 = workloads.logit_problem(seed, samples=5000)
    return dataclasses.replace(problem, name=f"{problem.name}-5k"), x0


FAMILIES = {
    "hs-corpus": workloads.hs_instances,
    "convex-n20": lambda: workloads._synthetic(workloads.convex_problem, SEEDS),
    "convex-n50": lambda: workloads._synthetic(lambda s: workloads.convex_problem(s, 50), SEEDS),
    "logit-5k": lambda: workloads._synthetic(_logit_5k, LOGIT_SEEDS),
    "logit-eq": workloads.WORKLOADS["logit-eq"],
}

# The benchmark's workloads, as (family, instance names or None for all).
BENCH_WORKLOADS = {
    "hs-corpus": ("hs-corpus", None),
    "convex-n20": ("convex-n20", {f"convex-n20-s{s}" for s in workloads.CONVEX_SEEDS}),
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


def label(rho: float) -> str:
    return f"rho={rho:g}"


def solve_all(instances, rho: float) -> list[Run]:
    """Solve every (family, instance) pair under one configuration."""
    options = engine.SolverOptions(rho=rho)
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


def select(results: dict[str, list[Run]], areas: dict[str, dict[str, float]]) -> str | None:
    """The label of the configuration the selection rule picks, or None."""
    paper = results[label(PAPER)]
    solved_by_paper = {(r.problem, r.start) for r in paper if r.converged}
    limits = bench_totals(paper)
    best, best_score = None, -math.inf
    for name, runs in results.items():
        if not solved_by_paper <= {(r.problem, r.start) for r in runs if r.converged}:
            continue
        mine = bench_totals(runs)
        if any(mine[w][0] < limits[w][0] or any(a > b for a, b in zip(mine[w][1:], limits[w][1:]))
               for w in limits):
            continue
        score = sum(areas[m][name] for m in DECIDING)
        if score > best_score:
            best, best_score = name, score
    return best


def study(instances) -> dict[str, list[Run]]:
    """Run the grid over (family, instance) pairs; returns the runs by
    label, in grid order."""
    results = {}
    for rho in RHOS:
        results[label(rho)] = solve_all(instances, rho)
        print(f"solved {label(rho)}", file=sys.stderr, flush=True)
    return results


def report(results) -> None:
    """Print the totals and profiles of a study, and its selection."""
    print("totals (solved, ni, nf0, nf) per family, then on the benchmark workloads")
    print(f"{'configuration':13s} " + " ".join(f"{f:>26s}" for f in FAMILIES))
    for name, runs in results.items():
        cells = [slashed(totals([r for r in runs if r.problem == f])) for f in FAMILIES]
        print(f"{name:13s} " + " ".join(f"{c:>26s}" for c in cells))
    for name, runs in results.items():
        cells = [f"{w} {slashed(t)}" for w, t in bench_totals(runs).items()]
        print(f"bench {name:13s} " + ", ".join(cells))

    areas = {}
    print("profile metric configuration area " + " ".join(f"tau<={t:g}" for t in TAUS)
          + " solved")
    for metric in bench.PROFILE_METRICS:
        curves = profiles(results, metric)
        areas[metric] = {name: area(points) for name, points in curves.items()}
        for name in results:
            points = curves[name]
            cells = [f"{fraction_at(points, t):.3f}" for t in TAUS]
            print(f"profile {metric} {name} {areas[metric][name]:.3f} " + " ".join(cells)
                  + f" {points[-1].rho:.3f}")
    print(f"selected: {select(results, areas) or 'none'}")


def instances(argv) -> list:
    """The (family, instance) pairs of every family that ``--problems`` in
    ``argv`` keeps."""
    return _common.keep_problems(argv, __doc__, [
        (family, inst) for family, build in FAMILIES.items() for inst in build()])


def main(argv=None) -> int:
    chosen = instances(argv)
    results = study(chosen)
    print(f"{len(chosen)} instances, {len(results)} configurations")
    report(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
