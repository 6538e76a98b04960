"""Solver benchmark: time full passes over a workload's instances through
the public API of ``isqp``, check every output, and print the metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hs-corpus --seed 0 --seconds 35 --trace 0

Workloads (see ``workloads.py``): ``hs-corpus`` (the paper's 25 corpus
solves), ``convex-n20`` (synthetic convex family, n=20, m=40) and
``logit-eq`` (constrained logistic regression with one equality).  Every
solve uses default ``SolverOptions``.  ``--seed`` orders the solves of
each pass.  Passes repeat for about ``--seconds`` (at least two run).

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median of cold set-ups in fresh interpreters), ``pass_s`` (median pass
wall time), ``solve_ms.p50`` (median ``engine.solve`` wall time),
``converged_frac``, the per-pass totals ``sqp_iters``, ``nf0`` and ``nf``,
and ``peak_rss_mb``.  With ``--trace 1`` traced and untraced passes
alternate; it reports the per-layer metrics of ``tracer.layer_metrics``
(counts per pass, times in ms per pass), ``fail_frac``,
``trace.overhead_frac`` and ``trace.accounted_frac``, and writes every
span to ``perfbench/out/spans-<workload>.npz``.

A solve fails if it raises, if its output check fails, or if its
(status, ni, nf0, nf) differ from the first pass; such solves make the
run incorrect.  A solve that ends without converging is counted in
``fail_frac`` (and against ``converged_frac``) but is not an error of the
benchmark.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when the run is correct.
"""

import os

# BLAS threads change iteration counts; pin them before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("hs-corpus", "convex-n20", "logit-eq")
SETUP_PROBES = 7


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> str:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas.get('name', '?')} {blas.get('version', '?')}, "
            f"{threads}, nproc {os.cpu_count()}")


def measure_setup(workload: str) -> list[float]:
    """Cold set-up times from fresh interpreters (see setup_probe.py)."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, workload], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Outcomes:
    """Per-solve results of every pass, checked against the first pass.

    ``errors`` counts solves that raised, failed their output check, or
    differed from the first pass; ``converged`` counts the others that
    converged.  ``kinds`` tallies every other outcome by kind and instance.
    """

    def __init__(self, instances) -> None:
        self.instances = instances
        self.reference = None  # per-instance (status, ni, nf0, nf) of the first pass
        self.totals = None  # (sqp_iters, nf0, nf) of the first pass
        self.attempted = 0
        self.converged = 0
        self.errors = 0
        self.kinds: dict[str, int] = {}
        self.solve_s: list[float] = []

    def record_pass(self, results) -> None:
        signatures = [("raised", type(exc).__name__) if exc is not None
                      else (report.status.value, report.ni, report.nf0, report.nf)
                      for report, exc, _ in results]
        if self.reference is None:
            self.reference = signatures
            reports = [r for r, _, _ in results if r is not None]
            self.totals = (sum(r.ni for r in reports), sum(r.nf0 for r in reports),
                           sum(r.nf for r in reports))
        for inst, reference, signature, (report, exc, seconds) in zip(
                self.instances, self.reference, signatures, results):
            self.attempted += 1
            self.solve_s.append(seconds)
            if exc is not None:
                kind = f"error: raised {type(exc).__name__}"
            elif signature != reference:
                kind = f"error: nondeterministic, {reference} then {signature}"
            elif (reason := inst.check(report)) is not None:
                kind = f"error: check failed, {reason}"
            elif report.status.value == "converged":
                self.converged += 1
                continue
            else:
                kind = report.status.value
            self.errors += kind.startswith("error")
            key = f"{kind} [{inst.name}]"
            self.kinds[key] = self.kinds.get(key, 0) + 1


def run_pass(instances, problems, order):
    """Solve every instance once, in the given order.  Returns the pass wall
    time and (report, exception, seconds) per instance, in instance order."""
    from isqp import engine

    results = [None] * len(instances)
    started = perf_counter()
    for i in order:
        t0 = perf_counter()
        try:
            report, exc = engine.solve(problems[i], instances[i].x0), None
        except Exception as err:  # solve promises never to raise; record it
            report, exc = None, err
            traceback.print_exc(file=sys.stderr)
        results[i] = (report, exc, perf_counter() - t0)
    return perf_counter() - started, results


def quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def measure(instances, seed: int, seconds: float, spans):
    """Repeat passes for about ``seconds``.  With a tracer, traced and
    untraced passes alternate, traced first.  Returns the outcomes, the
    pass wall times keyed by traced-or-not, and one span summary per
    traced pass."""
    import numpy as np

    import tracer

    plain = [inst.problem for inst in instances]
    traced = [tracer.traced_problem(spans, p) for p in plain] if spans is not None else None
    rng = np.random.default_rng(seed)
    outcomes = Outcomes(instances)
    walls = {False: [], True: []}
    summaries = []
    started = perf_counter()
    while True:
        trace_now = spans is not None and len(walls[True]) <= len(walls[False])
        order = rng.permutation(len(instances))
        if trace_now:
            lo = len(spans)
            with tracer.installed(spans):
                wall, results = run_pass(instances, traced, order)
            summaries.append({**tracer.summarize(spans, lo, len(spans)), "wall_s": wall})
        else:
            wall, results = run_pass(instances, plain, order)
        walls[trace_now].append(wall)
        outcomes.record_pass(results)
        if spans is not None:
            enough = bool(walls[True] and walls[False])
            upcoming = walls[len(walls[True]) <= len(walls[False])]
        else:
            enough = len(walls[False]) >= 2
            upcoming = walls[False]
        # Stop where the next pass would end further from the deadline than now.
        if enough and perf_counter() - started + statistics.mean(upcoming) / 2 >= seconds:
            return outcomes, walls, summaries


def end_to_end(outcomes: Outcomes, walls, setup) -> dict:
    """End-to-end metrics as name -> (value, unit, note)."""
    sqp_iters, nf0, nf = outcomes.totals
    solve_ms = [1e3 * s for s in outcomes.solve_s]
    passes = walls[False]
    return {
        "setup_s": (statistics.median(setup), "s", quartiles(setup)),
        "pass_s": (statistics.median(passes), "s", quartiles(passes)),
        "solve_ms.p50": (statistics.median(solve_ms), "ms", quartiles(solve_ms)),
        "converged_frac": (outcomes.converged / outcomes.attempted, "ratio",
                           f"{outcomes.converged} of {outcomes.attempted} solves"),
        "sqp_iters": (sqp_iters, "count", "per pass"),
        "nf0": (nf0, "count", "per pass"),
        "nf": (nf, "count", "per pass"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MiB", "ru_maxrss of this process"),
    }


def per_layer(names, outcomes: Outcomes, walls, summaries) -> dict:
    """Per-layer metrics as name -> (value, unit, note)."""
    import tracer

    layers = tracer.layer_metrics(names, summaries)
    metrics = {name: (value, unit_of(name), "") for name, value in layers.items()}
    for name, base in tracer.RATIO_BASES.items():
        metrics[name] = (*metrics[name][:2], f"base {base} = {layers[base]:.6g}")
    failed = outcomes.attempted - outcomes.converged
    metrics["fail_frac"] = (failed / outcomes.attempted, "ratio",
                            f"{failed} of {outcomes.attempted} solves")
    traced, untraced = statistics.median(walls[True]), statistics.median(walls[False])
    metrics["trace.overhead_frac"] = (
        traced / untraced - 1.0, "ratio",
        f"traced pass_s {traced:.6g} s ({quartiles(walls[True])}) over untraced "
        f"{untraced:.6g} s ({quartiles(walls[False])})")
    metrics["trace.accounted_frac"] = (
        statistics.median(s["engine.solve.total_s"] / s["wall_s"] for s in summaries),
        "ratio", "time inside engine.solve spans over traced pass wall time")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not __debug__:
        fail("refusing to run under python -O: the solver's residual and "
             "certificate asserts would be skipped")
    if not os.path.isfile(os.path.join(SRC, "isqp", "__init__.py")):
        fail(f"no isqp sources under {SRC}")
    sys.path.insert(0, SRC)
    import isqp

    if not os.path.abspath(isqp.__file__).startswith(SRC + os.sep):
        fail(f"isqp was imported from {isqp.__file__}, not from {SRC}")
    import tracer
    import workloads

    print(f"env: {environment()}")
    setup = measure_setup(args.workload) if args.trace == 0 else []
    instances = workloads.build(args.workload)
    spans = tracer.Tracer() if args.trace else None
    started = perf_counter()
    outcomes, walls, summaries = measure(instances, args.seed, args.seconds, spans)
    print(f"workload {args.workload}, seed {args.seed}: {len(instances)} instances, "
          f"{len(walls[False]) + len(walls[True])} passes, {outcomes.attempted} solves, "
          f"{perf_counter() - started:.1f} s measured")
    for kind, count in sorted(outcomes.kinds.items()):
        print(f"  outcome {kind} x{count}")
    correct = outcomes.errors == 0
    if spans is None:
        failed = outcomes.attempted - outcomes.converged
        print(f"  fail_frac {failed / outcomes.attempted:.6g} ratio ({failed} of "
              f"{outcomes.attempted} solves; reported by the traced run)")
        metrics = end_to_end(outcomes, walls, setup)
    else:
        if any(tracer.counts(s) != tracer.counts(summaries[0]) for s in summaries):
            print("  error: traced passes disagree on their counts")
            correct = False
        metrics = per_layer(spans.names, outcomes, walls, summaries)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}.npz")
        spans.dump(path)
        print(f"  {len(spans)} spans of {len(summaries)} traced passes written to "
              f"{os.path.relpath(path, ROOT)}")

    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:8s} {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.errors,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name.endswith(("_ms", ".ms_per_call", ".ms_per_iter")):
        return "ms"
    if name.endswith(".mflop_computed"):
        return "Mflop"
    if name.endswith(".mflop_per_s"):
        return "Mflop/s"
    if name.endswith(("_ratio", "_frac", "per_call", "per_iter")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
