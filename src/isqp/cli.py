"""Command-line interface: run benchmarks, build performance profiles,
and list the built-in problems."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import bench, corpus, engine
from .errors import SolverError

EXIT_OK = 0
EXIT_RUN_FAILURES = 1

# Every SolverOptions field is a flag under its own name.
_OPTION_KEYS = tuple(f.name for f in dataclasses.fields(engine.SolverOptions))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isqp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve benchmark problems and emit a result table")
    run.add_argument("--problem", default="all",
                     help="problem name, comma-separated names, or 'all' (default)")
    starts = run.add_mutually_exclusive_group()
    starts.add_argument("--start", choices=("a", "b", "both"), default=None,
                        help="feasible (a), infeasible (b), or both starts (default both)")
    starts.add_argument("--x0", default=None,
                        help="comma-separated custom start (single problem only)")
    defaults = engine.SolverOptions()
    for key in _OPTION_KEYS:
        default = getattr(defaults, key)
        run.add_argument(f"--{key.replace('_', '-')}", type=type(default), default=None,
                         dest=key, help=f"solver parameter {key} (default {default:g})")
    run.add_argument("--trace", action="store_true",
                     help="print each run's trace records to stderr")
    run.add_argument("--out", default=None, help="write the table here instead of stdout")
    run.add_argument("--format", choices=("csv", "markdown"), default="csv")

    profile = sub.add_parser("profile", help="build performance profiles from result CSVs")
    profile.add_argument("results", nargs="+",
                         help="result CSV files; the file stem is the solver label")
    profile.add_argument("--metric", choices=bench.PROFILE_METRICS,
                         default="ni", help="performance metric (default ni)")
    profile.add_argument("--out", default=None)

    sub.add_parser("list", help="list built-in problems")
    return parser


def _merge_options(args) -> engine.SolverOptions:
    try:
        return engine.SolverOptions(**{key: getattr(args, key) for key in _OPTION_KEYS
                                       if getattr(args, key) is not None})
    except ValueError as exc:
        raise SolverError(str(exc)) from exc


def _select_problems(selector: str) -> list[str]:
    if selector == "all":
        return corpus.list_problems()
    names = [s.strip() for s in selector.split(",") if s.strip()]
    if not names:
        raise SolverError("--problem got an empty selection")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise SolverError(f"--problem names {', '.join(repeated)} more than once")
    return names


def _write(text: str, out: Optional[str]) -> None:
    """Write a command's output to the file ``out``, or to stdout."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SolverError(f"cannot write {out!r}: {exc}") from exc


def _trace_line(record: engine.IterationRecord) -> str:
    t = "-" if record.t is None else f"{record.t:.4g}"
    branch = record.branch or "-"
    return (f"  k={record.k:<3d} phi={record.phi:.3e} fc={record.fc: .9e} "
            f"|d0|={record.norm_d0:.3e} c={record.c:g} t={t} step={branch} "
            f"|I-|={record.iminus_size}")


def _print_trace(name: str, start: str, report: engine.SolveReport) -> None:
    summary = f"  -> {report.status.value}: fv={report.fv:.9e} ni={report.ni}"
    if report.message:
        summary += f" ({report.message})"
    lines = [f"{name} start={start}", *map(_trace_line, report.trace), summary]
    print("\n".join(lines), file=sys.stderr)


def _cmd_run(args) -> int:
    options = _merge_options(args)
    names = _select_problems(args.problem)
    if args.x0 is not None:
        if len(names) != 1:
            raise SolverError("--x0 requires exactly one --problem")
        try:
            x0 = np.array([float(v) for v in args.x0.split(",")], dtype=float)
        except ValueError as exc:
            raise SolverError(f"--x0 is not a comma-separated real vector: {exc}") from exc
        bad = np.flatnonzero(~np.isfinite(x0))
        if bad.size:
            i = int(bad[0])
            raise SolverError(f"--x0 component {i} is not finite: {float(x0[i])!r}")
        entry = corpus.get_problem(names[0])
        if x0.shape != (entry.problem.n,):
            raise SolverError(
                f"--x0 has {x0.size} components; {entry.name} needs {entry.problem.n}"
            )
        runs = [(entry, "custom", x0)]
    else:
        runs = bench.select_runs(names, args.start or "both")
    if not runs:
        raise SolverError("selection produced no runs (no matching start points)")

    records: list[bench.RunRecord] = []
    for entry, start, x0 in runs:
        report = engine.solve(entry.problem, x0, options)
        if args.trace:
            _print_trace(entry.name, start, report)
        records.append(bench.make_record(entry, start, report))

    _write(bench.emit_table(records, fmt=args.format), args.out)
    return EXIT_OK if all(r.converged for r in records) else EXIT_RUN_FAILURES


def _cmd_profile(args) -> int:
    by_solver: dict[str, dict[str, float]] = {}
    for path in args.results:
        label = Path(path).stem
        if label in by_solver:
            raise SolverError(f"duplicate solver label {label!r}")
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise SolverError(f"cannot read {path!r}: {exc}") from exc
        try:
            by_solver[label] = bench.profile_metric(bench.read_table(text), args.metric)
        except SolverError as exc:
            raise SolverError(f"{path!r}: {exc}") from exc
        if not by_solver[label]:
            raise SolverError(f"{path!r} contains no result rows")
    _write(bench.emit_profiles(bench.compute_profiles(by_solver)), args.out)
    return EXIT_OK


def _cmd_list(_args) -> int:
    lines = [f"{'name':8s} {'n':>3s} {'m1':>3s} {'m2':>3s} {'starts':7s} fv_reference"]
    for name in corpus.list_problems():
        entry = corpus.get_problem(name)
        n, m1, m2 = entry.dims
        starts = "".join(entry.starts)
        lines.append(f"{name:8s} {n:3d} {m1:3d} {m2:3d} {starts:7s} {entry.fv_reference:.10g}")
    _write("\n".join(lines) + "\n", None)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; returns 0 when every run converged and 1 when some
    run did not.  Every input error a command finds is a SolverError (a
    rejected flag value, an unknown problem, an unreadable or malformed
    results file, an unwritable ``--out``), and each exits 2 through
    ``parser.error``, as argparse's own usage errors do."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "profile":
            return _cmd_profile(args)
        return _cmd_list(args)
    except SolverError as exc:
        parser.error(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
