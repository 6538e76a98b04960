"""Benchmark driver: run the solver over the corpus, emit result tables
and Dolan-More performance profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Optional, Sequence, get_type_hints

import numpy as np

from . import corpus, engine
from .errors import SolverError

# The record fields a performance profile ranks runs by: nonnegative costs.
PROFILE_METRICS = ("ni", "nf0", "nf", "cpu_seconds")


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one solver run on one problem/start pair."""

    problem: str
    n: int
    m1: int
    m2: int
    start: str  # "a" (feasible), "b" (infeasible) or "custom"
    status: engine.SolveStatus
    nio: int
    nii: int
    ni: int
    nf0: int
    nf: int
    fv: float
    kkt_residual: float
    cpu_seconds: float

    @property
    def converged(self) -> bool:
        return self.status is engine.SolveStatus.CONVERGED


# The table's columns are RunRecord's fields, in field order.  Each cell is
# written by its field's formatter: str, but the status by its value and the
# floats to fixed digits (fv to 12 significant ones).
CSV_HEADER = ",".join(f.name for f in fields(RunRecord))
_COLUMN_TYPES = tuple(get_type_hints(RunRecord).values())
_CELL_FORMATS = {f.name: str for f in fields(RunRecord)} | {
    "status": lambda status: status.value, "fv": "{:.11e}".format,
    "kkt_residual": "{:.3e}".format, "cpu_seconds": "{:.6f}".format}


def _record(values: Sequence) -> RunRecord:
    """Build a record from its column values, each converted to its field's
    type (so a status string becomes a SolveStatus)."""
    return RunRecord(*(kind(v) for kind, v in zip(_COLUMN_TYPES, values)))


@dataclass(frozen=True)
class ProfilePoint:
    tau: float
    rho: float


@dataclass(frozen=True)
class ProfileCurve:
    """One solver's cumulative distribution of performance ratios."""

    solver: str
    points: tuple[ProfilePoint, ...]


def select_runs(names: Optional[Sequence[str]] = None,
                starts: str = "both") -> list[tuple[corpus.CorpusEntry, str, np.ndarray]]:
    """The ``(entry, start, x0)`` runs for the named problems (default: all).

    ``starts`` selects "a", "b", or "both"; start points a problem does not
    define are skipped silently.
    """
    if starts not in ("a", "b", "both"):
        raise ValueError(f"starts must be 'a', 'b', or 'both', got {starts!r}")
    wanted = ("a", "b") if starts == "both" else (starts,)
    runs = []
    for name in (names if names is not None else corpus.list_problems()):
        entry = corpus.get_problem(name)
        runs.extend((entry, start, entry.starts[start])
                    for start in wanted if start in entry.starts)
    return runs


def make_record(entry: corpus.CorpusEntry, start: str,
                report: engine.SolveReport) -> RunRecord:
    """Collapse the report of one run into a table row."""
    return _record((entry.name, *entry.dims, start, report.status,
                    report.nio, report.nii, report.ni, report.nf0, report.nf,
                    report.fv, report.kkt_residual, report.cpu_seconds))


def run_benchmark(names: Optional[Sequence[str]] = None, starts: str = "both",
                  options: Optional[engine.SolverOptions] = None) -> list[RunRecord]:
    """Solve every run of ``select_runs(names, starts)`` into a table row."""
    return [make_record(entry, start, engine.solve(entry.problem, x0, options))
            for entry, start, x0 in select_runs(names, starts)]


def emit_table(records: Iterable[RunRecord], fmt: str = "csv") -> str:
    """Render records as CSV (exact benchmark header) or a markdown table."""
    rows = [CSV_HEADER.split(",")] + [
        [write(getattr(r, name)) for name, write in _CELL_FORMATS.items()]
        for r in records
    ]
    if fmt == "csv":
        lines = [",".join(row) for row in rows]
    elif fmt == "markdown":
        rows.insert(1, ["---"] * len(rows[0]))
        lines = ["| " + " | ".join(row) + " |" for row in rows]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return "\n".join(lines) + "\n"


def read_table(text: str) -> list[RunRecord]:
    """Parse a CSV table written by ``emit_table`` back into records.

    Raises SolverError, the CLI's input error, on a wrong header, a row
    with the wrong number of fields, an unknown status or a malformed
    number; a row's message names its line.
    """
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise SolverError("not the benchmark CSV header")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        values = line.split(",")
        if len(values) != len(_COLUMN_TYPES):
            raise SolverError(
                f"line {lineno}: expected {len(_COLUMN_TYPES)} fields, got {len(values)}")
        try:
            records.append(_record(values))
        except ValueError as exc:
            raise SolverError(f"line {lineno}: {exc}") from None
    return records


def compute_profiles(metric_by_solver: Mapping[str, Mapping[str, float]]) -> list[ProfileCurve]:
    """Dolan-More performance profiles.

    ``metric_by_solver`` maps solver label -> {problem key -> metric}; a
    failed run is encoded as ``inf``.  Every solver must report the same
    problem set.  For each problem the ratio is metric / best-over-solvers;
    the curve gives, at each ratio threshold tau, the fraction of problems
    the solver solved within tau times the best.  Curves share a common
    tau grid: 1 plus every distinct finite ratio.
    """
    solvers = sorted(metric_by_solver)
    if not solvers:
        return []
    keys = sorted(metric_by_solver[solvers[0]])
    for s in solvers[1:]:
        if sorted(metric_by_solver[s]) != keys:
            raise SolverError(
                f"solver {s!r} reports a different problem set than {solvers[0]!r}"
            )
    if not keys:
        raise SolverError("no problems to profile")

    ratios: dict[str, list[float]] = {s: [] for s in solvers}
    for key in keys:
        values = [float(metric_by_solver[s][key]) for s in solvers]
        for v in values:
            if not math.isinf(v) and (not math.isfinite(v) or v <= 0):
                raise SolverError(
                    f"metric for {key!r} must be positive or inf, got {v}"
                )
        best = min(values)
        for s, v in zip(solvers, values):
            ratios[s].append(v / best if math.isfinite(best) else math.inf)

    tau_grid = sorted({1.0, *(r for rs in ratios.values() for r in rs if math.isfinite(r))})
    return [ProfileCurve(solver=s, points=tuple(
                ProfilePoint(tau=t, rho=sum(r <= t for r in rs) / len(keys))
                for t in tau_grid))
            for s, rs in ratios.items()]


def profile_metric(records: Iterable[RunRecord], metric: str) -> dict[str, float]:
    """Extract {problem/start key -> metric} from run records; failed runs
    map to inf.  ``metric`` is one of PROFILE_METRICS, else ValueError."""
    if metric not in PROFILE_METRICS:
        raise ValueError(f"metric must be one of {', '.join(PROFILE_METRICS)}, got {metric!r}")
    out: dict[str, float] = {}
    for r in records:
        key = f"{r.problem}:{r.start}"
        if key in out:
            raise SolverError(f"duplicate record for {key!r}")
        if not r.converged:
            out[key] = math.inf
            continue
        value = float(getattr(r, metric))
        if value <= 0:
            value = 1e-9  # zero-cost runs still rank first
        out[key] = value
    return out


def emit_profiles(curves: Sequence[ProfileCurve]) -> str:
    """Render profile curves as CSV with header solver,tau,rho."""
    return "solver,tau,rho\n" + "".join(
        f"{curve.solver},{pt.tau:.9g},{pt.rho:.9g}\n"
        for curve in curves for pt in curve.points)
