"""Benchmark driver: run the solver over the corpus, emit result tables
and Dolan-More performance profiles."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, get_type_hints

import numpy as np

from . import corpus, engine
from .errors import InconsistentRecordsError

CSV_HEADER = "problem,n,m1,m2,start,status,nio,nii,ni,nf0,nf,fv,kkt_residual,cpu_seconds"
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


# Field types of RunRecord, in field order, which is also the column order
# of CSV_HEADER.
_COLUMN_TYPES = tuple(get_type_hints(RunRecord).values())


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


def _format_fv(fv: float) -> str:
    if math.isnan(fv):
        return "nan"
    return f"{fv:.11e}"


def emit_table(records: Iterable[RunRecord], fmt: str = "csv") -> str:
    """Render records as CSV (exact benchmark header) or a markdown table."""
    rows = [
        (r.problem, str(r.n), str(r.m1), str(r.m2), r.start, r.status.value,
         str(r.nio), str(r.nii), str(r.ni), str(r.nf0), str(r.nf),
         _format_fv(r.fv),
         "inf" if math.isinf(r.kkt_residual) else f"{r.kkt_residual:.3e}",
         f"{r.cpu_seconds:.6f}")
        for r in records
    ]
    if fmt == "csv":
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
        return out.getvalue()
    if fmt == "markdown":
        header = CSV_HEADER.split(",")
        out = io.StringIO()
        out.write("| " + " | ".join(header) + " |\n")
        out.write("|" + "|".join(" --- " for _ in header) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(row) + " |\n")
        return out.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def read_table(text: str) -> list[RunRecord]:
    """Parse a CSV table written by ``emit_table`` back into records.

    Raises InconsistentRecordsError on a wrong header, a row with the
    wrong number of fields, an unknown status or a malformed number.
    """
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise InconsistentRecordsError("not the benchmark CSV header")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        values = line.split(",")
        if len(values) != len(_COLUMN_TYPES):
            raise InconsistentRecordsError(
                f"line {lineno}: expected {len(_COLUMN_TYPES)} fields, got {len(values)}")
        try:
            records.append(_record(values))
        except ValueError as exc:
            raise InconsistentRecordsError(f"line {lineno}: {exc}") from None
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
            raise InconsistentRecordsError(
                f"solver {s!r} reports a different problem set than {solvers[0]!r}"
            )
    if not keys:
        raise InconsistentRecordsError("no problems to profile")

    ratios: dict[str, dict[str, float]] = {s: {} for s in solvers}
    for key in keys:
        values = [float(metric_by_solver[s][key]) for s in solvers]
        for v in values:
            if not math.isinf(v) and (not math.isfinite(v) or v <= 0):
                raise InconsistentRecordsError(
                    f"metric for {key!r} must be positive or inf, got {v}"
                )
        best = min(values)
        for s, v in zip(solvers, values):
            if math.isinf(best):
                ratios[s][key] = math.inf
            else:
                ratios[s][key] = v / best

    taus = {1.0}
    for s in solvers:
        taus.update(r for r in ratios[s].values() if math.isfinite(r))
    tau_grid = sorted(taus)

    curves = []
    n_problems = len(keys)
    for s in solvers:
        rs = np.array(sorted(ratios[s].values()))
        points = tuple(
            ProfilePoint(tau=t, rho=float(np.count_nonzero(rs <= t)) / n_problems)
            for t in tau_grid
        )
        curves.append(ProfileCurve(solver=s, points=points))
    return curves


def profile_metric(records: Iterable[RunRecord], metric: str) -> dict[str, float]:
    """Extract {problem/start key -> metric} from run records; failed runs
    map to inf.  ``metric`` is one of PROFILE_METRICS, else ValueError."""
    if metric not in PROFILE_METRICS:
        raise ValueError(f"metric must be one of {', '.join(PROFILE_METRICS)}, got {metric!r}")
    out: dict[str, float] = {}
    for r in records:
        key = f"{r.problem}:{r.start}"
        if key in out:
            raise InconsistentRecordsError(f"duplicate record for {key!r}")
        if not r.converged:
            out[key] = math.inf
            continue
        value = float(getattr(r, metric))
        if value <= 0:
            value = max(value, 1e-9)  # zero-cost runs still rank first
        out[key] = value
    return out


def emit_profiles(curves: Sequence[ProfileCurve]) -> str:
    """Render profile curves as CSV with header solver,tau,rho."""
    out = io.StringIO()
    out.write("solver,tau,rho\n")
    for curve in curves:
        for pt in curve.points:
            out.write(f"{curve.solver},{pt.tau:.9g},{pt.rho:.9g}\n")
    return out.getvalue()
