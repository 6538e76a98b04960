"""Span tracer for the benchmark's traced passes.

The solver is traced from outside: ``installed`` replaces the public
functions of ``engine``, ``model``, ``qp`` and ``linalg`` by wrappers on
their module (or class) attributes, and ``traced_problem`` wraps a
program's user callbacks.  Every wrapped call records one span in memory:
name, start, end, parent span, solve id, and one number ``value`` whose
meaning depends on the span (see ``TARGETS``).  ``summarize`` turns the
spans of one pass into per-layer counts and self times; ``dump`` writes
every span out.

A span's self time is its duration minus the durations of its direct
children.  The program is single-threaded, so children never overlap and
the self times of a pass add up to the time spent inside ``engine.solve``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from array import array
from time import perf_counter
from typing import Callable, Iterator, Optional

import numpy as np

from isqp import engine, linalg, model, qp


def _cols(b) -> int:
    shape = np.shape(b)
    return 1 if len(shape) < 2 else shape[1]


# Floating-point operations of the dense kernels, computed from argument
# shapes: n is the matrix order, k the number of right-hand sides.  Solves
# include the residual check that runs with __debug__ on.
def _flops_cholesky(args, result) -> float:
    n = np.shape(args[0])[0]
    return n ** 3 / 3.0


def _flops_solve_cholesky(args, result) -> float:
    n = np.shape(args[0])[0]
    return 2.0 * n * n * _cols(args[1])


def _flops_spd_solve(args, result) -> float:
    # Own work only: the residual check.  Its factor and solve are child spans.
    n = np.shape(args[0])[0]
    return 2.0 * n * n * _cols(args[1])


def _flops_lu_factor(args, result) -> float:
    n = np.shape(args[0])[0]
    return 2.0 * n ** 3 / 3.0


def _flops_lu_solve(args, result) -> float:
    n = args[0].shape[0]
    return 4.0 * n * n * _cols(args[1])


def _arc_accepted(args, result) -> float:
    return float(result is not None)


def _bfgs_updated(args, result) -> float:
    return float(result is not args[0])


# (owner, attribute, span name, value of the span).  Spans without a value
# function keep value 0, except qp.solve_qp, whose value counts its
# active-set steps (QpInstance.objective calls).
TARGETS = (
    (engine, "solve", "engine.solve", None),
    (engine, "step", "engine.step", None),
    (engine, "arc_search", "engine.arc_search", _arc_accepted),
    (engine, "feasible_direction_search", "engine.fd_search", None),
    (engine, "bfgs_update", "engine.bfgs", _bfgs_updated),
    (model, "point_values", "model.point_values", None),
    (model, "evaluate", "model.evaluate", None),
    (model, "compute_pi", "model.compute_pi", None),
    (model, "update_c", "model.update_c", None),
    (model, "constraint_values", "model.constraint_values", None),
    (model, "penalty_value", "model.penalty_value", None),
    (model, "penalty_gradient", "model.penalty_gradient", None),
    (model, "kkt_residual_original", "model.kkt_residual_original", None),
    (qp, "solve_qp", "qp.solve_qp", None),
    (qp, "objective_decrease_certificate", "qp.objective_decrease_certificate", None),
    (linalg, "cholesky", "linalg.cholesky", _flops_cholesky),
    (linalg, "solve_cholesky", "linalg.solve_cholesky", _flops_solve_cholesky),
    (linalg, "spd_solve", "linalg.spd_solve", _flops_spd_solve),
    (linalg, "lu_factor", "linalg.lu_factor", _flops_lu_factor),
    # The solver solves through the factorization object; the module-level
    # lu_solve is not on its path.
    (linalg.LuFactorization, "solve", "linalg.lu_solve", _flops_lu_solve),
)

# Spans whose value is a count, so that it repeats exactly between passes.
COUNTED = ("engine.arc_search", "engine.bfgs", "qp.solve_qp")
CALLBACKS = ("f0", "f", "grad_f0", "grad_f")
# The base of every ratio that layer_metrics reports.
RATIO_BASES = {
    "engine.trials_per_iter": "engine.arc_search.calls",
    "engine.arc_search.accept_ratio": "engine.arc_search.calls",
    "engine.bfgs.update_ratio": "engine.bfgs.calls",
    "engine.ms_per_iter": "engine.arc_search.calls",
    "qp.steps_per_call": "qp.calls",
    "qp.ms_per_call": "qp.calls",
    "linalg.mflop_per_s": "linalg.self_ms",
}
LINALG = ("cholesky", "solve_cholesky", "spd_solve", "lu_factor", "lu_solve")
SEARCHES = ("engine.arc_search", "engine.fd_search")


class Tracer:
    """Spans kept in flat typed arrays, indexed in call order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._open = [-1]
        self._solve_id = -1

    def __len__(self) -> int:
        return len(self.name)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable,
             value: Optional[Callable] = None) -> Callable:
        """Return fn recording one span per call; ``engine.solve`` spans
        open a new solve id."""
        nid = self._name_id(name)
        root = name == "engine.solve"
        names, parents, solves = self.name, self.parent, self.solve
        starts, ends, values, open_spans = self.start, self.end, self.value, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            if root:
                self._solve_id += 1
            names.append(nid)
            parents.append(open_spans[-1])
            solves.append(self._solve_id)
            starts.append(0.0)
            ends.append(0.0)
            values.append(0.0)
            open_spans.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_spans.pop()
                starts[idx] = t0
                ends[idx] = t1
            if value is not None:
                values[idx] = value(args, result)
            return result

        return traced

    def count_into_open_span(self, fn: Callable) -> Callable:
        """Return fn adding 1 to the value of the innermost open span."""
        values, open_spans = self.value, self._open

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if open_spans[-1] >= 0:
                values[open_spans[-1]] += 1.0
            return fn(*args, **kwargs)

        return counted

    def spans(self, lo: int = 0, hi: Optional[int] = None) -> dict[str, np.ndarray]:
        """Copies of the span fields of spans lo..hi-1."""
        hi = len(self) if hi is None else hi
        return {
            "name": np.array(self.name[lo:hi], dtype=np.int32),
            "parent": np.array(self.parent[lo:hi], dtype=np.int32),
            "solve": np.array(self.solve[lo:hi], dtype=np.int32),
            "start": np.array(self.start[lo:hi], dtype=float),
            "end": np.array(self.end[lo:hi], dtype=float),
            "value": np.array(self.value[lo:hi], dtype=float),
        }

    def dump(self, path: str) -> None:
        """Write every span, with the name table, as one .npz file."""
        np.savez(path, names=np.array(self.names), **self.spans())


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Trace the solver modules for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, value in TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, value))
        original = qp.QpInstance.objective
        saved.append((qp.QpInstance, "objective", original))
        qp.QpInstance.objective = tracer.count_into_open_span(original)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_problem(tracer: Tracer, problem: model.NlpProblem) -> model.NlpProblem:
    """Copy of the program whose user callbacks record spans."""
    wrapped = {name: tracer.wrap(f"callbacks.{name}", getattr(problem, name))
               for name in CALLBACKS if getattr(problem, name) is not None}
    return dataclasses.replace(problem, **wrapped)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    ``parent`` holds indices into the same arrays, or -1 for a root.
    """
    duration = end - start
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested],
                           minlength=duration.size)
    return duration - children


def summarize(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer totals of the spans lo..hi-1, which must hold whole solves.

    Keys are ``<span>.calls``, ``<span>.self_s``, ``<span>.total_s``
    (inclusive duration) and ``<span>.value`` for every span name, plus
    ``trials``: point_values calls nested directly in either search.
    """
    s = tracer.spans(lo, hi)
    parent = np.where(s["parent"] >= 0, s["parent"] - lo, -1)
    own = self_times(s["start"], s["end"], parent)
    duration = s["end"] - s["start"]
    k = len(tracer.names)
    calls = np.bincount(s["name"], minlength=k)
    self_s = np.bincount(s["name"], weights=own, minlength=k)
    value = np.bincount(s["name"], weights=s["value"], minlength=k)
    total_s = np.bincount(s["name"], weights=duration, minlength=k)
    out: dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(self_s[i])
        out[f"{name}.value"] = float(value[i])
        out[f"{name}.total_s"] = float(total_s[i])
    ids = tracer._ids
    search_ids = [ids[n] for n in SEARCHES if n in ids]
    nested = parent >= 0
    in_search = np.zeros(parent.size, dtype=bool)
    in_search[nested] = np.isin(s["name"][parent[nested]], search_ids)
    out["trials"] = int(np.sum(in_search & (s["name"] == ids.get("model.point_values", -1))))
    return out


def counts(summary: dict[str, float]) -> dict[str, float]:
    """The entries of a ``summarize`` result that must repeat exactly
    between passes over the same instances."""
    return {k: v for k, v in summary.items()
            if k.endswith(".calls") or k == "trials"
            or (k.endswith(".value") and k[:-len(".value")] in COUNTED)}


def _layer_self_s(summary: dict[str, float], names: list[str], prefix: str) -> float:
    return sum(summary[f"{n}.self_s"] for n in names if n.startswith(prefix))


def layer_metrics(names: list[str], passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one workload pass from ``summarize`` output.

    Counts come from the first pass (the caller checks that they repeat);
    times are medians over the passes, in ms per pass.  Every ratio is
    formed from the counts and times reported beside it.
    """
    first = passes[0]

    def ms(fn) -> float:
        return 1e3 * float(np.median([fn(p) for p in passes]))

    def calls(name: str) -> int:
        return first[f"{name}.calls"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    out["callbacks.calls"] = sum(first[f"{n}.calls"] for n in names if n.startswith("callbacks."))
    out["callbacks.self_ms"] = ms(lambda p: _layer_self_s(p, names, "callbacks."))
    for name in ("point_values", "evaluate", "compute_pi"):
        out[f"model.{name}.calls"] = calls(f"model.{name}")
    out["model.self_ms"] = ms(lambda p: _layer_self_s(p, names, "model."))

    # Every iteration that does not stop runs the arc search once, so its
    # calls are the iteration count; engine.step also runs the final check.
    iters = calls("engine.arc_search")
    out["engine.search.trials"] = first["trials"]
    out["engine.trials_per_iter"] = ratio(first["trials"], iters)
    out["engine.arc_search.calls"] = iters
    out["engine.arc_search.accept_ratio"] = ratio(first["engine.arc_search.value"], iters)
    out["engine.fd_search.calls"] = calls("engine.fd_search")
    out["engine.search.self_ms"] = ms(lambda p: sum(p[f"{n}.self_s"] for n in SEARCHES))
    out["engine.bfgs.calls"] = calls("engine.bfgs")
    out["engine.bfgs.update_ratio"] = ratio(
        first["engine.bfgs.value"], calls("engine.bfgs"))
    out["engine.bfgs.self_ms"] = ms(lambda p: p["engine.bfgs.self_s"])
    out["engine.step.calls"] = calls("engine.step")
    out["engine.step.self_ms"] = ms(lambda p: p["engine.step.self_s"])
    out["engine.ms_per_iter"] = ratio(ms(lambda p: p["engine.step.total_s"]), iters)
    out["engine.solve.self_ms"] = ms(lambda p: p["engine.solve.self_s"])

    qp_calls = calls("qp.solve_qp")
    qp_steps = first["qp.solve_qp.value"]
    out["qp.calls"] = qp_calls
    out["qp.steps"] = int(qp_steps)
    out["qp.steps_per_call"] = ratio(qp_steps, qp_calls)
    out["qp.self_ms"] = ms(lambda p: _layer_self_s(p, names, "qp."))
    out["qp.ms_per_call"] = ratio(out["qp.self_ms"], qp_calls)

    for name in LINALG:
        out[f"linalg.{name}.calls"] = calls(f"linalg.{name}")
        out[f"linalg.{name}.self_ms"] = ms(lambda p, n=name: p[f"linalg.{n}.self_s"])
    out["linalg.self_ms"] = ms(lambda p: _layer_self_s(p, names, "linalg."))
    mflop = sum(first[f"linalg.{n}.value"] for n in LINALG) / 1e6
    out["linalg.mflop_computed"] = mflop
    out["linalg.mflop_per_s"] = ratio(mflop, out["linalg.self_ms"] / 1e3)
    return out
