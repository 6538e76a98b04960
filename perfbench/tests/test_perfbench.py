"""Tests of the benchmark's generators and span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from isqp import engine, linalg  # noqa: E402


def _values(problem, x):
    return (problem.f0(x), problem.f(x), problem.grad_f0(x), problem.grad_f(x))


@pytest.mark.parametrize("generate", [
    workloads.convex_problem,
    lambda seed: workloads.logit_problem(seed, samples=500),
])
def test_generators_are_deterministic_per_seed(generate):
    (p1, x1), (p2, x2), (p3, _) = generate(4), generate(4), generate(5)
    np.testing.assert_array_equal(x1, x2)
    point = x1 * 0.3
    for a, b in zip(_values(p1, point), _values(p2, point)):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(p1.f(point), p3.f(point))


def test_workload_instance_sets():
    assert len(workloads.build("hs-corpus")) == 25
    names = [inst.name for inst in workloads.build("convex-n20")]
    assert names == [f"convex-n20-s{s}" for s in workloads.CONVEX_SEEDS]


def test_logit_start_is_not_on_the_degenerate_diagonal():
    problem, x0 = workloads.logit_problem(0, samples=500)
    jac = problem.grad_f(x0)
    ball, equality = jac[:, 0], jac[:, -1]
    cosine = ball @ equality / np.linalg.norm(ball) / np.linalg.norm(equality)
    assert cosine < 1.0 - 1e-3


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6].
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    parent = np.array([-1, 0, 1, 0])
    own = tracer.self_times(start, end, parent)
    np.testing.assert_allclose(own, [6.0, 2.0, 1.0, 1.0])
    assert own.sum() == pytest.approx(10.0)


def test_summarize_counts_nesting_and_trials():
    spans = tracer.Tracer()
    leaf = spans.wrap("model.point_values", lambda: None)
    search = spans.wrap("engine.arc_search", lambda: [leaf(), leaf()])
    root = spans.wrap("engine.solve", lambda: (search(), leaf()))
    root()
    root()
    out = tracer.summarize(spans, 0, len(spans))
    assert out["engine.solve.calls"] == 2
    assert out["model.point_values.calls"] == 6
    assert out["trials"] == 4  # the point_values calls nested in the search
    assert list(spans.solve) == [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    self_total = sum(out[f"{n}.self_s"] for n in spans.names)
    assert self_total == pytest.approx(out["engine.solve.total_s"])


def test_traced_solve_accounts_for_its_time_and_restores_the_modules():
    problem, x0 = workloads.convex_problem(0, n=3)
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracer.TARGETS]
    spans = tracer.Tracer()
    traced = tracer.traced_problem(spans, problem)
    with tracer.installed(spans):
        report = engine.solve(traced, x0)
    assert [getattr(owner, attr) for owner, attr, _, _ in tracer.TARGETS] == originals
    assert report.status is engine.SolveStatus.CONVERGED

    out = tracer.summarize(spans, 0, len(spans))
    self_total = sum(out[f"{n}.self_s"] for n in spans.names)
    assert self_total == pytest.approx(out["engine.solve.total_s"], rel=1e-9)
    assert out["engine.step.calls"] == report.ni + 1  # the last step certifies
    assert out["engine.arc_search.calls"] == report.ni
    assert out["callbacks.f0.calls"] == report.nf0
    assert out["qp.solve_qp.calls"] == report.ni + 1
    assert out["qp.solve_qp.value"] >= out["qp.solve_qp.calls"]

    layers = tracer.layer_metrics(spans.names, [out])
    assert layers["engine.trials_per_iter"] == pytest.approx(out["trials"] / report.ni)
    assert layers["qp.steps_per_call"] == pytest.approx(layers["qp.steps"] / layers["qp.calls"])
    layer_ms = sum(layers[k] for k in ("callbacks.self_ms", "model.self_ms",
                                       "engine.search.self_ms", "engine.bfgs.self_ms",
                                       "engine.step.self_ms", "engine.solve.self_ms",
                                       "qp.self_ms", "linalg.self_ms"))
    assert layer_ms == pytest.approx(1e3 * out["engine.solve.total_s"], rel=1e-9)


def test_kkt_check_agrees_with_the_solver_certificate():
    problem, x0 = workloads.convex_problem(1, n=4)
    report = engine.solve(problem, x0)
    assert report.status is engine.SolveStatus.CONVERGED
    ours = workloads.kkt_residual(problem, report.x, report.mu)
    assert ours == pytest.approx(report.kkt_residual, rel=1e-12, abs=1e-15)
    assert workloads.kkt_check(problem)(report) is None
    assert workloads.kkt_check(problem)(
        engine.SolveReport(**{**report.__dict__, "mu": report.mu + 1.0})) is not None


def test_flop_counts_follow_argument_shapes():
    a = np.eye(4) * 2.0
    assert tracer._flops_cholesky((a,), None) == pytest.approx(64 / 3)
    assert tracer._flops_solve_cholesky((a, np.ones((4, 3))), None) == 96
    fac = linalg.lu_factor(a)
    assert tracer._flops_lu_solve((fac, np.ones(4)), None) == 64


def test_benchmark_json_names_the_metrics_the_run_prints():
    import json

    import run

    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    outcomes = run.Outcomes([])
    outcomes.totals, outcomes.attempted, outcomes.converged = (1, 1, 1), 2, 1
    outcomes.solve_s = [0.1, 0.2]
    walls = {False: [1.0, 1.2], True: [1.1]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    e2e = run.end_to_end(outcomes, walls, [0.1, 0.2])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit, _) in e2e.items()}

    problem, x0 = workloads.convex_problem(0, n=3)
    spans = tracer.Tracer()
    traced = tracer.traced_problem(spans, problem)
    with tracer.installed(spans):
        engine.solve(traced, x0)
    summary = {**tracer.summarize(spans, 0, len(spans)), "wall_s": 1.0}
    layers = run.per_layer(spans.names, outcomes, walls, [summary])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit, _) in layers.items()}


def test_raised_rejected_and_changed_solves_are_errors():
    import dataclasses

    import run

    problem, x0 = workloads.convex_problem(0, n=3)

    def broken(x):
        raise RuntimeError("callback failed")

    instances = [
        workloads.Instance("ok", problem, x0, workloads.kkt_check(problem)),
        workloads.Instance("raises", dataclasses.replace(problem, f0=broken), x0,
                           workloads.kkt_check(problem)),
        workloads.Instance("rejected", problem, x0, lambda report: "wrong answer"),
    ]
    outcomes = run.Outcomes(instances)
    _, results = run.run_pass(instances, [i.problem for i in instances], [2, 0, 1])
    outcomes.record_pass(results)
    assert (outcomes.attempted, outcomes.converged, outcomes.errors) == (3, 1, 2)
    assert sorted(outcomes.kinds) == [
        "error: check failed, wrong answer [rejected]",
        "error: raised RuntimeError [raises]",
    ]

    report, _, seconds = results[0]
    outcomes.record_pass([(dataclasses.replace(report, ni=report.ni + 1), None, seconds),
                          *results[1:]])
    assert (outcomes.attempted, outcomes.converged, outcomes.errors) == (6, 1, 5)
    assert any(k.startswith("error: nondeterministic") and k.endswith("[ok]")
               for k in outcomes.kinds)
