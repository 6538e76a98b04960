"""Acceptance suite: one test per shipping criterion, each printing a
single PASS line with the numbers behind the verdict.

All reference numbers are frozen independently of the implementation:
objective values and iteration counts come from the published benchmark
results for this method; analytic solutions of the synthetic problems are
derived by hand; the subproblem oracle enumerates active subsets with
numpy.linalg.
"""

import itertools

import numpy as np
import pytest

from isqp import bench, cli, corpus, engine, model

# Criterion 1: problems run from their feasible starts, checked against the
# reference objective values (any stored candidate counts).
FEASIBLE_START_PROBLEMS = [
    "HS012", "HS024", "HS029", "HS031", "HS033", "HS043", "HS076", "HS100",
]

# Criterion 2: infeasible-start reference objective values and iteration
# counts for the same method.
INFEASIBLE_REFERENCE = {
    "HS034": (-0.83403244522367, 17),
    "HS035": (0.11111111111111, 10),
    "HS036": (-3299.99999999997, 5),
    "HS037": (-3455.999999999998, 69),
    "HS044": (-14.99999999999756, 9),
    "HS065": (0.95352885680478, 14),
    "HS066": (0.51816327418154, 15),
}


@pytest.fixture(scope="module")
def corpus_runs():
    """Every corpus problem solved from every defined start with tracing,
    under default options; shared by the criteria below."""
    options = engine.SolverOptions(keep_trace=True)
    runs = {}
    for name in corpus.list_problems():
        entry = corpus.get_problem(name)
        for start, x0 in (("a", entry.x0_feasible), ("b", entry.x0_infeasible)):
            if x0 is None:
                continue
            runs[(name, start)] = (entry, engine.solve(entry.problem, x0, options))
    return runs


def test_criterion_1_feasible_start_objectives(corpus_runs):
    """Reference objective values from feasible starts, under the default
    configuration, within max(1e-6 absolute, 1e-7 relative), in fewer than
    200 iterations and under a second each."""
    worst_err = 0.0
    worst_ni = 0
    for name in FEASIBLE_START_PROBLEMS:
        entry, report = corpus_runs[(name, "a")]
        assert report.status is engine.SolveStatus.CONVERGED, name
        errs = [abs(report.fv - ref) for ref in entry.fv_candidates]
        tols = [max(1e-6, 1e-7 * abs(ref)) for ref in entry.fv_candidates]
        assert any(e <= t for e, t in zip(errs, tols)), (
            f"{name}: fv={report.fv!r} misses every reference "
            f"{entry.fv_candidates} (errors {errs})"
        )
        assert report.ni < 200, f"{name}: {report.ni} iterations"
        assert report.wall_seconds < 1.0, f"{name}: {report.wall_seconds:.3f}s"
        worst_err = max(worst_err, min(errs))
        worst_ni = max(worst_ni, report.ni)
    print(f"CRITERION 1: PASS — {len(FEASIBLE_START_PROBLEMS)} problems, "
          f"worst objective error {worst_err:.3e}, max iterations {worst_ni}")


def test_criterion_2_infeasible_start_reproduction(corpus_runs):
    """Infeasible starts reach exact feasibility and the reference
    objective within 1e-6, with at least one outside iteration and a total
    iteration count within 5x the reference."""
    worst_ratio = 0.0
    for name, (fv_ref, ni_ref) in INFEASIBLE_REFERENCE.items():
        entry, report = corpus_runs[(name, "b")]
        assert report.status is engine.SolveStatus.CONVERGED, name
        assert report.phi_final == 0.0, f"{name}: phi_final={report.phi_final!r}"
        assert abs(report.fv - fv_ref) <= 1e-6, (
            f"{name}: fv={report.fv!r} vs reference {fv_ref!r}"
        )
        assert report.nio >= 1, f"{name}: no outside iterations recorded"
        assert report.nio + report.nii == report.ni, name
        assert report.ni <= 5 * ni_ref, (
            f"{name}: {report.ni} iterations vs reference {ni_ref}"
        )
        worst_ratio = max(worst_ratio, report.ni / ni_ref)
    print(f"CRITERION 2: PASS — {len(INFEASIBLE_REFERENCE)} problems, "
          f"all phi_final = 0, worst iteration ratio {worst_ratio:.2f}x")


def test_criterion_3_kkt_certification(corpus_runs):
    """Every converged run certifies a KKT residual of at most 1e-5 under
    the recovered original-problem multipliers."""
    assert corpus_runs, "no runs"
    worst = 0.0
    for (name, start), (entry, report) in corpus_runs.items():
        assert report.status is engine.SolveStatus.CONVERGED, (name, start)
        # Recompute independently from the reported point and multipliers.
        counters = model.EvalCounters()
        vals = model.point_values(entry.problem, report.x, counters)
        ev = model.evaluate(entry.problem, model.with_objective(entry.problem, vals, counters),
                            counters)
        recomputed = model.kkt_residual_original(ev, report.mu)
        assert recomputed <= 1e-5, (name, start, recomputed)
        assert report.kkt_residual <= 1e-5, (name, start, report.kkt_residual)
        worst = max(worst, recomputed, report.kkt_residual)
    print(f"CRITERION 3: PASS — {len(corpus_runs)} converged runs, "
          f"worst KKT residual {worst:.3e} <= 1e-5")


def test_criterion_4_subproblem_oracle_equivalence():
    """At least 1000 random strictly convex subproblems (n <= 3, m <= 4)
    match exhaustive active-subset enumeration to 1e-7 in the minimizer and
    the objective."""
    from isqp import linalg, qp

    def oracle(H, grad, A, b):
        n, m = grad.size, b.size
        best, best_obj = None, np.inf
        for size in range(min(n, m) + 1):
            for subset in itertools.combinations(range(m), size):
                rows = A[list(subset)]
                kkt = np.zeros((n + size, n + size))
                kkt[:n, :n] = H
                kkt[:n, n:] = rows.T
                kkt[n:, :n] = rows
                rhs = np.concatenate([-grad, b[list(subset)]])
                try:
                    z = np.linalg.solve(kkt, rhs)
                except np.linalg.LinAlgError:
                    continue
                d, lam = z[:n], z[n:]
                if lam.size and np.min(lam) < -1e-9:
                    continue
                if m and np.max(A @ d - b) > 1e-9 * max(1.0, np.max(np.abs(b))):
                    continue
                obj = 0.5 * d @ H @ d + grad @ d
                if obj < best_obj:
                    best_obj, best = obj, d
        assert best is not None
        return best, best_obj

    rng = np.random.default_rng(20260814)
    worst_d = worst_obj = 0.0
    n_instances = 1000
    for _ in range(n_instances):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(0, 5))
        g = rng.normal(size=(n, n))
        H = g @ g.T + (0.1 + rng.uniform()) * np.eye(n)
        grad = rng.normal(size=n) * 3.0
        A = rng.normal(size=(m, n))
        b = np.abs(rng.normal(size=m))
        b[rng.uniform(size=m) < 0.2] = 0.0
        inst = qp.QpInstance(H=H, grad=grad, A=A, b=b)
        d_ref, obj_ref = oracle(H, grad, A, b)
        sol = qp.solve_qp(inst, linalg.cholesky(inst.H))
        d_err = float(np.max(np.abs(sol.d0 - d_ref), initial=0.0))
        obj_err = abs(inst.objective(sol.d0) - obj_ref)
        assert d_err <= 1e-7, (d_err, inst)
        assert obj_err <= 1e-7, (obj_err, inst)
        worst_d = max(worst_d, d_err)
        worst_obj = max(worst_obj, obj_err)
    print(f"CRITERION 4: PASS — {n_instances} instances, worst minimizer "
          f"error {worst_d:.3e}, worst objective error {worst_obj:.3e}")


def test_criterion_5_runtime_invariants(corpus_runs):
    """Per-iteration invariants on every traced corpus run: the satisfied
    count never drops; the violation strictly shrinks between consecutive
    infeasible iterates; the penalized objective is nonincreasing between
    consecutive feasible iterates at fixed penalty weight; the penalty
    weight only ever rises, by at least the minimum jump, at most 3 times;
    every run converges, so every curvature matrix reaching the QP was
    positive definite; the shared-matrix solves stay accurate; and both
    blended-direction certificates hold."""
    options = engine.SolverOptions()
    pairs_checked = 0
    for (name, start), (entry, report) in corpus_runs.items():
        trace = report.trace
        assert trace, (name, start)

        counts = []
        for rec in trace:
            counts.append(rec.iminus_size)
            if rec.iminus_size_next is not None:
                counts.append(rec.iminus_size_next)
        assert all(b >= a for a, b in zip(counts, counts[1:])), (name, start)

        prev_c = options.c_init
        changes = 0
        for rec in trace:
            if rec.c_changed:
                changes += 1
                assert rec.c >= prev_c + options.gamma - 1e-12, (name, start)
            else:
                assert rec.c == prev_c, (name, start)
            prev_c = rec.c
        assert changes <= 3, (name, start, changes)

        for cur, nxt in zip(trace, trace[1:]):
            pairs_checked += 1
            if cur.phi > 0.0 and nxt.phi > 0.0:
                assert nxt.phi < cur.phi, (name, start, cur.k)
            if cur.phi == 0.0 and nxt.phi == 0.0 and cur.c == nxt.c:
                assert nxt.fc <= cur.fc + 1e-12, (name, start, cur.k)

        # A converged run proves that every H reaching the QP factored:
        # the QP factors H in each iteration and ends the run otherwise.
        assert report.status is engine.SolveStatus.CONVERGED, (name, start)
        for rec in trace:
            if rec.gamma_residual is not None:
                assert rec.gamma_residual <= 1e-10, (name, start, rec.k)
            if rec.descent_lhs is not None:
                assert rec.descent_lhs <= rec.descent_rhs + 1e-9, (name, start, rec.k)
            if rec.i0_margin is not None:
                assert rec.i0_margin <= 1e-9, (name, start, rec.k)
    print(f"CRITERION 5: PASS — invariants hold on {len(corpus_runs)} traced "
          f"runs ({pairs_checked} consecutive-iterate pairs)")


def test_criterion_6_equality_constraint_path():
    """min x1^2 + x2^2 subject to x1 + x2 - 2 = 0 converges to (1, 1); the
    recovered equality multiplier is -2; the penalty weight settles after
    at most 3 raises."""
    problem = model.NlpProblem(
        n=2, m_ineq=0, m_eq=1,
        f0=lambda x: float(x @ x),
        f=lambda x: np.array([x[0] + x[1] - 2.0]),
        grad_f0=lambda x: 2.0 * x,
        grad_f=lambda x: np.array([[1.0], [1.0]]),
        name="synthetic-equality",
    )
    report = engine.solve(problem, [3.0, -1.0], engine.SolverOptions(keep_trace=True))
    assert report.status is engine.SolveStatus.CONVERGED
    assert np.max(np.abs(report.x - 1.0)) <= 1e-6, report.x
    assert abs(report.mu[0] - (-2.0)) <= 1e-6, report.mu
    assert report.lam[0] >= 0.0
    changes = sum(1 for rec in report.trace if rec.c_changed)
    assert changes <= 3, changes
    c_path = [rec.c for rec in report.trace]
    assert all(b >= a for a, b in zip(c_path, c_path[1:]))
    print(f"CRITERION 6: PASS — x={report.x.round(9).tolist()}, "
          f"equality multiplier {report.mu[0]:.9f}, penalty raised "
          f"{changes} time(s) to c={c_path[-1]:g}")


def test_criterion_7_unit_steps_near_solution(corpus_runs):
    """On HS076 and HS043 the corrected arc is accepted at full step length
    on each of the last three iterations before convergence."""
    for name in ("HS076", "HS043"):
        _, report = corpus_runs[(name, "a")]
        assert report.status is engine.SolveStatus.CONVERGED, name
        advancing = [rec for rec in report.trace if not rec.converged]
        assert len(advancing) >= 3, name
        tail = advancing[-3:]
        for rec in tail:
            assert rec.branch == "arc", (name, rec.k, rec.branch)
            assert rec.t == 1.0, (name, rec.k, rec.t)
    print("CRITERION 7: PASS — full steps on the last 3 iterations of "
          "HS076 and HS043")


def test_criterion_8_profile_hand_example():
    """The three-problem, two-solver profile example reproduces the exact
    fraction values."""
    curves = bench.compute_profiles({
        "A": {"p1": 2.0, "p2": 3.0, "p3": 8.0},
        "B": {"p1": 4.0, "p2": 3.0, "p3": 4.0},
    })
    by = {c.solver: {pt.tau: pt.rho for pt in c.points} for c in curves}
    assert set(by) == {"A", "B"}
    for label in ("A", "B"):
        assert set(by[label]) == {1.0, 2.0}
        assert by[label][1.0] == 2.0 / 3.0  # exact: both best on 2 of 3
        assert by[label][2.0] == 1.0
    print("CRITERION 8: PASS — profile fractions match the enumerated "
          "example exactly (2/3 at ratio 1, 1 at ratio 2)")


def test_criterion_9_deterministic_output(tmp_path):
    """Two identical benchmark invocations emit byte-identical CSV once the
    timing column is removed."""
    outputs = []
    for tag in ("one", "two"):
        path = tmp_path / f"{tag}.csv"
        code = cli.main(["run", "--out", str(path)])
        assert code == 0
        outputs.append(path.read_text(encoding="utf-8"))

    def drop_timing(text):
        return "\n".join(",".join(line.split(",")[:-1])
                         for line in text.strip().split("\n"))

    assert outputs[0] != "" and outputs[0].startswith(bench.CSV_HEADER)
    assert drop_timing(outputs[0]) == drop_timing(outputs[1])
    rows = outputs[0].strip().split("\n")
    print(f"CRITERION 9: PASS — {len(rows) - 1} result rows byte-identical "
          f"across repeated runs (timing column excluded)")
