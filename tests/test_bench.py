"""Benchmark-driver contracts: run records, result tables, and
performance-profile curves checked against hand-computed examples."""

import dataclasses
import math
import time

import numpy as np
import pytest

from isqp import bench, corpus, engine, model
from isqp.errors import InconsistentRecordsError


def _record(**overrides):
    base = dict(
        problem="HS035", n=3, m1=4, m2=0, start="a",
        status=engine.SolveStatus.CONVERGED, nio=0, nii=7, ni=7,
        nf0=9, nf=36, fv=0.1111111111111, kkt_residual=3.2e-9,
        cpu_seconds=0.001234,
    )
    base.update(overrides)
    return bench.RunRecord(**base)


class TestRunOne:
    """One problem from one start, through the one run path."""

    def test_feasible_start_run(self):
        [rec] = bench.run_benchmark(["HS035"], starts="a")
        assert rec.problem == "HS035"
        assert (rec.n, rec.m1, rec.m2) == (3, 4, 0)
        assert rec.start == "a"
        assert rec.converged
        assert rec.fv == pytest.approx(1.0 / 9.0, abs=1e-6)
        assert rec.cpu_seconds >= 0.0

    def test_infeasible_start_run(self):
        [rec] = bench.run_benchmark(["HS035"], starts="b")
        assert rec.start == "b"
        assert rec.converged
        assert rec.nio >= 1  # the run really started outside the feasible set


class TestCpuSeconds:
    def test_sleeping_callback_adds_wall_time_but_not_cpu_time(self):
        nap = 0.05

        def sleepy(x):
            time.sleep(nap)
            return float((x[0] - 2.0) ** 2)

        prob = model.NlpProblem(n=1, m_ineq=0, m_eq=0, f0=sleepy,
                                grad_f0=lambda x: np.array([2.0 * (x[0] - 2.0)]))
        report = engine.solve(prob, [0.0])
        slept = nap * report.nf0
        assert report.nf0 >= 2
        assert report.wall_seconds >= slept
        assert report.cpu_seconds < report.wall_seconds - 0.5 * slept
        entry = corpus.get_problem("HS035")
        rec = bench.make_record(entry, "custom", report)
        assert rec.cpu_seconds == report.cpu_seconds


class TestRunBenchmark:
    def test_subset_and_start_selection(self):
        records = bench.run_benchmark(["HS035"], starts="a")
        assert len(records) == 1
        assert records[0].start == "a"

    def test_missing_starts_are_skipped_silently(self):
        records = bench.run_benchmark(["HS012", "HS035"], starts="b")
        assert [r.problem for r in records] == ["HS035"]

    def test_both_starts(self):
        records = bench.run_benchmark(["HS035"], starts="both")
        assert [r.start for r in records] == ["a", "b"]

    def test_bad_starts_value_rejected(self):
        with pytest.raises(ValueError):
            bench.run_benchmark(["HS035"], starts="ab")

    def test_options_are_honored(self):
        records = bench.run_benchmark(["HS035"], starts="a",
                                      options=engine.SolverOptions(max_iter=1))
        assert records[0].status is engine.SolveStatus.MAX_ITERATIONS
        assert records[0].ni == 1


class TestSelectRuns:
    def test_yields_the_start_points_of_each_entry(self):
        runs = bench.select_runs(["HS012", "HS035"])
        assert [(entry.name, start) for entry, start, _ in runs] == [
            ("HS012", "a"), ("HS035", "a"), ("HS035", "b")]
        for entry, start, x0 in runs:
            assert x0 is entry.starts[start]

    def test_default_is_every_problem(self):
        runs = bench.select_runs()
        assert len(runs) == 25
        assert {entry.name for entry, _, _ in runs} == set(corpus.list_problems())


class TestEmitTable:
    def test_empty_is_header_only(self):
        assert bench.emit_table([]) == bench.CSV_HEADER + "\n"

    def test_csv_row_layout(self):
        text = bench.emit_table([_record()])
        lines = text.strip().split("\n")
        assert lines[0] == bench.CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "HS035"
        assert fields[1:4] == ["3", "4", "0"]
        assert fields[4] == "a"
        assert fields[5] == "converged"
        assert fields[6:11] == ["0", "7", "7", "9", "36"]
        assert fields[11] == "1.11111111111e-01"  # 12 significant digits
        assert fields[12] == "3.200e-09"
        assert fields[13] == "0.001234"

    def test_objective_value_keeps_twelve_significant_digits(self):
        text = bench.emit_table([_record(fv=-3455.999999999965)])
        assert "-3.45600000000e+03" in text

    def test_failed_run_rendering(self):
        rec = _record(status=engine.SolveStatus.MAX_ITERATIONS,
                      kkt_residual=math.inf, fv=float("nan"))
        text = bench.emit_table([rec])
        row = text.strip().split("\n")[1]
        assert "max_iterations" in row
        assert ",inf," in row
        assert ",nan," in row

    def test_markdown_table(self):
        text = bench.emit_table([_record()], fmt="markdown")
        lines = text.strip().split("\n")
        assert lines[0].startswith("| problem |")
        assert set(lines[1].replace("|", "").split()) == {"---"}
        assert "| HS035 |" in lines[2]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            bench.emit_table([_record()], fmt="json")


class TestReadTable:
    def test_inverts_emit_table_on_real_runs(self):
        text = bench.emit_table(bench.run_benchmark(["HS012", "HS035", "HS100"]))
        assert len(text.splitlines()) == 6  # header and five runs
        assert bench.emit_table(bench.read_table(text)) == text

    def test_inverts_emit_table_on_a_failed_row(self):
        text = bench.emit_table([_record(status=engine.SolveStatus.MAX_ITERATIONS,
                                         fv=float("nan"), kkt_residual=math.inf)])
        assert ",max_iterations," in text and ",nan,inf," in text
        (rec,) = bench.read_table(text)
        assert rec.status is engine.SolveStatus.MAX_ITERATIONS
        assert math.isnan(rec.fv) and rec.kkt_residual == math.inf
        assert bench.emit_table([rec]) == text

    def test_fields_come_back_typed(self):
        (rec,) = bench.read_table(bench.emit_table([_record()]))
        assert rec == _record(fv=1.11111111111e-01)

    def test_header_names_the_record_fields_in_order(self):
        names = [f.name for f in dataclasses.fields(bench.RunRecord)]
        assert bench.CSV_HEADER.split(",") == names

    def test_header_only_is_empty(self):
        assert bench.read_table(bench.CSV_HEADER + "\n") == []

    @pytest.mark.parametrize("text", [
        "",
        "a,b,c\n1,2,3\n",
        bench.CSV_HEADER.replace("nf0", "nf_0") + "\n",
    ])
    def test_wrong_header_rejected(self, text):
        with pytest.raises(InconsistentRecordsError, match="header"):
            bench.read_table(text)

    @pytest.mark.parametrize("old, new, match", [
        (",converged,", ",solved,", "SolveStatus"),
        (",7,9,36,", ",7.5,9,36,", "line 2"),
        (",3.200e-09,", ",small,", "line 2"),
        (",0.001234", ",0.001234,extra", "expected 14 fields, got 15"),
        (",3.200e-09,", ",", "expected 14 fields, got 13"),
    ])
    def test_malformed_rows_rejected(self, old, new, match):
        text = bench.emit_table([_record()])
        assert old in text
        with pytest.raises(InconsistentRecordsError, match=match):
            bench.read_table(text.replace(old, new))


class TestProfileMetric:
    def test_converged_runs_report_their_metric(self):
        out = bench.profile_metric([_record(ni=12)], "ni")
        assert out == {"HS035:a": 12.0}

    def test_failed_runs_report_infinity(self):
        out = bench.profile_metric(
            [_record(status=engine.SolveStatus.MAX_ITERATIONS)], "ni")
        assert out == {"HS035:a": math.inf}

    def test_zero_cost_runs_are_floored(self):
        out = bench.profile_metric([_record(cpu_seconds=0.0)], "cpu_seconds")
        assert out["HS035:a"] == 1e-9

    def test_duplicate_keys_rejected(self):
        with pytest.raises(InconsistentRecordsError):
            bench.profile_metric([_record(), _record()], "ni")

    @pytest.mark.parametrize("metric", ["fv", "kkt_residual", "nio", "problem"])
    def test_field_that_is_not_a_cost_rejected(self, metric):
        # fv can be negative and would be floored to 1e-9 without a word.
        with pytest.raises(ValueError, match="metric must be one of"):
            bench.profile_metric([_record(fv=-44.0)], metric)


class TestComputeProfiles:
    def test_hand_example_two_solvers(self):
        # Metrics A = (2, 3, 8) and B = (4, 3, 4) over three problems.
        # Ratios: A -> (1, 1, 2), B -> (2, 1, 1); grid {1, 2}; both curves
        # are 2/3 at 1 and reach 1 at 2.
        curves = bench.compute_profiles({
            "A": {"p1": 2.0, "p2": 3.0, "p3": 8.0},
            "B": {"p1": 4.0, "p2": 3.0, "p3": 4.0},
        })
        assert [c.solver for c in curves] == ["A", "B"]
        for curve in curves:
            assert [pt.tau for pt in curve.points] == [1.0, 2.0]
            assert [pt.rho for pt in curve.points] == pytest.approx([2 / 3, 1.0])

    def test_single_solver_is_flat_one(self):
        curves = bench.compute_profiles({"only": {"p1": 5.0, "p2": 7.0}})
        assert [pt.rho for pt in curves[0].points] == [1.0]
        assert [pt.tau for pt in curves[0].points] == [1.0]

    def test_strictly_faster_solver_dominates(self):
        curves = bench.compute_profiles({
            "fast": {"p1": 1.0, "p2": 1.0},
            "slow": {"p1": 2.0, "p2": 3.0},
        })
        fast = {pt.tau: pt.rho for pt in curves[0].points}
        slow = {pt.tau: pt.rho for pt in curves[1].points}
        assert fast[1.0] == 1.0
        assert slow[1.0] == 0.0
        assert slow[2.0] == 0.5
        assert slow[3.0] == 1.0

    def test_failures_keep_curve_below_one(self):
        curves = bench.compute_profiles({
            "A": {"p1": 1.0, "p2": math.inf},
            "B": {"p1": 2.0, "p2": 4.0},
        })
        a_curve = {c.solver: c for c in curves}["A"]
        assert a_curve.points[-1].rho == 0.5

    def test_problems_nobody_solves_count_for_nobody(self):
        curves = bench.compute_profiles({
            "A": {"p1": 1.0, "p2": math.inf},
            "B": {"p1": 1.0, "p2": math.inf},
        })
        for curve in curves:
            assert curve.points[-1].rho == 0.5

    def test_mismatched_problem_sets_rejected(self):
        with pytest.raises(InconsistentRecordsError):
            bench.compute_profiles({
                "A": {"p1": 1.0},
                "B": {"p2": 1.0},
            })

    def test_nonpositive_metric_rejected(self):
        with pytest.raises(InconsistentRecordsError):
            bench.compute_profiles({"A": {"p1": 0.0}})
        with pytest.raises(InconsistentRecordsError):
            bench.compute_profiles({"A": {"p1": -3.0}})

    def test_empty_solver_set_gives_no_curves(self):
        assert bench.compute_profiles({}) == []

    def test_empty_problem_set_rejected(self):
        with pytest.raises(InconsistentRecordsError):
            bench.compute_profiles({"A": {}})

    def test_curves_are_nondecreasing_and_share_the_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            data = {}
            for label in ("s1", "s2", "s3"):
                data[label] = {
                    f"p{j}": (math.inf if rng.uniform() < 0.15
                              else float(rng.integers(1, 30)))
                    for j in range(8)
                }
            curves = bench.compute_profiles(data)
            grids = [tuple(pt.tau for pt in c.points) for c in curves]
            assert len(set(grids)) == 1  # common tau grid
            assert grids[0][0] == 1.0
            for curve in curves:
                rhos = [pt.rho for pt in curve.points]
                assert all(b >= a for a, b in zip(rhos, rhos[1:]))
                assert all(0.0 <= r <= 1.0 for r in rhos)

    def test_fraction_at_tau_one_counts_ties_with_best(self):
        curves = bench.compute_profiles({
            "A": {"p1": 2.0, "p2": 5.0},
            "B": {"p1": 2.0, "p2": 10.0},
        })
        by = {c.solver: c for c in curves}
        assert by["A"].points[0].rho == 1.0   # best or tied on both
        assert by["B"].points[0].rho == 0.5   # tied on p1 only


class TestEmitProfiles:
    def test_csv_layout(self):
        curves = bench.compute_profiles({
            "A": {"p1": 2.0, "p2": 3.0, "p3": 8.0},
            "B": {"p1": 4.0, "p2": 3.0, "p3": 4.0},
        })
        text = bench.emit_profiles(curves)
        lines = text.strip().split("\n")
        assert lines[0] == "solver,tau,rho"
        assert lines[1] == "A,1,0.666666667"
        assert lines[2] == "A,2,1"
        assert lines[3] == "B,1,0.666666667"
        assert lines[4] == "B,2,1"

    def test_empty_curves_header_only(self):
        assert bench.emit_profiles([]) == "solver,tau,rho\n"


class TestEndToEnd:
    def test_profile_of_real_runs(self):
        records = bench.run_benchmark(["HS024", "HS035"], starts="a")
        metrics = bench.profile_metric(records, "ni")
        curves = bench.compute_profiles({"default": metrics})
        assert curves[0].points[-1].rho == 1.0
