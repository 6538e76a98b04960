"""Command-line interface contracts: argument handling, exit codes,
output layout, config precedence, and determinism."""

import json
import re

import pytest

from isqp import bench, cli, engine
from isqp.errors import LineSearchStall


def _run(argv):
    return cli.main(argv)


class TestRunCommand:
    def test_successful_run_exits_zero_and_prints_csv(self, capsys):
        assert _run(["run", "--problem", "HS035", "--start", "a"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == bench.CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("HS035,3,4,0,a,converged,")

    def test_comma_separated_selection(self, capsys):
        assert _run(["run", "--problem", "HS024,HS035", "--start", "a"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [row.split(",")[0] for row in lines[1:]] == ["HS024", "HS035"]

    def test_both_starts_skip_missing(self, capsys):
        # HS012 defines only the feasible start; 'both' runs just that one.
        assert _run(["run", "--problem", "HS012"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].split(",")[4] == "a"

    def test_unknown_problem_exits_one(self, capsys):
        assert _run(["run", "--problem", "HS999"]) == 1
        assert "unknown problem" in capsys.readouterr().err

    def test_repeated_problem_exits_one(self, capsys):
        # Two rows for one (problem, start) would make the table unusable
        # by the profile command.
        assert _run(["run", "--problem", "HS035,HS024,HS035", "--start", "a"]) == 1
        captured = capsys.readouterr()
        assert "--problem names HS035 more than once" in captured.err
        assert captured.out == ""

    def test_empty_selection_exits_one(self):
        assert _run(["run", "--problem", ",,"]) == 1

    def test_start_without_point_exits_one(self, capsys):
        assert _run(["run", "--problem", "HS012", "--start", "b"]) == 1
        assert "no runs" in capsys.readouterr().err

    def test_failed_run_exits_two(self, capsys):
        assert _run(["run", "--problem", "HS100", "--start", "a",
                     "--max-iter", "2"]) == 2
        out = capsys.readouterr().out
        assert "max_iterations" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "results.csv"
        assert _run(["run", "--problem", "HS035", "--start", "a",
                     "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        text = target.read_text(encoding="utf-8")
        assert text.startswith(bench.CSV_HEADER + "\n")

    def test_markdown_format(self, capsys):
        assert _run(["run", "--problem", "HS035", "--start", "a",
                     "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| problem |")
        assert "| HS035 |" in out

    def test_custom_start_point(self, capsys):
        assert _run(["run", "--problem", "HS035", "--x0", "0.6,0.6,0.6"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert row.split(",")[4] == "custom"

    def test_custom_start_needs_single_problem(self, capsys):
        assert _run(["run", "--problem", "HS035,HS024", "--x0", "1,1,1"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_custom_start_wrong_length(self, capsys):
        assert _run(["run", "--problem", "HS035", "--x0", "1,1"]) == 1
        assert "components" in capsys.readouterr().err

    def test_custom_start_not_numeric(self):
        assert _run(["run", "--problem", "HS035", "--x0", "1,two,3"]) == 1

    @pytest.mark.parametrize("x0, component, value", [
        ("nan,1,1", 0, "nan"), ("1,1e999,1", 1, "inf"), ("1,1,-inf", 2, "-inf")])
    def test_custom_start_not_finite(self, capsys, x0, component, value):
        # A non-finite start is the caller's error, not an evaluation
        # failure of the problem.
        assert _run(["run", "--problem", "HS035", "--x0", x0]) == 1
        err = capsys.readouterr().err
        assert f"--x0 component {component} is not finite: {value}" in err

    def test_invalid_parameter_value_exits_one(self, capsys):
        assert _run(["run", "--problem", "HS035", "--alpha", "1.5"]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_negative_kkt_tolerance_exits_one(self, capsys):
        # No residual passes a negative bound, so no run could converge.
        assert _run(["run", "--problem", "HS035", "--kkt-tol", "-1"]) == 1
        assert "kkt_tol" in capsys.readouterr().err

    def test_nan_kkt_tolerance_exits_one(self, capsys):
        # No residual compares below NaN, so no run could converge.
        assert _run(["run", "--problem", "HS035", "--kkt-tol", "nan"]) == 1
        assert "kkt_tol" in capsys.readouterr().err

    def test_trace_goes_to_stderr(self, capsys):
        assert _run(["run", "--problem", "HS035", "--start", "a", "--trace"]) == 0
        captured = capsys.readouterr()
        assert "k=0" in captured.err
        assert "converged" in captured.err
        assert captured.out.startswith(bench.CSV_HEADER)

    def test_custom_start_trace_ends_with_the_status(self, capsys):
        assert _run(["run", "--problem", "HS035", "--x0", "0.6,0.6,0.6",
                     "--trace"]) == 0
        err = capsys.readouterr().err.strip().split("\n")
        assert err[0] == "HS035 start=custom"
        assert err[1].startswith("  k=0 ")
        assert re.fullmatch(r"  -> converged: fv=\S+ ni=\d+", err[-1])

    def test_trace_summary_carries_the_stop_message(self, capsys, monkeypatch):
        def stalled(*args):
            raise LineSearchStall("arc search gave up")

        monkeypatch.setattr(engine, "arc_search", stalled)
        assert _run(["run", "--problem", "HS035", "--start", "a", "--trace"]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().split("\n")
        assert err[0] == "HS035 start=a"
        assert re.fullmatch(r"  -> line_search_stall: fv=\S+ ni=0 \(arc search gave up\)",
                            err[-1])
        assert captured.out.startswith(bench.CSV_HEADER + "\n")

    def test_seed_flag_is_rejected(self, capsys):
        # The solver is deterministic, so there is no seed to set.
        assert _run(["run", "--problem", "HS035", "--start", "a",
                     "--seed", "7"]) == 1
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    def test_tolerance_flag_applies(self, capsys):
        # A loose tolerance still converges on an easy problem.
        assert _run(["run", "--problem", "HS035", "--start", "a",
                     "--tol", "1e-4"]) == 0


class TestConfig:
    def test_config_overrides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 1}), encoding="utf-8")
        assert _run(["run", "--problem", "HS035", "--start", "a",
                     "--config", str(cfg)]) == 2

    def test_flags_beat_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 1}), encoding="utf-8")
        assert _run(["run", "--problem", "HS035", "--start", "a",
                     "--config", str(cfg), "--max-iter", "500"]) == 0

    @pytest.mark.parametrize("text", ["2.5", "1e999", "NaN"])
    def test_non_integral_iteration_budget_exits_one(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"max_iter": %s}' % text, encoding="utf-8")
        assert _run(["run", "--problem", "HS035", "--start", "a",
                     "--config", str(cfg)]) == 1
        assert "max_iter" in capsys.readouterr().err

    def test_integral_float_iteration_budget_is_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 1.0}), encoding="utf-8")
        assert _run(["run", "--problem", "HS035", "--start", "a",
                     "--config", str(cfg)]) == 2

    def test_config_can_set_any_solver_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 1e-5, "alpha_hat": 0.4, "phi_tol": 1e-12}),
                       encoding="utf-8")
        assert _run(["run", "--problem", "HS035", "--start", "a",
                     "--config", str(cfg)]) == 0

    def test_paper_constant_is_neither_flag_nor_key(self, tmp_path, capsys):
        # The paper's fixed parameters are engine constants, not options.
        assert _run(["run", "--problem", "HS035", "--tau", "2.2"]) == 1
        assert "unrecognized arguments: --tau 2.2" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta": 0.5}), encoding="utf-8")
        assert _run(["run", "--problem", "HS035", "--config", str(cfg)]) == 1
        assert "unknown key 'eta'" in capsys.readouterr().err

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert _run(["run", "--problem", "HS035",
                     "--config", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert _run(["run", "--problem", "HS035", "--config", str(cfg)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"momentum": 0.9}), encoding="utf-8")
        assert _run(["run", "--problem", "HS035", "--config", str(cfg)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_non_numeric_value_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": "tight"}), encoding="utf-8")
        assert _run(["run", "--problem", "HS035", "--config", str(cfg)]) == 1
        assert "must be a number" in capsys.readouterr().err

    def test_help_names_every_config_key(self, capsys):
        with pytest.raises(SystemExit):
            _run(["run", "--help"])
        out = capsys.readouterr().out
        for key in cli._OPTION_KEYS:
            assert f"--{key.replace('_', '-')} " in out
        assert sorted(cli._OPTION_KEYS) == [
            "alpha", "alpha_hat", "kkt_tol", "max_iter", "phi_tol", "rho", "tol"]

    def test_flag_and_config_set_the_same_value(self, tmp_path):
        # HS044-b takes a different path under the paper's rho = 2 than
        # under the default, so the two tables match only if both routes
        # set it.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 2}), encoding="utf-8")
        tables = {}
        for tag, extra in (("default", []), ("flag", ["--rho", "2"]),
                           ("config", ["--config", str(cfg)])):
            path = tmp_path / f"{tag}.csv"
            assert _run(["run", "--problem", "HS044", "--start", "b",
                         "--out", str(path), *extra]) == 0
            rows = path.read_text(encoding="utf-8").strip().split("\n")
            tables[tag] = [row.rsplit(",", 1)[0] for row in rows]  # drop cpu_seconds
        assert tables["flag"] == tables["config"] != tables["default"]

    def test_non_object_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        assert _run(["run", "--problem", "HS035", "--config", str(cfg)]) == 1


class TestListCommand:
    def test_lists_every_problem(self, capsys):
        assert _run(["list"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split()[:4] == ["name", "n", "m1", "m2"]
        assert len(lines) == 17  # header + 16 problems
        assert lines[1].startswith("HS012")
        assert lines[-1].startswith("HS100")


class TestProfileCommand:
    def _write_results(self, tmp_path, name, problems, options=None):
        path = tmp_path / f"{name}.csv"
        args = ["run", "--problem", ",".join(problems), "--start", "a",
                "--out", str(path)]
        if options:
            args.extend(options)
        assert _run(args) in (0, 2)
        return path

    def test_end_to_end(self, tmp_path, capsys):
        fast = self._write_results(tmp_path, "fast", ["HS024", "HS035"])
        slow = self._write_results(tmp_path, "slow", ["HS024", "HS035"],
                                   ["--tol", "1e-8"])
        assert _run(["profile", str(fast), str(slow)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "solver,tau,rho"
        solvers = {row.split(",")[0] for row in lines[1:]}
        assert solvers == {"fast", "slow"}  # labels come from file stems
        for row in lines[1:]:
            _, tau, rho = row.split(",")
            assert float(tau) >= 1.0
            assert 0.0 <= float(rho) <= 1.0

    def test_profile_out_file(self, tmp_path):
        res = self._write_results(tmp_path, "only", ["HS035"])
        target = tmp_path / "profile.csv"
        assert _run(["profile", str(res), "--out", str(target)]) == 0
        assert target.read_text(encoding="utf-8").startswith("solver,tau,rho\n")

    def test_metric_selection(self, tmp_path, capsys):
        res = self._write_results(tmp_path, "only", ["HS035"])
        assert _run(["profile", str(res), "--metric", "nf0"]) == 0

    def test_unknown_metric_exits_one(self, tmp_path):
        res = self._write_results(tmp_path, "only", ["HS035"])
        assert _run(["profile", str(res), "--metric", "bogus"]) == 1

    def test_wrong_header_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        assert _run(["profile", str(bad)]) == 1
        assert "header" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path):
        assert _run(["profile", str(tmp_path / "nope.csv")]) == 1

    def test_empty_results_exit_one(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(bench.CSV_HEADER + "\n", encoding="utf-8")
        assert _run(["profile", str(empty)]) == 1

    def test_duplicate_labels_exit_one(self, tmp_path, capsys):
        first = tmp_path / "one"
        second = tmp_path / "two"
        first.mkdir()
        second.mkdir()
        a = self._write_results(first, "results", ["HS035"])
        b = self._write_results(second, "results", ["HS035"])
        assert _run(["profile", str(a), str(b)]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_mismatched_problem_sets_exit_one(self, tmp_path, capsys):
        a = self._write_results(tmp_path, "a", ["HS035"])
        b = self._write_results(tmp_path, "b", ["HS024"])
        assert _run(["profile", str(a), str(b)]) == 1

    def test_duplicate_rows_exit_one(self, tmp_path, capsys):
        res = self._write_results(tmp_path, "dup", ["HS024", "HS035"])
        text = res.read_text(encoding="utf-8")
        row = next(r for r in text.split("\n") if r.startswith("HS035,"))
        res.write_text(text + row.replace(",converged,", ",max_iterations,") + "\n",
                       encoding="utf-8")
        assert _run(["profile", str(res)]) == 1
        assert "duplicate record for 'HS035:a'" in capsys.readouterr().err

    def test_unknown_status_exits_one(self, tmp_path, capsys):
        res = self._write_results(tmp_path, "odd", ["HS035"])
        text = res.read_text(encoding="utf-8")
        res.write_text(text.replace(",converged,", ",solved,"), encoding="utf-8")
        assert _run(["profile", str(res)]) == 1
        assert "'solved' is not a valid SolveStatus" in capsys.readouterr().err

    def test_failed_rows_profile_as_failures(self, tmp_path, capsys):
        ok = self._write_results(tmp_path, "ok", ["HS100"])
        capped = self._write_results(tmp_path, "capped", ["HS100"],
                                     ["--max-iter", "2"])
        assert _run(["profile", str(ok), str(capped)]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        capped_rhos = [float(r.split(",")[2]) for r in rows
                       if r.startswith("capped,")]
        assert max(capped_rhos) == 0.0  # the failed run never counts


class TestUsage:
    def test_no_subcommand_exits_one(self):
        assert _run([]) == 1

    def test_unknown_subcommand_exits_one(self):
        assert _run(["frobnicate"]) == 1

    def test_unknown_flag_exits_one(self):
        assert _run(["run", "--problem", "HS035", "--does-not-exist", "1"]) == 1


class TestDeterminism:
    def test_repeated_runs_differ_only_in_timing(self, tmp_path):
        paths = []
        for tag in ("first", "second"):
            path = tmp_path / f"{tag}.csv"
            assert _run(["run", "--problem", "HS024,HS035,HS044",
                         "--out", str(path)]) == 0
            paths.append(path)

        def stripped(path):
            rows = path.read_text(encoding="utf-8").strip().split("\n")
            return [",".join(row.split(",")[:-1]) for row in rows]

        assert stripped(paths[0]) == stripped(paths[1])
