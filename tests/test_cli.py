"""Command-line interface contracts: argument handling, exit codes,
output layout, solver flags, and determinism.

Exit codes: 0 when every run converged, 1 when some run did not, 2 on a
usage or input error.  A test's name states the code its asserts carry."""

import os
import re
import subprocess
import sys
import types

import pytest

from isqp import bench, cli, engine
from isqp.errors import LineSearchStall

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(argv):
    """Exit code of ``isqp argv``: what main returns, or the code of the
    SystemExit that argparse raises on a usage or input error."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


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

    def test_unknown_problem_exits_two(self, capsys):
        assert _run(["run", "--problem", "HS999"]) == 2
        assert "unknown problem" in capsys.readouterr().err

    def test_repeated_problem_exits_two(self, capsys):
        # Two rows for one (problem, start) would make the table unusable
        # by the profile command.
        assert _run(["run", "--problem", "HS035,HS024,HS035", "--start", "a"]) == 2
        captured = capsys.readouterr()
        assert "--problem names HS035 more than once" in captured.err
        assert captured.out == ""

    def test_empty_selection_exits_two(self):
        assert _run(["run", "--problem", ",,"]) == 2

    def test_start_without_point_exits_two(self, capsys):
        assert _run(["run", "--problem", "HS012", "--start", "b"]) == 2
        assert "no runs" in capsys.readouterr().err

    def test_failed_run_exits_one(self, capsys):
        assert _run(["run", "--problem", "HS100", "--start", "a",
                     "--max-iter", "2"]) == 1
        out = capsys.readouterr().out
        assert "max_iterations" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "results.csv"
        assert _run(["run", "--problem", "HS035", "--start", "a",
                     "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        text = target.read_text(encoding="utf-8")
        assert text.startswith(bench.CSV_HEADER + "\n")

    @pytest.mark.parametrize("target", ["", "missing/results.csv"],
                             ids=["directory", "missing-parent"])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, target):
        # Refused as an input error naming the path, with nothing on stdout.
        out = str(tmp_path / target)
        assert _run(["run", "--problem", "HS035", "--start", "a", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"isqp: error: cannot write {out!r}" in captured.err

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

    @pytest.mark.parametrize("start", ["a", "b", "both"])
    def test_custom_start_excludes_start_flag(self, capsys, start):
        # --x0 replaces the problem's starts, so a --start beside it would
        # be ignored; it is refused instead.
        assert _run(["run", "--problem", "HS035", "--x0", "1,1,1", "--start", start]) == 2
        captured = capsys.readouterr()
        assert "--start cannot be combined with --x0" in captured.err
        assert captured.out == ""

    def test_custom_start_needs_single_problem(self, capsys):
        assert _run(["run", "--problem", "HS035,HS024", "--x0", "1,1,1"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_custom_start_wrong_length(self, capsys):
        assert _run(["run", "--problem", "HS035", "--x0", "1,1"]) == 2
        assert "components" in capsys.readouterr().err

    def test_custom_start_not_numeric(self):
        assert _run(["run", "--problem", "HS035", "--x0", "1,two,3"]) == 2

    @pytest.mark.parametrize("x0, component, value", [
        ("nan,1,1", 0, "nan"), ("1,1e999,1", 1, "inf"), ("1,1,-inf", 2, "-inf")])
    def test_custom_start_not_finite(self, capsys, x0, component, value):
        # A non-finite start is the caller's error, not an evaluation
        # failure of the problem.
        assert _run(["run", "--problem", "HS035", "--x0", x0]) == 2
        err = capsys.readouterr().err
        assert f"--x0 component {component} is not finite: {value}" in err

    def test_invalid_parameter_value_exits_two(self, capsys):
        assert _run(["run", "--problem", "HS035", "--rho", "0.5"]) == 2
        assert "rho must be finite and exceed 1, got 0.5" in capsys.readouterr().err

    def test_negative_kkt_tolerance_exits_two(self, capsys):
        # No residual passes a negative bound, so no run could converge.
        assert _run(["run", "--problem", "HS035", "--kkt-tol", "-1"]) == 2
        assert "kkt_tol" in capsys.readouterr().err

    def test_nan_kkt_tolerance_exits_two(self, capsys):
        # No residual compares below NaN, so no run could converge.
        assert _run(["run", "--problem", "HS035", "--kkt-tol", "nan"]) == 2
        assert "kkt_tol" in capsys.readouterr().err

    def test_infinite_reward_exits_two(self, capsys):
        # At phi = 0 the reward inf * 0**theta is NaN, which no merit test rejects.
        assert _run(["run", "--problem", "HS035", "--rho", "inf"]) == 2
        assert "rho" in capsys.readouterr().err

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
        assert _run(["run", "--problem", "HS035", "--start", "a", "--trace"]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().split("\n")
        assert err[0] == "HS035 start=a"
        assert re.fullmatch(r"  -> line_search_stall: fv=\S+ ni=0 \(arc search gave up\)",
                            err[-1])
        assert captured.out.startswith(bench.CSV_HEADER + "\n")

    def test_seed_flag_is_rejected(self, capsys):
        # The solver is deterministic, so there is no seed to set.
        assert _run(["run", "--problem", "HS035", "--start", "a",
                     "--seed", "7"]) == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    def test_tolerance_flag_applies(self, capsys):
        # A loose certificate bound still converges on an easy problem, and
        # sooner: the run stops at its first feasible iterate that meets it.
        ni = {}
        for bound in (None, "1e-4"):
            extra = [] if bound is None else ["--kkt-tol", bound]
            assert _run(["run", "--problem", "HS035", "--start", "a", *extra]) == 0
            row = capsys.readouterr().out.strip().split("\n")[1].split(",")
            ni[bound] = int(row[8])
            assert float(row[12]) <= float(bound or engine.SolverOptions().kkt_tol)
        assert ni["1e-4"] < ni[None]

    def test_direction_tolerance_is_neither_flag_nor_key(self, capsys):
        # The run stops on the KKT certificate alone; no |d0| test to set.
        assert _run(["run", "--problem", "HS035", "--start", "a", "--tol", "1e-4"]) == 2
        assert "unrecognized arguments: --tol 1e-4" in capsys.readouterr().err


class TestConfig:
    """Solver configuration: ``isqp run`` sets each SolverOptions field
    through one flag of the same name, and has no other way to set one."""

    def test_config_overrides_defaults(self, capsys):
        assert _run(["run", "--problem", "HS035", "--start", "a",
                     "--max-iter", "1"]) == 1

    @pytest.mark.parametrize("text", ["2.5", "1e999", "NaN"])
    def test_non_integral_iteration_budget_exits_two(self, capsys, text):
        assert _run(["run", "--problem", "HS035", "--start", "a",
                     "--max-iter", text]) == 2
        assert "--max-iter" in capsys.readouterr().err

    def test_every_flag_sets_its_field(self):
        args = cli._build_parser().parse_args([
            "run", "--rho", "100", "--kkt-tol", "1e-8", "--max-iter", "400", "--trace"])
        assert cli._merge_options(args) == engine.SolverOptions(
            rho=100.0, kkt_tol=1e-8, max_iter=400)

    def test_paper_constant_is_neither_flag_nor_key(self, capsys):
        # The paper's fixed parameters are engine constants, not options.
        for flag, value in (("--tau", "2.2"), ("--alpha", "0.4")):
            assert _run(["run", "--problem", "HS035", flag, value]) == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--phi-tol", "0"], ["--config", "f.json"]],
                             ids=["phi-tol", "config"])
    def test_roundoff_floor_and_config_file_are_not_flags(self, capsys, argv):
        # The floor is the constant model.PHI_TOL, and the flags are the only
        # way to configure a run.
        assert _run(["run", "--problem", "HS035", *argv]) == 2
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err

    def test_non_numeric_value_exits_two(self, capsys):
        assert _run(["run", "--problem", "HS035", "--kkt-tol", "tight"]) == 2
        assert "--kkt-tol" in capsys.readouterr().err

    def test_help_names_every_solver_flag(self, capsys):
        assert _run(["run", "--help"]) == 0
        out = capsys.readouterr().out
        for key in cli._OPTION_KEYS:
            assert f"--{key.replace('_', '-')} " in out
        assert sorted(cli._OPTION_KEYS) == ["kkt_tol", "max_iter", "rho"]

    def test_flag_and_library_option_set_the_same_value(self, tmp_path):
        # HS044-b takes a different path under the paper's rho = 2 than
        # under the default, so the tables match only if the flag reaches
        # the solver.
        tables = {}
        for tag, extra in (("default", []), ("flag", ["--rho", "2"])):
            path = tmp_path / f"{tag}.csv"
            assert _run(["run", "--problem", "HS044", "--start", "b",
                         "--out", str(path), *extra]) == 0
            tables[tag] = path.read_text(encoding="utf-8")
        (entry, start, x0), = bench.select_runs(["HS044"], "b")
        report = engine.solve(entry.problem, x0, engine.SolverOptions(rho=2.0))
        tables["library"] = bench.emit_table([bench.make_record(entry, start, report)])
        rows = {tag: [row.rsplit(",", 1)[0] for row in text.strip().split("\n")]
                for tag, text in tables.items()}  # drop cpu_seconds
        assert rows["flag"] == rows["library"] != rows["default"]


class TestListCommand:
    def test_lists_every_problem(self, capsys):
        assert _run(["list"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split()[:4] == ["name", "n", "m1", "m2"]
        assert len(lines) == 17  # header + 16 problems
        assert lines[1].startswith("HS012")
        assert lines[-1].startswith("HS100")

    def test_writes_the_table_in_one_call(self, monkeypatch):
        # Written in one piece, so a reader that stops after the first line
        # (isqp list | head -1) cannot break a later write.
        writes = []
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
        assert _run(["list"]) == 0
        assert len(writes) == 1 and writes[0].count("\n") == 17


class TestProfileCommand:
    def _write_results(self, tmp_path, name, problems, options=None):
        path = tmp_path / f"{name}.csv"
        args = ["run", "--problem", ",".join(problems), "--start", "a",
                "--out", str(path)]
        if options:
            args.extend(options)
        assert _run(args) in (0, 1)
        return path

    def test_end_to_end(self, tmp_path, capsys):
        fast = self._write_results(tmp_path, "fast", ["HS024", "HS035"])
        slow = self._write_results(tmp_path, "slow", ["HS024", "HS035"],
                                   ["--kkt-tol", "1e-9"])
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

    def test_unknown_metric_exits_two(self, tmp_path):
        res = self._write_results(tmp_path, "only", ["HS035"])
        assert _run(["profile", str(res), "--metric", "bogus"]) == 2

    def test_wrong_header_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        assert _run(["profile", str(bad)]) == 2
        assert "header" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert _run(["profile", str(tmp_path / "nope.csv")]) == 2

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        binary = tmp_path / "bin.csv"
        binary.write_bytes(b"\xff\xfe\x00bad")
        assert _run(["profile", str(binary)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"isqp: error: cannot read {str(binary)!r}: 'utf-8' codec" in captured.err

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        res = self._write_results(tmp_path, "only", ["HS035"])
        assert _run(["profile", str(res), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"isqp: error: cannot write {str(tmp_path)!r}" in captured.err

    def test_empty_results_exit_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(bench.CSV_HEADER + "\n", encoding="utf-8")
        assert _run(["profile", str(empty)]) == 2

    def test_duplicate_labels_exit_two(self, tmp_path, capsys):
        first = tmp_path / "one"
        second = tmp_path / "two"
        first.mkdir()
        second.mkdir()
        a = self._write_results(first, "results", ["HS035"])
        b = self._write_results(second, "results", ["HS035"])
        assert _run(["profile", str(a), str(b)]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_mismatched_problem_sets_exit_two(self, tmp_path, capsys):
        a = self._write_results(tmp_path, "a", ["HS035"])
        b = self._write_results(tmp_path, "b", ["HS024"])
        assert _run(["profile", str(a), str(b)]) == 2

    def test_duplicate_rows_exit_two(self, tmp_path, capsys):
        res = self._write_results(tmp_path, "dup", ["HS024", "HS035"])
        text = res.read_text(encoding="utf-8")
        row = next(r for r in text.split("\n") if r.startswith("HS035,"))
        res.write_text(text + row.replace(",converged,", ",max_iterations,") + "\n",
                       encoding="utf-8")
        assert _run(["profile", str(res)]) == 2
        assert "duplicate record for 'HS035:a'" in capsys.readouterr().err

    def test_unknown_status_exits_two(self, tmp_path, capsys):
        res = self._write_results(tmp_path, "odd", ["HS035"])
        text = res.read_text(encoding="utf-8")
        res.write_text(text.replace(",converged,", ",solved,"), encoding="utf-8")
        assert _run(["profile", str(res)]) == 2
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
    def test_no_subcommand_exits_two(self):
        assert _run([]) == 2

    def test_unknown_subcommand_exits_two(self):
        assert _run(["frobnicate"]) == 2

    def test_unknown_flag_exits_two(self):
        assert _run(["run", "--problem", "HS035", "--does-not-exist", "1"]) == 2


class TestEntryPoints:
    """isqp and the repository's scripts share argparse's usage contract:
    an unknown flag exits 2 with nothing on stdout."""

    @pytest.mark.parametrize("command", [
        ["-m", "isqp.cli", "run"], ["tools/fingerprint_runs.py"],
        ["tools/calibrate_rho.py"], ["perfbench/run.py"]],
        ids=["isqp", "fingerprint_runs", "calibrate_rho", "perfbench"])
    def test_unknown_flag_exits_two(self, command):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run([sys.executable, *command, "--no-such-flag"], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_runtime_imports_only_numpy_and_the_standard_library(self):
        # The runtime is numpy-only.  Other packages may be installed beside
        # it, so only a fresh interpreter shows a stray import; modules that
        # the interpreter loads at start-up are not the package's.
        script = (
            "import sys\n"
            "before = {name.partition('.')[0] for name in sys.modules}\n"
            "import isqp, isqp.cli\n"
            "print(*sorted({name.partition('.')[0] for name in sys.modules} - before))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert {"isqp", "numpy"} <= loaded
        assert loaded - set(sys.stdlib_module_names) == {"isqp", "numpy"}


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
