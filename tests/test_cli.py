"""Command-line interface: formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tsvsim import acceptance, cli, dsl, hilbert as hb, scenarios as sc
from tsvsim.scenarios import ScenarioResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunTable:
    def test_three_boxes_rows(self, capsys):
        code, out, _ = run_cli(capsys, "run", "three_boxes")
        assert code == 0
        assert "# scenario=three_boxes seed=42" in out
        assert "P1" in out and "1.000000000" in out
        assert "-1.000000000" in out  # P3

    def test_empty_sections_omitted(self, capsys):
        _, out, _ = run_cli(capsys, "run", "three_boxes")
        assert "trial_stats" not in out
        assert "schmidt_ranks" not in out

    def test_zero_weak_value_renders_nine_decimals(self, capsys):
        _, out, _ = run_cli(capsys, "run", "hardy")
        assert "0.000000000" in out


class TestRunCsv:
    def test_oblivion_rank_rows(self, capsys):
        code, out, _ = run_cli(capsys, "run", "oblivion", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert "# schmidt_ranks" in lines
        start = lines.index("# schmidt_ranks")
        assert lines[start + 1] == "epoch,rank"
        assert lines[start + 2:start + 5] == ["t0,1", "t1,2", "t2,1"]

    def test_sweep_rows_approach_negative_one(self, capsys):
        code, out, _ = run_cli(capsys, "run", "hardy", "--g-sweep", "0.01:0.2:8",
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        rows = lines[lines.index("g,shift_over_g") + 1:]
        assert len(rows) == 8
        values = [float(r.split(",")[1]) for r in rows]
        assert abs(values[0] + 1) < abs(values[-1] + 1)  # smaller g, closer to -1


class TestRunJsonl:
    def test_three_boxes_record(self, capsys):
        code, out, _ = run_cli(capsys, "run", "three_boxes", "--format", "jsonl")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["kind"] == "meta" and records[0]["re"] == 42.0
        p3 = next(r for r in records if r["name"] == "P3")
        assert p3 == {"scenario": "three_boxes", "name": "P3",
                      "kind": "weak_value", "re": -1.0, "im": 0.0}

    @pytest.mark.parametrize("sweep", ["0.01:0.2:5", "0.005:0.2:9:log"])
    def test_three_path_sweep_equals_three_boxes(self, capsys, sweep):
        # same selections and third-path projector, only the factor names differ
        rows = {}
        for scenario in ("three_boxes", "three_path_photon"):
            code, out, _ = run_cli(capsys, "run", scenario, "--g-sweep", sweep,
                                   "--format", "jsonl")
            assert code == 0
            records = [json.loads(line) for line in out.splitlines()]
            rows[scenario] = [(r["name"], r["re"], r["im"]) for r in records
                              if r["kind"] == "g_sweep"]
        assert len(rows["three_boxes"]) == int(sweep.split(":")[2])
        assert rows["three_path_photon"] == rows["three_boxes"]


class TestEmitGolden:
    """emit's exact bytes for one result with every section: a weak value
    with a -0.0 part, int ranks, a trial stat that rounds to -0, a sweep."""

    RESULT = ScenarioResult(
        scenario_id="golden", states_by_epoch={},
        probabilities={"p_half": 0.5, "p_third": 1 / 3},
        weak_values={"P1": complex(-0.0, 1.0), "P3": complex(-1.0, -0.0)},
        schmidt_ranks={"t0": 1, "t1": 2},
        trial_stats={"shift": -2.5e-10, "count": 12.0})
    SWEEP = [(0.01, -0.9999), (0.2, -0.25)]
    TABLE = (
        "# scenario=golden seed=7 trials=100\n"
        "{b}probabilities{e}\n  p_half   0.500000000\n  p_third  0.333333333\n"
        "{b}weak_values{e}\n  P1  0.000000000  1.000000000i\n"
        "  P3  -1.000000000  0.000000000i\n"
        "{b}schmidt_ranks{e}\n  t0  1\n  t1  2\n"
        "{b}trial_stats{e}\n  shift  -0.000000000\n  count  12.000000000\n"
        "{b}g_sweep{e}\n  0.010000000  -0.999900000\n  0.200000000  -0.250000000\n")
    CSV = (
        "# scenario=golden seed=7 trials=100\n"
        "# probabilities\nname,value\np_half,0.500000000\np_third,0.333333333\n"
        "# weak_values\nname,re,im\nP1,0.000000000,1.000000000\n"
        "P3,-1.000000000,0.000000000\n"
        "# schmidt_ranks\nepoch,rank\nt0,1\nt1,2\n"
        "# trial_stats\nname,value\nshift,-0.000000000\ncount,12.000000000\n"
        "# g_sweep\ng,shift_over_g\n0.010000000,-0.999900000\n0.200000000,-0.250000000\n")
    JSONL = "".join(
        f'{{"scenario": "golden", "name": {name}, "kind": {kind}, "re": {re}, "im": {im}}}\n'
        for name, kind, re, im in (
            ('"seed"', '"meta"', "7.0", "0.0"),
            ('"p_half"', '"probability"', "0.5", "0.0"),
            ('"p_third"', '"probability"', "0.3333333333333333", "0.0"),
            ('"P1"', '"weak_value"', "-0.0", "1.0"),
            ('"P3"', '"weak_value"', "-1.0", "-0.0"),
            ('"t0"', '"schmidt_rank"', "1.0", "0.0"),
            ('"t1"', '"schmidt_rank"', "2.0", "0.0"),
            ('"shift"', '"trial_stat"', "-2.5e-10", "0.0"),
            ('"count"', '"trial_stat"', "12.0", "0.0"),
            ('"g=0.010000000"', '"g_sweep"', "-0.9999", "0.0"),
            ('"g=0.200000000"', '"g_sweep"', "-0.25", "0.0"),
        ))

    @pytest.mark.parametrize("fmt,color", [
        ("table", False), ("table", True), ("csv", False), ("jsonl", False)])
    def test_every_section(self, fmt, color):
        want = {
            "table": self.TABLE.format(**({"b": "\x1b[1m", "e": "\x1b[0m"} if color
                                          else {"b": "", "e": ""})),
            "csv": self.CSV,
            "jsonl": self.JSONL,
        }[fmt]
        got = cli.emit(self.RESULT, fmt, 7, 100, sweep=self.SWEEP, color=color)
        assert got == want.encode()

    def test_sweep_rows_are_not_aligned(self):
        got = cli.emit(ScenarioResult("golden", {}, {}), "table", 1, 1,
                       sweep=[(0.5, 1.0), (10.5, -1.0), (0.5, 1.0)])
        assert got == (b"# scenario=golden seed=1 trials=1\ng_sweep\n"
                       b"  0.500000000  1.000000000\n  10.500000000  -1.000000000\n"
                       b"  0.500000000  1.000000000\n")


class TestDeterminism:
    def test_identical_bytes_for_identical_args(self, capsys):
        _, out1, _ = run_cli(capsys, "run", "four_mirror", "--trials", "500",
                             "--seed", "7", "--format", "csv")
        _, out2, _ = run_cli(capsys, "run", "four_mirror", "--trials", "500",
                             "--seed", "7", "--format", "csv")
        assert out1 == out2

    def test_seed_only_moves_trial_statistics(self, capsys):
        _, out1, _ = run_cli(capsys, "run", "four_mirror", "--trials", "500",
                             "--seed", "1", "--format", "csv")
        _, out2, _ = run_cli(capsys, "run", "four_mirror", "--trials", "500",
                             "--seed", "2", "--format", "csv")

        def sections(text):
            exact, stats = [], []
            bucket = exact
            for line in text.splitlines():
                if line == "# trial_stats":
                    bucket = stats
                bucket.append(line)
            return exact, stats

        exact1, stats1 = sections(out1)
        exact2, stats2 = sections(out2)
        assert [l for l in exact1 if "seed=" not in l] == \
            [l for l in exact2 if "seed=" not in l]
        assert stats1 != stats2


class TestRepeatedCalls:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_later_call_matches_fresh_process(self, capsys):
        # options given in one call must not reach the next through the shared parser
        assert run_cli(capsys, "run", "three_path_photon", "--option", "recombine_two",
                       "--g", "0.1")[0] == 0
        assert run_cli(capsys, "run", "three_path_photon", "--format", "xml")[0] == 2
        assert run_cli(capsys, "run", "hardy", "--g-sweep", "0.01:0.2:5")[0] == 0
        argv = ["run", "three_path_photon", "--format", "csv"]
        code, out, err = run_cli(capsys, *argv)
        src = str(Path(cli.__file__).parents[1])
        fresh = subprocess.run([sys.executable, "-m", "tsvsim.cli", *argv], capture_output=True,
                               env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert (code, err) == (fresh.returncode, fresh.stderr.decode()) == (0, "")
        assert out.encode() == fresh.stdout


class TestExitCodes:
    def test_unknown_scenario(self, capsys):
        code, _, err = run_cli(capsys, "run", "not_a_scenario")
        assert code == 2
        assert "unknown scenario" in err

    def test_bad_trials(self, capsys):
        code, _, _ = run_cli(capsys, "run", "four_mirror", "--trials", "0")
        assert code == 2

    def test_sweep_without_pointer_context(self, capsys):
        code, _, err = run_cli(capsys, "run", "oblivion", "--g-sweep", "0.01:0.1:3")
        assert code == 2
        assert "sweep" in err

    def test_sweep_refused_before_running(self, capsys, monkeypatch):
        def must_not_run(**_):
            raise AssertionError("four_mirror ran before the sweep was refused")

        monkeypatch.setattr(sc, "run_four_mirror", must_not_run)
        code, out, err = run_cli(capsys, "run", "four_mirror", "--g-sweep", "0.01:0.1:3")
        assert (code, out) == (2, "")
        assert err == "error: scenario 'four_mirror' has no pointer context to sweep\n"

    def test_empty_out_refused_before_running(self, capsys, monkeypatch):
        def must_not_run():
            raise AssertionError("three_boxes ran before the empty --out was refused")

        monkeypatch.setitem(sc.SCENARIOS, "three_boxes", sc.ScenarioInfo(must_not_run, ""))
        code, out, err = run_cli(capsys, "run", "three_boxes", "--out", "")
        assert (code, out, err) == (2, "", "error: --out needs a path\n")

    def test_bad_sweep_spec(self, capsys):
        code, _, _ = run_cli(capsys, "run", "hardy", "--g-sweep", "nope")
        assert code == 2

    def test_bad_sweep_suffix(self, capsys):
        code, out, err = run_cli(capsys, "run", "hardy", "--g-sweep", "0.01:0.2:3:lin")
        assert (code, out, err) == (2, "", "error: sweep suffix must be 'log'\n")

    def test_scn_diagnostics_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "broken.scn"
        bad.write_text("FACTORS\n  a x\n")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 3
        assert "line 2" in err

    def test_orthogonal_selection_exit_3(self, capsys, tmp_path):
        scn = tmp_path / "orth.scn"
        scn.write_text("FACTORS\n  a: x y\nINITIAL\n  x : 1\n"
                       "POSTSELECT\n  y : 1\nOBSERVABLES\n  P = proj(a=x)\n")
        code, _, err = run_cli(capsys, "run", str(scn))
        assert code == 3
        assert "line 5" in err

    @pytest.mark.parametrize("body,message", [
        ("GATES\n  t1 projector_select a : y\n",
         "line 6, col 1: branch probability 0.000e+00 < 1.0e-14"),
        ("POSTSELECT\n  y : 1\nOBSERVABLES\n  P = proj(a=x)\n",
         "line 5, col 1: |<post|pre>| = 0.000e+00 <= 1.0e-10; weak value undefined"),
    ], ids=["empty-branch", "orthogonal-postselect"])
    def test_scn_refusal_printed_as_diagnostic(self, capsys, tmp_path, body, message):
        # a library refusal in a .scn run prints like any other diagnostic
        scn = tmp_path / "refused.scn"
        scn.write_text("FACTORS\n  a: x y\nINITIAL\n  x : 1\n" + body)
        code, out, err = run_cli(capsys, "run", str(scn))
        assert (code, out, err) == (3, "", f"{scn}:{message}\n")

    def test_allocation_failure_in_a_gate_exit_3(self, capsys, tmp_path, monkeypatch):
        # a state that fails to allocate after the first one is positioned too
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(hb, "apply_to_factors", no_memory)
        scn = tmp_path / "gate.scn"
        scn.write_text("FACTORS\n  a: x y\nINITIAL\n  x : 1\n"
                       "GATES\n  t1 beamsplitter a : x y -> x y\n")
        code, out, err = run_cli(capsys, "run", str(scn))
        assert (code, out, err) == (
            3, "", f"{scn}:line 2, col 1: state space of 2 amplitudes is too large to allocate\n")

    def test_builtin_refusal_printed_as_error(self, capsys):
        code, out, err = run_cli(capsys, "run", "three_path_photon", "--g", "100")
        assert (code, out, err) == (
            3, "", "error: shift g*|lambda| = 100 exceeds half the grid extent 5\n")

    def test_reversed_beamsplitter_pair_exit_3(self, capsys, tmp_path):
        scn = tmp_path / "reversed.scn"
        scn.write_text("FACTORS\n  a: x y\nINITIAL\n  x : 1\n"
                       "GATES\n  t1 beamsplitter a : x y -> y x\n")
        code, out, err = run_cli(capsys, "run", str(scn))
        assert (code, out) == (3, "")
        assert err == f"{scn}:line 6, col 30: mode pairs must be identical or disjoint\n"

    @pytest.mark.parametrize("argv", [
        ("hardy", "--g-sweep", "1e-15:1e-6:4:log"),
        ("three_path_photon", "--g", "1e-12"),
    ])
    def test_shift_below_grid_resolution_exit_3(self, capsys, argv):
        code, out, err = run_cli(capsys, "run", *argv)
        assert (code, out) == (3, "")
        assert "below what the grid resolves" in err

    @pytest.mark.parametrize("gates,line,epoch,latest", [
        (("final", "t1"), 7, "t1", "final"),
        (("t2", "mid", "t1"), 8, "t1", "t2"),
    ])
    def test_epochs_out_of_order_exit_3(self, capsys, tmp_path, gates, line, epoch, latest):
        scn = tmp_path / "order.scn"
        scn.write_text("FACTORS\n  a: x y\nINITIAL\n  x : 1\nGATES\n"
                       + "".join(f"  {e} swap_map a : x -> y\n" for e in gates))
        code, out, err = run_cli(capsys, "run", str(scn))
        assert (code, out) == (3, "")
        assert err == (f"{scn}:line {line}, col 3: epoch {epoch!r} after {latest!r}; "
                       "t1, t2, final must come in that order\n")

    @pytest.mark.parametrize("observable,col,message", [
        ("1e400*proj(a=x)", 7, "coefficient is not finite"),
        ("(1e200*1e200)*proj(a=x)", 7, "coefficient is not finite"),
        ("1e308*proj(a=x) + 1e308*proj(a=x)", 1, "observable 'A' sums past the float range"),
    ])
    def test_non_finite_observable_exit_3(self, capsys, tmp_path, observable, col, message):
        # no nan weak value, and no numpy warning (warnings fail the suite)
        scn = tmp_path / "inf.scn"
        scn.write_text(f"FACTORS\n  a: x y\nINITIAL\n  x : 1\nOBSERVABLES\n  A = {observable}\n")
        code, out, err = run_cli(capsys, "run", str(scn), "--format", "jsonl")
        assert (code, out) == (3, "")
        assert err == f"{scn}:line 6, col {col}: {message}\n"

    def test_non_finite_weak_value_exit_3(self, capsys, tmp_path):
        # jsonl would print it as Infinity, which is not JSON
        scn = tmp_path / "inf.scn"
        scn.write_text("FACTORS\n  a: x y\nINITIAL\n  x : 1\n  y : 1\n"
                       "POSTSELECT\n  x : 1\n  y : -0.99999999\n"
                       "OBSERVABLES\n  A = 1e308*proj(a=x)\n")
        code, out, err = run_cli(capsys, "run", str(scn), "--format", "jsonl")
        assert (code, out) == (3, "")
        assert err.splitlines()[-1] == (
            f"{scn}:line 10, col 1: observable 'A' has a weak value that is not finite")

    @pytest.mark.parametrize("n_factors", [62, 70])
    def test_oversized_state_space_exit_3(self, capsys, tmp_path, n_factors):
        # numpy refuses both sizes before allocating anything
        scn = tmp_path / "huge.scn"
        scn.write_text("FACTORS\n" + "".join(f"  q{i}: a b\n" for i in range(n_factors))
                       + "INITIAL\n  " + " ".join(["a"] * n_factors) + " : 1\n")
        code, out, err = run_cli(capsys, "run", str(scn))
        assert (code, out) == (3, "")
        assert err == (f"{scn}:line 2, col 1: state space of {2 ** n_factors} amplitudes "
                       "is too large to allocate\n")

    def test_unwritable_output_exit_4(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "three_boxes", "--out",
                               str(tmp_path / "no_dir" / "out.csv"))
        assert code == 4
        assert "cannot write" in err

    @pytest.mark.parametrize("scenario", ["four_mirror", "three_boxes"])
    def test_negative_seed_exit_2(self, capsys, scenario):
        code, out, err = run_cli(capsys, "run", scenario, "--seed", "-1")
        assert (code, out, err) == (2, "", "error: seed must be >= 0\n")

    def test_usage_error_exit_2(self, capsys):
        assert cli.main(["run"]) == 2

    def test_unreadable_path_exit_4(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", str(tmp_path))
        assert (code, out) == (4, "")
        assert err == f"error: cannot read {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("argv", [("--g", "nan"), ("--g-sweep", "nan:0.2:3")])
    def test_nan_coupling_exit_2(self, capsys, argv):
        code, _, err = run_cli(capsys, "run", "three_path_photon", *argv)
        assert code == 2
        assert err == {
            "--g": "error: coupling strength must be >= 0, got nan\n",
            "--g-sweep": "error: g sweep MIN must be a finite number > 0, got 'nan'\n",
        }[argv[0]]

    @pytest.mark.parametrize("sweep,field,value", [
        ("0.01:-1:3:log", "MAX", "-1"),
        ("0.01:inf:3", "MAX", "inf"),
        ("inf:inf:1", "MIN", "inf"),
        ("0.01:nan:3", "MAX", "nan"),
        ("0.01:0:3", "MAX", "0"),
        ("0.01:0.2:3.5", "STEPS", "3.5"),
        ("abc:0.2:3", "MIN", "abc"),
    ])
    def test_bad_sweep_field_named_before_running(self, capsys, sweep, field, value):
        code, out, err = run_cli(capsys, "run", "hardy", "--g-sweep", sweep)
        what = "an integer >= 1" if field == "STEPS" else "a finite number > 0"
        assert (code, out) == (2, "")
        assert err == f"error: g sweep {field} must be {what}, got {value!r}\n"

    @pytest.mark.parametrize("argv,code,message", [
        (("x" * 5000,), 4, f"cannot read {'x' * 5000}: File name too long"),
        (("three_boxes", "--out", "o\0ut.csv"), 4, "cannot write output: embedded null byte"),
        (("four_mirror", "--trials", "10000000000000"), 2, "Unable to allocate 72.8 TiB"),
        (("hardy", "--g-sweep", "0.01:0.2:1000000000000"), 2, "Unable to allocate 72.8 TiB"),
    ], ids=["long-name", "nul-out", "trials-memory", "sweep-memory"])
    def test_no_input_ends_in_a_traceback(self, capsys, monkeypatch, argv, code, message):
        # each of these once escaped _cmd_run with exit 1; the MemoryErrors are
        # stubbed, since a host that overcommits could be OOM-killed instead
        def no_memory(*_, **__):
            raise MemoryError("Unable to allocate 72.8 TiB")

        monkeypatch.setattr(sc, "run_four_mirror", no_memory)
        monkeypatch.setattr(cli.np, "linspace", no_memory)
        got_code, out, err = run_cli(capsys, "run", *argv)
        assert (got_code, out, err) == (code, "", f"error: {message}\n")
        assert "Traceback" not in err


def raising(error):
    def check():
        raise error
    return check


class TestCheckCommand:
    def test_every_criterion_gets_its_line(self, capsys, monkeypatch):
        # an exception other than AssertionError fails its criterion, and the
        # later criteria still run and the summary is printed
        monkeypatch.setattr(acceptance, "CRITERIA", (
            acceptance.Criterion(1, "passes", lambda: "fine"),
            acceptance.Criterion(2, "asserts", raising(AssertionError("off by one"))),
            acceptance.Criterion(3, "raises", raising(ValueError("boom"))),
        ))
        code, out, err = run_cli(capsys, "check")
        assert (code, err) == (1, "")
        assert out == ("PASS criterion 1: passes (fine)\n"
                       "FAIL criterion 2: asserts (off by one)\n"
                       "FAIL criterion 3: raises (ValueError: boom)\n"
                       "1/3 criteria passed\n")

    def test_all_pass_exit_0(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "CRITERIA", (
            acceptance.Criterion(1, "passes", lambda: "fine"),
            acceptance.Criterion(2, "passes too", lambda: "also fine"),
        ))
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        assert out == ("PASS criterion 1: passes (fine)\n"
                       "PASS criterion 2: passes too (also fine)\n"
                       "2/2 criteria passed\n")


class TestScenarioFiles:
    def test_shipped_fixture_runs(self, capsys):
        path = dsl.builtin_scenario_path("three_boxes")
        code, out, _ = run_cli(capsys, "run", str(path), "--format", "jsonl")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        p3 = next(r for r in records if r["name"] == "P3")
        assert p3["re"] == pytest.approx(-1.0, abs=1e-10)

    def test_renormalization_warning(self, capsys, tmp_path):
        body = "OBSERVABLES\n  PX = proj(a=x)\n"
        raw = tmp_path / "raw" / "exp.scn"
        unit = tmp_path / "unit" / "exp.scn"
        raw.parent.mkdir()
        unit.parent.mkdir()
        raw.write_text("FACTORS\n  a: x y\nINITIAL\n  x : 1\n  y : 1\n" + body)
        unit.write_text("FACTORS\n  a: x y\nINITIAL\n  x : 1/sqrt(2)\n  y : 1/sqrt(2)\n"
                        + body)
        code, out, err = run_cli(capsys, "run", str(raw))
        assert code == 0
        assert err == (f"warning: {raw}:line 4, col 1: INITIAL amplitudes had norm "
                       "1.41421356237; normalized to 1\n")
        code_unit, out_unit, err_unit = run_cli(capsys, "run", str(unit))
        assert (code_unit, err_unit) == (0, "")
        assert out.encode() == out_unit.encode()

    def test_out_file_written(self, capsys, tmp_path):
        target = tmp_path / "result.csv"
        code, out, _ = run_cli(capsys, "run", "three_boxes", "--format", "csv",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert b"P3,-1.000000000,0.000000000" in target.read_bytes()


class TestListCommand:
    def test_lists_all_ids(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for scenario_id in ("four_mirror", "oblivion", "elastic_collision",
                            "three_boxes", "hardy", "three_path_photon"):
            assert scenario_id in out


class TestThreePathOptions:
    def test_recombine_two(self, capsys):
        code, out, _ = run_cli(capsys, "run", "three_path_photon",
                               "--option", "recombine_two", "--format", "csv")
        assert code == 0
        assert "beam_single,0.333333333" in out
        assert "beam_merged,0.666666667" in out
