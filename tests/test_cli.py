"""Command-line interface: formats, determinism, exit codes."""

import json

import pytest

from tsvsim import cli, dsl


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

    def test_bad_sweep_spec(self, capsys):
        code, _, _ = run_cli(capsys, "run", "hardy", "--g-sweep", "nope")
        assert code == 2

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

    def test_unwritable_output_exit_4(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "three_boxes", "--out",
                               str(tmp_path / "no_dir" / "out.csv"))
        assert code == 4
        assert "cannot write" in err

    def test_usage_error_exit_2(self, capsys):
        assert cli.main(["run"]) == 2


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
