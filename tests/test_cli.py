import hashlib
import json
from pathlib import Path

import pytest

from gradlite.cli import build_parser, load_config_file, main

GOLDEN_DIR = Path(__file__).parent / "data"


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestParsing:
    def test_documented_example_is_valid(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(["run", "--problem", "quadratic", "--opt", "gradlite",
                     "--k", "8", "--eta", "0.05", "--steps", "20",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_zero_rank_is_config_error(self, tmp_path):
        code = main(["run", "--k", "0", "--steps", "5", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_bad_choice_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--ef-mode", "bogus", "--out", str(tmp_path / "y.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for mode in ("paper", "ef-standard", "off"):
            assert mode in err

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--frobnicate", "1", "--out", "z.csv"])
        assert exc.value.code == 2

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=12\nk=3\neta=0.02  # inline comment\n\n"
                       "# full-line comment\nef-mode=off\n")
        out = tmp_path / "m.csv"
        code = main(["run", "--config", str(cfg), "--steps", "6",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 6  # flag wins over file

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp=9\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "m.csv")])
        assert code == 3

    def test_bad_choice_in_file_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ef-mode=bogus\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "m.csv")])
        assert code == 3

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "m.csv")])
        assert code == 3

    def test_parser_round_trip(self, tmp_path):
        cfg = tmp_path / "kv.cfg"
        cfg.write_text("a=1\nb = two\n")
        assert load_config_file(cfg) == {"a": "1", "b": "two"}


class TestExitCodes:
    def test_diverging_run_exits_one_with_truncated_csv(self, tmp_path):
        out = tmp_path / "d.csv"
        code = main(["run", "--problem", "quadratic", "--dim", "6",
                     "--sigma", "0.5", "--opt", "gradlite", "--k", "2",
                     "--ef-mode", "paper", "--eta", "1e8", "--steps", "500",
                     "--seed", "0", "--out", str(out)])
        assert code == 1
        assert 1 <= len(out.read_text().splitlines()) - 1 < 500

    def test_grad_check_passes_on_clean_build(self, capsys):
        assert main(["grad-check"]) == 0
        assert "0 failures" in capsys.readouterr().out

    def test_unwritable_output_exits_five(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "m.csv"
        code = main(["run", "--steps", "2", "--out", str(target)])
        assert code == 5
        assert "m.csv" in capsys.readouterr().err

    def test_mem_report_prints_reference_counts(self, capsys):
        assert main(["mem-report", "--m", "1000", "--d", "200", "--k", "8",
                     "--tau", "10"]) == 0
        out = capsys.readouterr().out
        assert "960" in out and "1168" in out and "41.6% lower" in out

    def test_mem_report_rank_above_min_dim_exits_three(self, capsys):
        assert main(["mem-report", "--m", "10", "--d", "5", "--k", "50"]) == 3
        captured = capsys.readouterr()
        assert "rank 50" in captured.err
        assert "Traceback" not in captured.err
        assert "lower" not in captured.out

    @pytest.mark.parametrize("argv, config", [
        (["run", "--steps", "2"], "steps=abc\n"),
        (["ablate", "--steps", "2"], "seeds=a,b\n"),
        (["run", "--problem", "mlp", "--layers", "", "--steps", "2"], None),
        (["rate-check", "--k-grid", ""], None),
        (["run", "--eta", "inf", "--steps", "3"], None),
        (["run", "--sigma", "nan", "--steps", "2"], None),
        (["run", "--problem", "logistic", "--l2", "nan", "--steps", "2"], None),
    ], ids=["config-steps", "config-seeds", "empty-layers", "empty-k-grid",
            "infinite-eta", "nan-sigma", "nan-l2"])
    def test_bad_value_exits_three_with_error_line(self, argv, config, tmp_path,
                                                    capsys):
        if config is not None:
            path = tmp_path / "bad.cfg"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        code = main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestDeterminism:
    def test_rerun_overwrites_with_identical_bytes(self, tmp_path):
        out, summary = tmp_path / "m.csv", tmp_path / "s.json"
        args = ["run", "--problem", "lowrank-logistic", "--n", "64",
                "--dim", "16", "--opt", "gradlite", "--k", "4", "--eta", "0.01",
                "--steps", "25", "--seed", "3", "--out", str(out),
                "--summary", str(summary)]
        assert main(args) == 0
        first = sha(out), sha(summary)
        assert main(args) == 0
        assert (sha(out), sha(summary)) == first

    def test_mem_report_json_deterministic(self, tmp_path):
        out = tmp_path / "mem.json"
        args = ["mem-report", "--out", str(out)]
        assert main(args) == 0
        first = sha(out)
        assert main(args) == 0
        assert sha(out) == first
        payload = json.loads(out.read_text())
        assert payload["methods"]["gradlite"]["total"] == 1168

    def test_ablation_csv_deterministic(self, tmp_path):
        out = tmp_path / "abl.csv"
        args = ["ablate", "--seeds", "0,1", "--steps", "40", "--k", "4",
                "--n", "64", "--dim", "16", "--cond", "100",
                "--eta", "0.05", "--out", str(out)]
        assert main(args) == 0
        first = sha(out)
        assert main(args) == 0
        assert sha(out) == first
        lines = out.read_text().splitlines()
        assert lines[0] == "variant,seed,final_loss,final_gap"
        assert len(lines) == 1 + 6


class TestHelpGolden:
    @pytest.mark.parametrize("name", ["top", "run", "ablate", "rate-check",
                                      "grad-check", "mem-report"])
    def test_help_matches_golden(self, name, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        argv = ["--help"] if name == "top" else [name, "--help"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        got = capsys.readouterr().out
        golden = GOLDEN_DIR / f"help_{name}.txt"
        assert got == golden.read_text(), f"--help drifted from {golden}"

    def test_every_flag_documents_a_default(self):
        parser, commands = build_parser()
        for sub in commands.values():
            for action in sub._actions:
                if action.dest in ("help", "command"):
                    continue
                text = action.help or ""
                assert "default" in text or "required" in text, action.dest
