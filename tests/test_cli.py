import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from gradlite import optimizers
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

    def test_removed_l2_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "logistic", "--l2", "0.1", "--steps", "2",
                  "--out", str(tmp_path / "l2.csv")])
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

    def test_mem_report_names_the_bad_dimension(self, capsys):
        assert main(["mem-report", "--m", "0"]) == 3
        assert "dims m=0, d=200 must be >= 1" in capsys.readouterr().err

    def test_mem_report_rank_above_min_dim_exits_three(self, capsys):
        assert main(["mem-report", "--m", "10", "--d", "5", "--k", "50"]) == 3
        captured = capsys.readouterr()
        assert "rank 50" in captured.err
        assert "Traceback" not in captured.err
        assert "lower" not in captured.out

    @pytest.mark.parametrize("argv", [
        ["--dim", "5"],
        ["--problem", "logistic", "--n", "5"],
        ["--k", "60", "--dim", "50"],
    ], ids=["quadratic-dim5", "logistic-n5", "k60-dim50"])
    def test_galore_rank_above_min_dim_still_runs(self, argv, tmp_path):
        # galore_like_step clips its basis to min(k, d); only mem-report's
        # ledger holds the gradlite row's rank rule.
        out = tmp_path / "g.csv"
        assert main(["run", "--opt", "galore", "--steps", "2", *argv,
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("argv, config", [
        (["run", "--steps", "2"], "steps=abc\n"),
        (["ablate", "--steps", "2"], "seeds=a,b\n"),
        (["run", "--problem", "mlp", "--layers", "", "--steps", "2"], None),
        (["rate-check", "--k-grid", ""], None),
        (["rate-check", "--k-grid", "2,60", "--dim", "8"], None),
        (["run", "--eta", "inf", "--steps", "3"], None),
        (["run", "--sigma", "nan", "--steps", "2"], None),
        (["run", "--problem", "logistic", "--steps", "2"], "l2=0.1\n"),
        (["run", "--problem", "lowrank-logistic", "--cond", "0", "--steps", "2"], None),
        (["rate-check", "--t-grid", "1,1,1,1", "--seeds", "0", "--k-grid", "2,3",
          "--dim", "4"], None),
        (["ablate", "--seeds", "2,2", "--steps", "5", "--k", "2", "--n", "16",
          "--dim", "4", "--eta", "0.05"], None),
        (["rate-check", "--t-grid", "1,2,3,4", "--seeds", "1,1", "--k-grid", "2,3",
          "--dim", "4"], None),
        (["rate-check", "--t-grid", "25,50,50,100,200", "--seeds", "0", "--k-grid",
          "2,4", "--dim", "4"], None),
        (["rate-check", "--t-grid", "25,50,100,200", "--seeds", "0", "--k-grid",
          "2,2,4", "--dim", "4"], None),
    ], ids=["config-steps", "config-seeds", "empty-layers", "empty-k-grid",
            "rank-above-dim", "infinite-eta", "nan-sigma", "config-l2", "zero-cond",
            "repeated-t-grid", "ablate-repeated-seeds", "rate-repeated-seeds",
            "rate-repeated-t", "rate-repeated-k"])
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


# Edge values each kind of flag is tried with, as the command line spells them.
_INT_EDGES = ("0", "-1", "1e308", "nan")
_FLOAT_EDGES = ("0", "-1", "nan", "inf", "-inf", "1e308", "1e-308")
_LIST_EDGES = ("", ",", "0", "-1", "1,1,1,1", "1e308")


def _value(valid, edges):
    """Half the draws a tiny valid value, half an edge value."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(edges))


def _int(*valid):
    return _value(valid, _INT_EDGES)


def _float(*valid):
    return _value(valid, _FLOAT_EDGES)


def _list(*valid):
    return _value(valid, _LIST_EDGES)


def _choice(*valid):
    return st.sampled_from(valid + ("bogus",))


_SEED = st.sampled_from(["0", "3", "-1", "18446744073709551616"])

# command -> (flags always given, flags that may be given); every size and
# step count stays tiny, so one example runs in milliseconds.
_GRAMMAR = {
    "run": ({"--steps": _int("1", "3")}, {
        "--problem": _choice("quadratic", "logistic", "lowrank-logistic", "mlp"),
        "--dim": _int("1", "2", "5"), "--n": _int("1", "3", "8"),
        "--cond": _float("1", "100"), "--sigma": _float("0", "0.5"),
        "--layers": _list("2,3,1", "3,1", "8,2,1"),
        "--opt": _choice("gradlite", "sgd", "adam", "galore"),
        "--eta": _float("0.05", "3", "1e8"), "--k": _int("1", "2", "8"),
        "--tau": _int("1", "2"), "--ef-mode": _choice("paper", "ef-standard", "off"),
        "--probe": _choice("exact", "none"),
        "--basis": _choice("svd", "random-projection"),
        "--beta1": _float("0.5"), "--beta2": _float("0.9"), "--eps": _float("1e-8"),
        "--seed": _SEED}),
    "ablate": ({"--steps": _int("1", "3"), "--n": _int("4", "8"), "--dim": _int("2", "3"),
                "--k": _int("1", "2")}, {
        "--seeds": _list("0", "0,1", "2,2"), "--tau": _int("1", "2"),
        "--cond": _float("1", "10"), "--eta": _float("0.05", "1e8"), "--seed": _SEED}),
    "rate-check": ({"--t-grid": _list("1,2,3,4", "2,4,8,16", "1,2,2,3,4"),
                    "--dim": _int("3", "4"), "--k-grid": _list("1,2", "3,1,2")}, {
        "--seeds": _list("0", "0,1", "1,1"),
        "--c": _float("0.3", "1"), "--cond": _float("1", "10"),
        "--sigma": _float("0", "0.5"), "--seed": _SEED}),
    "grad-check": ({}, {"--seed": _SEED}),
    "mem-report": ({}, {
        "--m": _int("1", "10", "1000000"), "--d": _int("1", "10", "1000000"),
        "--k": _int("1", "8"), "--tau": _int("1", "10"), "--seed": _SEED}),
}


@st.composite
def _invocations(draw):
    """A command, its flags, and which of them go through a --config file."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    always, maybe = _GRAMMAR[command]
    picked = draw(st.lists(st.sampled_from(sorted(maybe)), max_size=4, unique=True))
    flags = {flag: draw(values) for flag, values in always.items()}
    flags.update({flag: draw(maybe[flag]) for flag in picked})
    in_file = {flag for flag in flags if draw(st.booleans())}
    return command, flags, in_file


class TestOutputPathsCheckedFirst:
    """A bad output path exits 5 before any step runs and writes no file."""

    @pytest.fixture(autouse=True)
    def no_steps(self, monkeypatch):
        def gradlite_step(*args, **kwargs):
            raise AssertionError("a step ran before the output paths were checked")
        monkeypatch.setattr(optimizers, "gradlite_step", gradlite_step)

    @pytest.mark.parametrize("argv", [
        ["run", "--steps", "3000", "--out", "{bad}"],
        ["run", "--steps", "3000", "--out", "{good}", "--summary", "{bad}"],
        ["rate-check", "--out", "{bad}"],
        ["ablate", "--out", "{bad}"],
        ["mem-report", "--out", "{bad}"],
    ], ids=["run-out", "run-summary", "rate-check", "ablate", "mem-report"])
    def test_bad_path_exits_five_before_any_step(self, argv, tmp_path, capsys):
        bad = tmp_path / "no" / "such" / "x.out"
        argv = [arg.format(bad=bad, good=tmp_path / "good.csv") for arg in argv]
        assert main(argv) == 5
        assert f"io error: {bad}:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_an_existing_output_is_left_as_it_was(self, tmp_path):
        good = tmp_path / "good.csv"
        good.write_text("earlier run\n")
        assert main(["run", "--out", str(good),
                     "--summary", str(tmp_path / "no" / "s.json")]) == 5
        assert good.read_text() == "earlier run\n"


class TestExitCodeProperty:
    @given(_invocations())
    def test_every_input_exits_by_the_contract(self, invocation):
        command, flags, in_file = invocation
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command]
            for flag, value in flags.items():
                if flag not in in_file:
                    argv += [flag, value]
            if in_file:
                cfg = Path(tmp) / "args.cfg"
                cfg.write_text("".join(f"{flag[2:]}={flags[flag]}\n" for flag in in_file))
                argv += ["--config", str(cfg)]
            if command in ("run", "ablate", "rate-check"):
                argv += ["--out", str(Path(tmp) / "out")]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        assert code in range(6), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        if code == 1:
            assert "diverged" in out.getvalue(), argv


class TestGapNote:
    """`run` says on stdout why the gap column is NaN."""

    def run(self, tmp_path, problem_flags, seed):
        return main(["run", *problem_flags, "--steps", "2", "--seed", str(seed),
                     "--out", str(tmp_path / "m.csv")])

    def test_no_reference_optimum_is_named(self, tmp_path, capsys):
        # The MLP family never has a reference optimum.
        flags = ["--problem", "mlp", "--layers", "4,8,1", "--n", "16"]
        assert self.run(tmp_path, flags, 11) == 0
        lines = capsys.readouterr().out.splitlines()
        notes = [line for line in lines if "no reference optimum" in line]
        assert notes == ["gap: nan, no reference optimum is known for problem 'mlp'"]
        gaps = [row.split(",")[2] for row in
                (tmp_path / "m.csv").read_text().splitlines()[1:]]
        assert gaps == ["nan", "nan"]

    def test_silent_when_the_optimum_is_known(self, tmp_path, capsys):
        flags = ["--problem", "lowrank-logistic", "--n", "64", "--dim", "16"]
        assert self.run(tmp_path, flags, 3) == 0
        assert "no reference optimum" not in capsys.readouterr().out


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

    def test_mlp_run_matches_pinned_bytes(self, tmp_path):
        # Pins the MLP numbers themselves, not only rerun-vs-rerun identity;
        # regenerate the golden files with this command only for an intended
        # change of the numbers.
        out, summary = tmp_path / "m.csv", tmp_path / "s.json"
        assert main(["run", "--problem", "mlp", "--layers", "8,16,16,1", "--n", "32",
                     "--steps", "60", "--seed", "3", "--out", str(out),
                     "--summary", str(summary)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "mlp_run_seed3.csv").read_bytes()
        assert summary.read_bytes() == (GOLDEN_DIR / "mlp_run_seed3.json").read_bytes()

    @pytest.mark.parametrize("argv, goldens", [
        (["run", "--problem", "quadratic", "--dim", "12", "--sigma", "0.3",
          "--opt", "gradlite", "--k", "4", "--eta", "0.05", "--steps", "40",
          "--seed", "5"], ["quadratic_run_seed5.csv", "quadratic_run_seed5.json"]),
        (["run", "--problem", "lowrank-logistic", "--n", "128", "--dim", "32",
          "--steps", "40", "--seed", "3"],
         ["lowrank_logistic_run_seed3.csv", "lowrank_logistic_run_seed3.json"]),
        (["ablate", "--seeds", "0,1", "--steps", "40", "--k", "4", "--n", "64",
          "--dim", "16", "--cond", "100", "--eta", "0.05"], ["ablate_seeds01.csv"]),
        (["rate-check", "--t-grid", "25,50,100,200", "--seeds", "0,1",
          "--k-grid", "2,4,8", "--dim", "8", "--c", "0.3"], ["rate_check.json"]),
        *[(["run", "--problem", "mlp", "--layers", "8,16,16,1", "--n", "32",
            "--eta", "0.05", "--steps", "60", "--seed", "3", "--opt", opt, *extra],
           [f"mlp_{opt}_run_seed3.csv", f"mlp_{opt}_run_seed3.json"])
          for opt, extra in (("sgd", []), ("adam", []),
                             ("galore", ["--k", "4", "--tau", "10"]))],
    ], ids=["run-quadratic", "run-lowrank-logistic", "ablate", "rate-check",
            "run-mlp-sgd", "run-mlp-adam", "run-mlp-galore"])
    def test_outputs_match_pinned_bytes(self, argv, goldens, tmp_path):
        # Criterion 8's run, ablate and rate-check commands, a logistic run
        # and one MLP run per baseline (galore refreshes its basis at steps
        # 0, 10, 20, ...), pinned across changes; regenerate only for an
        # intended change of the numbers.
        paths = [tmp_path / name for name in goldens]
        argv = argv + ["--out", str(paths[0])]
        if len(paths) > 1:
            argv += ["--summary", str(paths[1])]
        assert main(argv) == 0
        for path in paths:
            assert path.read_bytes() == (GOLDEN_DIR / path.name).read_bytes(), path.name

    def test_rate_check_bytes_do_not_depend_on_flag_order(self, tmp_path):
        outs = []
        for t_grid, seeds in (("200,100,50,25", "2,0,1"), ("25,50,100,200", "0,1,2")):
            outs.append(tmp_path / f"rate_{len(outs)}.json")
            assert main(["rate-check", "--t-grid", t_grid, "--seeds", seeds,
                         "--k-grid", "4,2", "--dim", "4", "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        report = json.loads(outs[0].read_text())
        assert report["t_grid"] == [25, 50, 100, 200]
        assert report["seeds"] == [0, 1, 2]

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
