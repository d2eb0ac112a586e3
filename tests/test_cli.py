import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import gradlite
from gradlite import cli, harness, optimizers
from gradlite.cli import _parser, build_parser, load_config_file, main
from gradlite.harness import run_experiment
from gradlite.optimizers import GradLiteConfig
from gradlite.rng import SplitMix64

GOLDEN_DIR = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def numeric_columns(text: str, name: str) -> dict[str, list[float]]:
    """Each numeric column of a CSV file (by header) or of a JSON file (by
    key path, list indices folded into one column)."""
    columns: dict[str, list[float]] = {}
    if name.endswith(".json"):
        def walk(node, path):
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, f"{path}.{key}" if path else key)
            elif isinstance(node, list):
                for value in node:
                    walk(value, f"{path}[]")
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                columns.setdefault(path, []).append(float(node))
        walk(json.loads(text), "")
        return columns
    header, *rows = csv.reader(io.StringIO(text))
    for i, head in enumerate(header):
        try:
            columns[head] = [float(row[i]) for row in rows]
        except (ValueError, IndexError):
            pass
    return columns


def relative_difference(a: float, b: float) -> float:
    """|a - b| over the larger magnitude; 0 for equal values or two NaNs,
    inf where only one is NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def bytes_mismatch(got: bytes, want: bytes, name: str) -> str:
    """Where `got` first differs from the golden `want`, and each numeric
    column's largest relative difference (columns that differ only)."""
    got_lines, want_lines = got.decode().splitlines(), want.decode().splitlines()
    at = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
              min(len(got_lines), len(want_lines)))
    end = "<end of file>"
    report = [f"{name} differs from its golden from line {at + 1}:",
              f"  got:  {got_lines[at] if at < len(got_lines) else end}",
              f"  want: {want_lines[at] if at < len(want_lines) else end}"]
    try:
        got_cols = numeric_columns(got.decode(), name)
        want_cols = numeric_columns(want.decode(), name)
    except (ValueError, StopIteration) as err:
        return "\n".join(report + [f"  columns unreadable: {err}"])
    for column in sorted(got_cols.keys() | want_cols.keys()):
        a, b = got_cols.get(column), want_cols.get(column)
        if a is None or b is None or len(a) != len(b):
            report.append(f"  {column}: {len(a or [])} values, golden {len(b or [])}")
            continue
        worst = max(map(relative_difference, a, b), default=0.0)
        if worst:
            report.append(f"  {column}: largest relative difference {worst:.3g}")
    return "\n".join(report)


def readme_commands() -> list[list[str]]:
    """The arguments of each `gradlite ...` line in the README's sh blocks,
    a line ending in a backslash joined to the next."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gradlite"]:
                commands.append(words[1:])
    return commands


class TestParsing:
    def test_documented_example_is_valid(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(["run", "--problem", "quadratic", "--opt", "gradlite",
                     "--k", "8", "--eta", "0.05", "--steps", "20",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_readme_examples_parse(self):
        commands = readme_commands()
        assert {argv[0] for argv in commands} == set(build_parser()[1])
        for argv in commands:
            try:
                _parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README example does not parse: gradlite {shlex.join(argv)}")

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

    @pytest.mark.parametrize("text, code", [("steps=3\n", 0), ("steps=3\nwarp=9\n", 3)],
                             ids=["applied", "refused-after-a-key"])
    def test_file_keys_do_not_reach_a_later_call(self, text, code, tmp_path):
        # One parser serves every call in a process.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        first, plain = tmp_path / "first.csv", tmp_path / "plain.csv"
        assert main(["run", "--config", str(cfg), "--out", str(first)]) == code
        assert main(["run", "--out", str(plain)]) == 0
        assert len(plain.read_text().splitlines()) == 1 + 1000


class TestFlagsAreReadOrRefused:
    """Every command takes only the flags it reads; `run` refuses a flag that
    its problem or optimizer does not take."""

    @pytest.mark.parametrize("argv, key", [
        (["--problem", "logistic", "--sigma", "0.5"], "sigma"),
        (["--opt", "sgd", "--k", "3"], "k"),
    ], ids=["logistic-sigma", "sgd-k"])
    @pytest.mark.parametrize("via_file", [False, True], ids=["flag", "file"])
    def test_flag_the_run_does_not_take_exits_three(self, argv, key, via_file,
                                                    tmp_path, capsys):
        chosen, (flag, value) = argv[:2], argv[2:]
        if via_file:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{flag[2:]}={value}\n")
            argv = chosen + ["--config", str(cfg)]
        out = tmp_path / "m.csv"
        assert main(["run", *argv, "--steps", "2", "--out", str(out)]) == 3
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_out_key_in_config_file_exits_three(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out={tmp_path / 'from_file.csv'}\n")
        assert main(["run", "--config", str(cfg), "--steps", "2",
                     "--out", str(tmp_path / "m.csv")]) == 3
        assert "out must be given as a flag" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--opt", "adam", "--beta1", "0.5"],
        ["--opt", "galore", "--k", "4", "--tau", "10"],
    ], ids=["adam-beta1", "galore-k-tau"])
    def test_flag_the_optimizer_takes_still_runs(self, argv, tmp_path):
        assert main(["run", *argv, "--steps", "2", "--out", str(tmp_path / "m.csv")]) == 0

    @pytest.mark.parametrize("argv", [
        ["ablate", "--seed", "1", "--out", "{out}"],
        ["rate-check", "--seed", "1", "--out", "{out}"],
        ["mem-report", "--seed", "1"],
        ["grad-check", "--seed", "1"],
        ["grad-check", "--config", "{cfg}"],
        ["run", "--ste", "2", "--out", "{out}"],
    ], ids=["ablate-seed", "rate-check-seed", "mem-report-seed", "grad-check-seed",
            "grad-check-config", "run-abbreviated-steps"])
    def test_flag_the_command_does_not_read_is_usage_error(self, argv, tmp_path,
                                                           capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("")
        argv = [arg.format(out=tmp_path / "out", cfg=cfg) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("ef_mode, probe", [
        ("paper", "exact"), ("ef-standard", "exact"), ("off", "none"),
    ])
    @pytest.mark.parametrize("via_file", [False, True], ids=["flag", "file"])
    def test_probe_that_agrees_with_ef_mode_moves_no_byte(self, ef_mode, probe,
                                                          via_file, tmp_path):
        # --ef-mode alone decides the probe; spelling it out changes nothing.
        argv = ["run", "--dim", "6", "--sigma", "0.3", "--k", "2", "--tau", "3",
                "--steps", "12", "--ef-mode", ef_mode]
        plain, spelled = tmp_path / "plain.csv", tmp_path / "spelled.csv"
        assert main(argv + ["--out", str(plain)]) == 0
        if via_file:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"probe={probe}\n")
            extra = ["--config", str(cfg)]
        else:
            extra = ["--probe", probe]
        assert main(argv + extra + ["--out", str(spelled)]) == 0
        assert spelled.read_bytes() == plain.read_bytes()

    def test_summary_records_every_config_field_but_the_seed(self):
        spec = {"name": "quadratic", "d": 12, "cond": 5.0, "sigma": 0.0}
        names = {f.name for f in fields(GradLiteConfig)}
        assert "seed" in names
        recorded = run_experiment(spec, {"name": "gradlite"}, 2, 0).summary_dict()
        assert recorded["optimizer"] == {
            "name": "gradlite",
            **{name: getattr(GradLiteConfig(), name) for name in names - {"seed"}}}


class TestExitCodes:
    def test_diverging_run_exits_one_with_truncated_csv(self, tmp_path):
        out = tmp_path / "d.csv"
        code = main(["run", "--problem", "quadratic", "--dim", "6",
                     "--sigma", "0.5", "--opt", "gradlite", "--k", "2",
                     "--ef-mode", "paper", "--eta", "1e8", "--steps", "500",
                     "--seed", "0", "--out", str(out)])
        assert code == 1
        assert 1 <= len(out.read_text().splitlines()) - 1 < 500

    def test_diverging_rate_check_exits_one_and_writes_no_report(self, tmp_path,
                                                                  capsys):
        out = tmp_path / "r.json"
        code = main(["rate-check", "--t-grid", "25,50,100,200", "--seeds", "0",
                     "--k-grid", "2,8", "--dim", "8", "--c", "300", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.startswith(
            "diverged: rank 8, T 25, seed 0, step 7: non-finite or oversized theta")
        assert captured.err == ""
        assert not out.exists()

    def test_grad_check_passes_on_clean_build(self, capsys):
        assert main(["grad-check"]) == 0
        assert "0 failures" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, code", [
        (["run", "--config", "{binary}", "--out", "{out}"], 3),
        (["run", "--sigma", "inf", "--steps", "3", "--out", "{out}"], 3),
        (["rate-check", "--sigma", "inf", "--t-grid", "4,5,6,7", "--seeds", "0",
          "--k-grid", "2", "--dim", "4", "--out", "{out}"], 3),
        (["run", "--problem", "quadratic", "--dim", "1000000", "--steps", "1",
          "--out", "{out}"], 3),
        (["run", "--problem", "logistic", "--n", "1000000", "--dim", "1000",
          "--steps", "1", "--out", "{out}"], 3),
        (["run", "--problem", "mlp", "--layers", "8,100000,1", "--steps", "1",
          "--out", "{out}"], 3),
        (["ablate", "--n", "1000000", "--dim", "1000", "--out", "{out}"], 3),
        (["run", "--problem", "logistic", "--n", "12", "--dim", "65536", "--steps", "1",
          "--out", "{out}"], 3),
        (["ablate", "--n", "12", "--dim", "65536", "--steps", "1", "--seeds", "0",
          "--eta", "0.1", "--out", "{out}"], 3),
        (["mem-report", "--m", str(10**400), "--d", "5", "--k", "2", "--tau", "1"], 3),
        (["run", "--k", "0", "--steps", "5", "--out", "{out}"], 3),
        (["run", "--steps", "2", "--out", "{missing}"], 5),
    ], ids=["non-utf8-config", "run-infinite-sigma", "rate-check-infinite-sigma",
            "oversized-quadratic", "oversized-logistic", "oversized-mlp", "oversized-ablate",
            "oversized-logistic-hessian", "oversized-ablate-hessian", "oversized-ledger",
            "zero-rank", "missing-directory"])
    def test_main_returns_the_contract_code(self, argv, code, tmp_path, capsys):
        # Oversized problems are refused before any array is drawn.
        binary = tmp_path / "bin.cfg"
        binary.write_bytes(b"\xff\xfe\x00bad\n")
        argv = [arg.format(binary=binary, out=tmp_path / "out",
                           missing=tmp_path / "no" / "out") for arg in argv]
        assert main(argv) == code
        err = capsys.readouterr().err.splitlines()
        if code == 3:
            assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("raised, line", [
        (MemoryError("Unable to allocate 32.0 MiB"),
         "error: out of memory: Unable to allocate 32.0 MiB\n"),
        (MemoryError(), "error: out of memory: allocation failed\n"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_exits_three(self, raised, line, tmp_path, capsys, monkeypatch):
        def run_experiment(*args, **kwargs):
            raise raised
        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        assert main(["run", "--steps", "1", "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == line

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
        # GaLore's update rule clips its basis to min(k, d); only mem-report's
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
        (["rate-check", "--t-grid", "0,25,50,100", "--seeds", "0", "--k-grid", "2,4",
          "--dim", "4"], None),
        (["rate-check", "--c=-1", "--t-grid", "25,50,100,200", "--seeds", "0",
          "--k-grid", "2,4", "--dim", "4"], None),
        (["run", "--probe", "none", "--steps", "2"], None),
        (["run", "--ef-mode", "paper", "--probe", "none", "--steps", "2"], None),
        (["run", "--ef-mode", "off", "--probe", "exact", "--steps", "2"], None),
        (["run", "--ef-mode", "off", "--steps", "2"], "probe=exact\n"),
        (["run", "--opt", "adam", "--probe", "exact", "--steps", "2"], None),
        (["run", "--cond", "inf", "--steps", "2"], None),
        (["run", "--problem", "lowrank-logistic", "--cond", "inf", "--steps", "2"], None),
        (["ablate", "--cond", "inf", "--seeds", "0", "--steps", "2", "--k", "2", "--n",
          "16", "--dim", "4", "--eta", "0.05"], None),
        (["rate-check", "--cond", "inf", "--t-grid", "25,50,100,200", "--seeds", "0",
          "--k-grid", "2,4", "--dim", "4"], None),
        (["run", "--cond", "1e17", "--steps", "2"], None),
        (["rate-check", "--cond", "1e17", "--t-grid", "25,50,100,200", "--seeds", "0",
          "--k-grid", "2,4", "--dim", "4"], None),
    ], ids=["config-steps", "config-seeds", "empty-layers", "empty-k-grid",
            "rank-above-dim", "infinite-eta", "nan-sigma", "config-l2", "zero-cond",
            "repeated-t-grid", "ablate-repeated-seeds", "rate-repeated-seeds",
            "rate-repeated-t", "rate-repeated-k", "rate-zero-t", "rate-negative-c",
            "probe-none-alone", "paper-probe-none", "off-probe-exact",
            "config-off-probe-exact", "adam-probe-exact", "quadratic-infinite-cond",
            "lowrank-infinite-cond", "ablate-infinite-cond", "rate-infinite-cond",
            "quadratic-cond-above-bound", "rate-cond-above-bound"])
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

# command -> (flags always given, flags that may be given), over every flag
# but --config and --out, which the test itself adds; every size and step
# count stays tiny, so one example runs in milliseconds.
_GRAMMAR = {
    "run": ({"--steps": _int("1", "3")}, {
        "--problem": _choice("quadratic", "logistic", "lowrank-logistic", "mlp"),
        # A --dim of 65536 passes the n x d cap at these n, but no logistic
        # maker builds its 65536 x 65536 Hessian: every spec is refused at once.
        "--dim": _int("1", "2", "5", "65536"), "--n": _int("1", "3", "8"),
        "--cond": _float("1", "100"), "--sigma": _float("0", "0.5"),
        "--layers": _list("2,3,1", "3,1", "8,2,1"),
        "--opt": _choice("gradlite", "sgd", "adam", "galore"),
        "--eta": _float("0.05", "3", "1e8"), "--k": _int("1", "2", "8"),
        "--tau": _int("1", "2"), "--ef-mode": _choice("paper", "ef-standard", "off"),
        "--probe": _choice("exact", "none"),
        "--basis": _choice("svd", "random-projection"),
        "--beta1": _float("0.5"), "--beta2": _float("0.9"), "--eps": _float("1e-8"),
        "--seed": _SEED,
        # A fresh path, or the --out path, which exits 3; {tmp} is the run's
        # own directory.
        "--summary": st.sampled_from(["{tmp}/summary.json", "{tmp}/out"])}),
    "ablate": ({"--steps": _int("1", "3"), "--n": _int("4", "8"),
                "--dim": _int("2", "3", "65536"),
                "--k": _int("1", "2")}, {
        "--seeds": _list("0", "0,1", "2,2"), "--tau": _int("1", "2"),
        "--cond": _float("1", "10"), "--eta": _float("0.05", "1e8")}),
    "rate-check": ({"--t-grid": _list("1,2,3,4", "2,4,8,16", "1,2,2,3,4"),
                    "--dim": _int("3", "4"), "--k-grid": _list("1,2", "3,1,2")}, {
        "--seeds": _list("0", "0,1", "1,1"),
        "--c": _float("0.3", "1"), "--cond": _float("1", "10"),
        "--sigma": _float("0", "0.5")}),
    "grad-check": ({}, {}),
    "mem-report": ({}, {
        "--m": _int("1", "10", "1000000"), "--d": _int("1", "10", "1000000"),
        "--k": _int("1", "8"), "--tau": _int("1", "10")}),
}


@st.composite
def _invocations(draw):
    """A command, its flags, and which of them go through a --config file."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    always, maybe = _GRAMMAR[command]
    # sampled_from refuses an empty list, and grad-check takes no flag.
    picked = draw(st.lists(st.sampled_from(sorted(maybe)), max_size=4, unique=True)) \
        if maybe else []
    flags = {flag: draw(values) for flag, values in always.items()}
    flags.update({flag: draw(maybe[flag]) for flag in picked})
    in_file = {flag for flag in flags if draw(st.booleans())}
    return command, flags, in_file


class TestOutputPathsCheckedFirst:
    """A bad output path exits 5, and two that name one file exit 3, before
    any step runs and with no file written."""

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

    @pytest.mark.parametrize("via_link", [False, True], ids=["same-path", "symlink"])
    def test_summary_naming_the_csv_exits_three(self, via_link, tmp_path, capsys):
        out = summary = tmp_path / "same.csv"
        if via_link:
            summary = tmp_path / "link.json"
            summary.symlink_to(out)
        assert main(["run", "--steps", "3", "--out", str(out),
                     "--summary", str(summary)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_an_existing_output_is_left_as_it_was(self, tmp_path):
        good = tmp_path / "good.csv"
        good.write_text("earlier run\n")
        assert main(["run", "--out", str(good),
                     "--summary", str(tmp_path / "no" / "s.json")]) == 5
        assert good.read_text() == "earlier run\n"


def _refuse(*args, **kwargs):
    raise AssertionError("expensive work started before the spec was checked")


def _spy_on_makers(monkeypatch):
    """Make `build_problem` and every `harness.make_*` fail and log their call."""
    built = []

    def spy(name):
        def builder(*args, **kwargs):
            built.append(name)
            raise AssertionError(f"{name} ran before the spec was checked")
        return builder
    for name in ("build_problem", "make_quadratic", "make_gaussian_logistic",
                 "make_lowrank_logistic", "make_mlp"):
        monkeypatch.setattr(harness, name, spy(name))
    return built


class TestBadSpecRefusedBeforeExpensiveWork:
    """A bad spec exits 3 with its error line before any problem is built."""

    @pytest.mark.parametrize("argv, message", [
        (["run", "--dim", "64", "--sigma", "-1", "--steps", "1"],
         "noise sigma must be finite and >= 0, got -1.0"),
        (["run", "--dim", "64", "--sigma", "nan", "--steps", "1"],
         "noise sigma must be finite and >= 0, got nan"),
        (["rate-check", "--dim", "64", "--sigma", "-1"],
         "noise sigma must be finite and >= 0, got -1.0"),
    ], ids=["run-negative", "run-nan", "rate-check-negative"])
    def test_bad_sigma_draws_no_matrix(self, argv, message, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.setattr(SplitMix64, "normal_matrix", _refuse)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["run", "--problem", "logistic", "--n", "12", "--dim", "65536", "--steps", "1"],
        ["run", "--problem", "lowrank-logistic", "--n", "12", "--dim", "65536",
         "--steps", "1"],
        ["ablate", "--n", "12", "--dim", "65536", "--steps", "1", "--seeds", "0",
         "--eta", "0.1"],
    ], ids=["run-logistic", "run-lowrank-logistic", "ablate"])
    def test_oversized_hessian_draws_no_matrix(self, argv, tmp_path, capsys, monkeypatch):
        # Inside the m x d cap, but the optimum solve's d x d Hessian is not.
        monkeypatch.setattr(SplitMix64, "normal_matrix", _refuse)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == ("error: Newton Hessian of 65536 x 65536 exceeds "
                                           "the desk-scale cap of 4194304 entries\n")

    @pytest.mark.parametrize("argv, message", [
        (["rate-check", "--dim", "64", "--k-grid", "0"], "k must be >= 1, got 0"),
        (["rate-check", "--dim", "64", "--c", "-1"], "c must be finite and > 0, got -1.0"),
        (["rate-check", "--dim", "64", "--t-grid", "1,2,3"],
         "rate fit needs at least 4 distinct values of T"),
        (["rate-check", "--dim", "64", "--k-grid", "2,128"],
         "rank 128 exceeds min(m, d_block)=64 for block 0"),
        (["ablate", "--n", "64", "--dim", "64", "--k", "0"], "k must be >= 1, got 0"),
        (["ablate", "--n", "64", "--dim", "64", "--tau", "0"], "tau must be >= 1, got 0"),
        (["ablate", "--n", "64", "--dim", "64", "--eta", "-1"],
         "eta must be finite and > 0, got -1.0"),
        (["ablate", "--n", "64", "--dim", "32", "--k", "40"],
         "rank 40 exceeds min(m, d_block)=32 for block 0"),
        (["ablate", "--n", "16", "--dim", "32", "--k", "20"],
         "rank 20 exceeds min(m, d_block)=16 for block 0"),
    ], ids=["rate-zero-k", "rate-negative-c", "rate-short-t-grid", "rate-rank-above-dim",
            "ablate-zero-k", "ablate-zero-tau", "ablate-negative-eta",
            "ablate-rank-above-dim", "ablate-rank-above-n"])
    def test_bad_sweep_or_ablation_spec_builds_no_problem(self, argv, message, tmp_path,
                                                          capsys, monkeypatch):
        monkeypatch.setattr(harness, "build_problem", _refuse)
        monkeypatch.setattr(harness, "_ablation_problem", _refuse)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


    @pytest.mark.parametrize("argv, message", [
        (["run", "--dim", "2048", "--k", "4096", "--steps", "1"],
         "rank 4096 exceeds min(m, d_block)=2048 for block 0"),
        (["run", "--problem", "logistic", "--n", "2048", "--dim", "1024", "--k", "2000",
          "--steps", "1"], "rank 2000 exceeds min(m, d_block)=1024 for block 0"),
        (["run", "--problem", "mlp", "--layers", "8,4,1", "--n", "32", "--k", "6",
          "--steps", "1"], "rank 6 exceeds min(m, d_block)=5 for block 1"),
    ], ids=["quadratic", "logistic", "mlp-second-block"])
    def test_run_rank_above_a_block_builds_no_problem(self, argv, message, tmp_path,
                                                      capsys, monkeypatch):
        built = _spy_on_makers(monkeypatch)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert built == []

    @pytest.mark.parametrize("layers, message", [
        ("8,0,1", "bad layer widths [8, 0, 1]"),
        ("8", "bad layer widths [8]"),
        ("8,16,2", "output width must be 1 (vector targets)"),
    ], ids=["zero-width", "one-width", "wide-output"])
    @pytest.mark.parametrize("opt", ["gradlite", "sgd"])
    def test_run_checks_layer_widths_before_the_rank(self, layers, message, opt,
                                                     tmp_path, capsys, monkeypatch):
        # The default rank 8 exceeds the zero-width block's min(m, d_block),
        # so the rank check alone would name the wrong fault.  Without a rank
        # to check, the maker refuses the widths before it draws any data.
        built = []
        if opt == "gradlite":
            built = _spy_on_makers(monkeypatch)
        else:
            monkeypatch.setattr(SplitMix64, "normal_matrix", _refuse)
        argv = ["run", "--problem", "mlp", "--layers", layers, "--opt", opt,
                "--steps", "2", "--out", str(tmp_path / "out")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert built == []


# A child runs `cli.main` on its own argv; the probe makes the same imports
# and prints its own status, so both hold the same address space after them.
_CHILD = "import sys; from gradlite.cli import main; sys.exit(main())"
_PROBE = "from gradlite.cli import main; print(open('/proc/self/status').read())"


@pytest.fixture(scope="module")
def limited_child():
    """Run the CLI in a child whose address space may grow only 24 MiB past
    its imports, less than the 32 MiB any refused array needs."""
    resource = pytest.importorskip("resource")
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/<pid>/status to read a child's address space")
    src = str(Path(gradlite.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    status = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                            capture_output=True, text=True, timeout=60).stdout
    vm_kib = int(re.search(r"^VmSize:\s+(\d+) kB$", status, re.M).group(1))
    limit = vm_kib * 1024 + 24 * 2**20

    def set_limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    def run(argv):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                              preexec_fn=set_limit, capture_output=True, text=True,
                              timeout=60)
        return done, time.perf_counter() - start
    return run


_OVER_SIZE_CAP = "exceeds the desk-scale cap of 4194304 entries"
_OVER_WORK_CAP = "exceeds the desk-scale cap of 2147483648 for n*d^2 + d^3"


class TestSizeRefusalsUnderAMemoryLimit:
    """Each size cap refuses a spec just above it before any array is drawn,
    so the refusal exits 3 inside a small address space, and quickly."""

    @pytest.mark.parametrize("argv, line", [
        (["run", "--problem", "quadratic", "--dim", "2049", "--steps", "1"],
         f"Jacobian of 2049 x 2049 {_OVER_SIZE_CAP}"),
        (["rate-check", "--dim", "2049"], f"Jacobian of 2049 x 2049 {_OVER_SIZE_CAP}"),
        (["run", "--problem", "logistic", "--n", "8", "--dim", "2049", "--steps", "1"],
         f"Newton Hessian of 2049 x 2049 {_OVER_SIZE_CAP}"),
        (["ablate", "--n", "8", "--dim", "2049"],
         f"Newton Hessian of 2049 x 2049 {_OVER_SIZE_CAP}"),
        (["run", "--problem", "logistic", "--n", "4097", "--dim", "1024", "--steps", "1"],
         f"Jacobian of 4097 x 1024 {_OVER_SIZE_CAP}"),
        # n*d^2 + d^3 = 3 * 2**30, above the Newton work cap of 2**31.
        (["run", "--problem", "logistic", "--n", "2048", "--dim", "1024", "--steps", "1"],
         f"Newton solve of 2048 x 1024 {_OVER_WORK_CAP}"),
        (["ablate", "--n", "2048", "--dim", "1024"],
         f"Newton solve of 2048 x 1024 {_OVER_WORK_CAP}"),
        # 433 parameters: 9686 rows fit under 2**22 entries, 9687 do not.
        (["run", "--problem", "mlp", "--layers", "8,16,16,1", "--n", "9687",
          "--steps", "1"], f"Jacobian of 9687 x 433 {_OVER_SIZE_CAP}"),
    ], ids=["quadratic-run", "quadratic-rate-check", "logistic-hessian-run",
            "logistic-hessian-ablate", "logistic-n-by-d", "logistic-newton-work-run",
            "logistic-newton-work-ablate", "mlp-n-by-params"])
    def test_refusal_just_above_the_cap(self, argv, line, limited_child, tmp_path):
        done, seconds = limited_child(argv + ["--out", str(tmp_path / "out")])
        assert (done.returncode, done.stderr) == (3, f"error: {line}\n")
        assert seconds < 1.0
        assert list(tmp_path.iterdir()) == []


class TestExitCodeProperty:
    def test_the_grammar_has_every_flag_of_each_command(self):
        _, commands = build_parser()
        assert sorted(commands) == sorted(_GRAMMAR)
        for name, sub in commands.items():
            flags = {flag for action in sub._actions if action.dest != "help"
                     for flag in action.option_strings} - {"--config", "--out"}
            always, maybe = _GRAMMAR[name]
            assert flags == set(always) | set(maybe), name

    @given(_invocations())
    @example(("run", {"--steps": "1", "--problem": "logistic", "--n": "8",
                      "--dim": "65536"}, set()))
    @example(("ablate", {"--steps": "1", "--n": "8", "--dim": "65536", "--k": "2"},
              {"--dim"}))
    @example(("run", {"--steps": "1", "--summary": "{tmp}/out"}, {"--summary"}))
    # Overflow inside a run (noise, the update, theta . theta) is data that
    # the divergence check reports, with no numpy warning on stderr.
    @example(("run", {"--steps": "2", "--problem": "quadratic", "--sigma": "1e308"},
              set()))
    @example(("run", {"--steps": "2", "--problem": "logistic", "--eta": "1e308"}, set()))
    @example(("rate-check", {"--t-grid": "1,2,3,4", "--dim": "3", "--k-grid": "1,2",
                             "--c": "1e308"}, set()))
    def test_every_input_exits_by_the_contract(self, invocation):
        command, flags, in_file = invocation
        with tempfile.TemporaryDirectory() as tmp:
            flags = {flag: value.replace("{tmp}", tmp) for flag, value in flags.items()}
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
            assert err.getvalue() == "", argv
        if code in (3, 5):
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, (argv, lines)
            assert lines[0].startswith(("error: ", "io error: ")), (argv, lines)


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
        # The default method, at the default eta, on a 3-block MLP.
        (["run", "--problem", "mlp", "--layers", "8,16,16,1", "--n", "32",
          "--steps", "60", "--seed", "3"], ["mlp_run_seed3.csv", "mlp_run_seed3.json"]),
        *[(["run", "--problem", "mlp", "--layers", "8,16,16,1", "--n", "32",
            "--eta", "0.05", "--steps", "60", "--seed", "3", "--opt", opt, *extra],
           [f"mlp_{opt}_run_seed3.csv", f"mlp_{opt}_run_seed3.json"])
          for opt, extra in (("sgd", []), ("adam", []),
                             ("galore", ["--k", "4", "--tau", "10"]))],
        # Gradlite without feedback: every block's factor, no probe.
        (["run", "--problem", "mlp", "--layers", "8,16,16,1", "--n", "32",
          "--eta", "0.05", "--steps", "60", "--seed", "3", "--ef-mode", "off"],
         ["mlp_off_run_seed3.csv", "mlp_off_run_seed3.json"]),
        # The paper rule on every block, and a random basis at rank 1, where a
        # block's one-column lift takes the kernel's cumsum path.
        (["run", "--problem", "mlp", "--layers", "8,16,16,1", "--n", "32",
          "--eta", "0.05", "--steps", "60", "--seed", "3", "--ef-mode", "paper"],
         ["mlp_paper_run_seed3.csv", "mlp_paper_run_seed3.json"]),
        (["run", "--problem", "mlp", "--layers", "8,16,16,1", "--n", "32",
          "--eta", "0.05", "--steps", "60", "--seed", "3",
          "--basis", "random-projection", "--k", "1"],
         ["mlp_rp_k1_run_seed3.csv", "mlp_rp_k1_run_seed3.json"]),
    ], ids=["run-quadratic", "run-lowrank-logistic", "ablate", "rate-check",
            "run-mlp-default", "run-mlp-sgd", "run-mlp-adam", "run-mlp-galore", "run-mlp-off",
            "run-mlp-paper", "run-mlp-rp-k1"])
    def test_outputs_match_pinned_bytes(self, argv, goldens, tmp_path):
        # Criterion 8's run, ablate and rate-check commands, a logistic run
        # and one MLP run per method (galore refreshes its basis at steps
        # 0, 10, 20, ...), pinned across changes; regenerate only for an
        # intended change of the numbers.
        paths = [tmp_path / name for name in goldens]
        argv = argv + ["--out", str(paths[0])]
        if len(paths) > 1:
            argv += ["--summary", str(paths[1])]
        assert main(argv) == 0
        for path in paths:
            got, want = path.read_bytes(), (GOLDEN_DIR / path.name).read_bytes()
            assert got == want, bytes_mismatch(got, want, path.name)

    def test_a_mismatch_names_its_first_line_and_each_columns_largest_change(self):
        want = b"step,loss,gap,note\n1,0.5,nan,a\n2,0.25,nan,b\n"
        got = b"step,loss,gap,note\n1,0.5,nan,a\n2,0.2500001,1.0,b\n"
        report = bytes_mismatch(got, want, "m.csv").splitlines()
        assert report[:3] == ["m.csv differs from its golden from line 3:",
                              "  got:  2,0.2500001,1.0,b", "  want: 2,0.25,nan,b"]
        assert report[3:] == ["  gap: largest relative difference inf",
                              "  loss: largest relative difference 4e-07"]
        summary = bytes_mismatch(b'{"a": {"b": [1.0, 2.0]}, "c": "x"}',
                                 b'{"a": {"b": [1.0, 4.0]}, "c": "x"}', "s.json")
        assert summary.splitlines()[1:] == ['  got:  {"a": {"b": [1.0, 2.0]}, "c": "x"}',
                                            '  want: {"a": {"b": [1.0, 4.0]}, "c": "x"}',
                                            "  a.b[]: largest relative difference 0.5"]
        assert bytes_mismatch(want + b"3,1,1,c\n", want, "m.csv").splitlines()[1:] == [
            "  got:  3,1,1,c", "  want: <end of file>", "  gap: 3 values, golden 2",
            "  loss: 3 values, golden 2", "  step: 3 values, golden 2"]

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
