import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stbench import cli, corpus, llm
from stbench.cli import main
from stbench.frontend import parse_text, parser, resolve
from stbench.runtime import interp
from stbench.runtime.interp import _MAX_CALL_DEPTH

from test_interp import fb_chain
from test_parser import time_limit
from test_runner import IN_OUT_UNIT

DEC_BLOCK = corpus.block_path("DEC_TO_HEX")
DEC_FIXTURE = corpus.fixture_path("DEC_TO_HEX")

CORRECT_CSV = (
    "test_name,state,DE,expect_HEX\n"
    "tc_zero,1,0,'0'\n"
    "tc_mid,1,4096,'1000'\n"
)
BUG_CSV = CORRECT_CSV + "tc_neg,1,-123,'FF85'\n"


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_run_exit_zero_when_all_pass(tmp_path, capsys):
    suite = tmp_path / "suite.csv"
    suite.write_text(CORRECT_CSV)
    code = run_cli("run", "--unit", DEC_BLOCK, "--suite", suite, "--out", tmp_path / "out")
    assert code == 0
    assert "statement coverage" in capsys.readouterr().out


def test_run_exit_one_on_assertion_failure(tmp_path, capsys):
    suite = tmp_path / "suite.csv"
    suite.write_text(BUG_CSV)
    code = run_cli("run", "--unit", DEC_BLOCK, "--suite", suite, "--out", tmp_path / "out")
    assert code == 1
    out = capsys.readouterr().out
    assert "tc_neg" in out and "expected 'FF85', actual ''" in out


def test_run_exit_two_when_suite_missing(tmp_path, capsys):
    code = run_cli("run", "--unit", DEC_BLOCK, "--suite", tmp_path / "nope.csv", "--out", tmp_path)
    assert code == 2
    assert "suite file not found" in capsys.readouterr().err


def test_run_exit_two_when_unit_broken(tmp_path, capsys):
    unit = tmp_path / "broken.st"
    unit.write_text("FUNCTION_BLOCK OOPS VAR X : INT END_VAR END_FUNCTION_BLOCK")
    suite = tmp_path / "suite.csv"
    suite.write_text(CORRECT_CSV)
    code = run_cli("run", "--unit", unit, "--suite", suite, "--out", tmp_path / "out")
    assert code == 2


def test_run_exit_two_on_lex_error_without_traceback(tmp_path, capsys):
    unit = tmp_path / "unterminated.st"
    unit.write_text(
        "FUNCTION_BLOCK OOPS\nVAR_OUTPUT S : STRING; END_VAR\nS := 'never closed;\nEND_FUNCTION_BLOCK\n"
    )
    suite = tmp_path / "suite.csv"
    suite.write_text("test_name,state,expect_S\ntc,1,'x'\n")
    code = run_cli("run", "--unit", unit, "--suite", suite, "--out", tmp_path / "out")
    assert code == 2
    captured = capsys.readouterr()
    assert "unterminated.st:3:6: unterminated string literal" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_generate_writes_suite_from_mock(tmp_path, capsys):
    code = run_cli(
        "generate",
        "--unit", DEC_BLOCK,
        "--provider", "mock",
        "--fixture", DEC_FIXTURE,
        "--out", tmp_path,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "7 cases" in out
    assert (tmp_path / "suite.csv").exists()
    assert (tmp_path / "exchange_0.json").exists()


def test_generate_drops_unknown_columns_with_warning(tmp_path, capsys):
    fixture = tmp_path / "resp.txt"
    fixture.write_text(
        "```csv\ntest_name,state,DE,COMMENT,expect_HEX\ntc,1,4,irrelevant,'4'\n```\n"
    )
    code = run_cli(
        "generate", "--unit", DEC_BLOCK, "--provider", "mock",
        "--fixture", fixture, "--out", tmp_path,
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "dropping unknown column 'COMMENT'" in err
    assert "COMMENT" not in (tmp_path / "suite.csv").read_text()
    assert "dropped column COMMENT" in (tmp_path / "generate_warnings.txt").read_text()


def test_pipeline_notes_dropped_columns_in_report_metadata(tmp_path):
    fixture = tmp_path / "resp.txt"
    fixture.write_text(
        "```csv\ntest_name,state,DE,NOTES,expect_HEX\ntc,1,4,hello,'4'\n```\n"
    )
    code = run_cli(
        "pipeline", "--unit", DEC_BLOCK, "--provider", "mock",
        "--fixture", fixture, "--out", tmp_path / "run", "--fixed-clock",
    )
    assert code == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["meta"]["warnings"] == ["dropped column NOTES"]


def test_pipeline_http_without_key_exits_two_at_generate(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("STBENCH_MISSING_KEY", raising=False)
    code = run_cli(
        "pipeline", "--unit", DEC_BLOCK, "--provider", "http",
        "--endpoint", "http://localhost:1/v1/chat",
        "--api-key-env", "STBENCH_MISSING_KEY",
        "--out", tmp_path,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "STBENCH_MISSING_KEY" in err
    assert not (tmp_path / "suite.csv").exists()


def test_generate_no_csv_found_exits_two_and_persists_exchange(tmp_path, capsys):
    fixture = tmp_path / "resp.txt"
    fixture.write_text("I'm sorry, I cannot produce test cases for that.\n")
    code = run_cli(
        "generate", "--unit", DEC_BLOCK, "--provider", "mock",
        "--fixture", fixture, "--out", tmp_path,
    )
    assert code == 2
    assert (tmp_path / "exchange_0.json").exists()
    assert "no CSV region" in capsys.readouterr().err


def test_generate_requires_fixture_for_mock(tmp_path, capsys):
    code = run_cli("generate", "--unit", DEC_BLOCK, "--provider", "mock", "--out", tmp_path)
    assert code == 2
    assert "--fixture" in capsys.readouterr().err


def test_pipeline_artifact_completeness(tmp_path):
    code = run_cli(
        "pipeline",
        "--unit", DEC_BLOCK,
        "--provider", "mock",
        "--fixture", DEC_FIXTURE,
        "--out", tmp_path,
        "--fixed-clock",
    )
    assert code == 1  # fixture exposes the negative-input bug
    for name in (
        "report.json",
        "report.txt",
        "coverage.lcov",
        "coverage.annotated.txt",
        "harness.st",
        "suite.csv",
        "monitor.txt",
        "exchange_0.json",
    ):
        assert (tmp_path / name).exists(), name
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema"] == 1
    assert report["metrics"]["statement_coverage_pct"] == 100.0
    # artifact paths are relative to the run directory, and each is there
    assert report["artifacts"]["coverage_lcov"] == "coverage.lcov"
    assert report["artifacts"]["suite"] == "suite.csv"
    for name in report["artifacts"].values():
        assert (tmp_path / name).is_file(), name


def test_pipeline_prompt_modes_persist_distinct_prompts(tmp_path):
    for mode in ("simple", "enhanced"):
        run_cli(
            "pipeline", "--unit", DEC_BLOCK, "--provider", "mock",
            "--fixture", DEC_FIXTURE, "--out", tmp_path / mode,
            "--mode", mode, "--fixed-clock",
        )
    simple = json.loads((tmp_path / "simple" / "exchange_0.json").read_text())["prompt"]
    enhanced = json.loads((tmp_path / "enhanced" / "exchange_0.json").read_text())["prompt"]
    assert simple != enhanced
    assert len(enhanced) > len(simple)


def test_fixed_clock_exchange_is_byte_identical(tmp_path):
    for sub in ("a", "b"):
        code = run_cli(
            "pipeline", "--unit", corpus.block_path("GEN_SIN"), "--provider", "mock",
            "--fixture", corpus.fixture_path("GEN_SIN"), "--out", tmp_path / sub, "--fixed-clock",
        )
        assert code in (0, 1)
    first = (tmp_path / "a" / "exchange_0.json").read_bytes()
    assert first == (tmp_path / "b" / "exchange_0.json").read_bytes()
    assert json.loads(first)["latency_ms"] is None


def test_case_longer_than_the_scan_cap_exits_two_at_once(tmp_path, capsys):
    suite = tmp_path / "suite.csv"
    suite.write_text("test_name,state,dwell_cycles,B1,expect_GO\ntc_forever,1,999999,TRUE,TRUE\n")
    with time_limit(10):
        code = run_cli(
            "run", "--unit", corpus.block_path("TRAFFIC_CTRL"), "--suite", suite,
            "--out", tmp_path / "out",
        )
    assert code == 2
    captured = capsys.readouterr()
    assert "tc_forever: total dwell of 999999 cycles cannot finish within the 100000-scan cap" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out" / "report.json").exists()


def test_string_cell_a_single_byte_string_cannot_hold_exits_two(tmp_path, capsys):
    unit = tmp_path / "ECHO.st"
    unit.write_text(
        "FUNCTION_BLOCK ECHO\nVAR_INPUT S : STRING; END_VAR\nVAR_OUTPUT O : STRING; END_VAR\n"
        "O := S;\nEND_FUNCTION_BLOCK\n"
    )
    suite = tmp_path / "suite.csv"
    suite.write_text("test_name,state,S,expect_O\ntc,1,'\u20ac','\u20ac'\n", encoding="utf-8")
    code = run_cli("run", "--unit", unit, "--suite", suite, "--out", tmp_path / "out")
    assert code == 2
    captured = capsys.readouterr()
    assert "U+20AC" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out" / "harness.st").exists()


@pytest.mark.parametrize("flag,value", [("--atol", "nan"), ("--rtol", "inf")])
def test_non_finite_tolerance_exits_two(tmp_path, capsys, flag, value):
    suite = tmp_path / "suite.csv"
    suite.write_text(CORRECT_CSV)
    code = run_cli("run", "--unit", DEC_BLOCK, "--suite", suite, "--out", tmp_path / "out", flag, value)
    assert code == 2
    assert "must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("cycle_time_ms", "0", "cycle_time_ms must be positive, got 0"),
        ("cycle_time_ms", "-10", "cycle_time_ms must be positive, got -10"),
        ("atol", "-1", "atol must be a finite number >= 0, got -1.0"),
        ("rtol", "-0.5", "rtol must be a finite number >= 0, got -0.5"),
    ],
    ids=["zero-cycle", "negative-cycle", "negative-atol", "negative-rtol"],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_unusable_timing_or_tolerance_exits_two(tmp_path, capsys, key, value, message, source):
    out = tmp_path / "out"
    common = ["--unit", DEC_BLOCK, "--provider", "mock", "--fixture", DEC_FIXTURE, "--out", out]
    if source == "flag":
        code = run_cli("pipeline", *common, "--" + key.replace("_", "-"), value)
    else:
        cfg = tmp_path / "stbench.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code = run_cli("pipeline", *common, "--config", cfg)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "stbench.cfg"
    cfg.write_text(
        f"unit = {DEC_BLOCK}\n"
        "provider = mock\n"
        f"fixture = {DEC_FIXTURE}\n"
        f"out = {tmp_path / 'from_config'}\n"
        "# comment line\n"
        "cycle_time_ms = 20\n"
    )
    code = run_cli("generate", "--config", cfg)
    assert code == 0
    assert (tmp_path / "from_config" / "suite.csv").exists()

    code = run_cli("generate", "--config", cfg, "--out", tmp_path / "flag_wins")
    assert code == 0
    assert (tmp_path / "flag_wins" / "suite.csv").exists()


def test_config_file_rejects_an_unknown_key(tmp_path, capsys):
    suite = tmp_path / "suite.csv"
    suite.write_text(CORRECT_CSV)
    cfg = tmp_path / "stbench.cfg"
    cfg.write_text(f"unit = {DEC_BLOCK}\n# the key is cycle_time_ms\ncycle_time = 50\n")
    code = run_cli("run", "--config", cfg, "--suite", suite, "--out", tmp_path / "out")
    assert code == 2
    assert capsys.readouterr().err == f"error: {cfg}:3: unknown key cycle_time\n"
    assert not (tmp_path / "out").exists()


def _unusable_input(tmp_path, name):
    """(argv, the one error line) of `run` with one unusable input."""
    unit, suite, out = DEC_BLOCK, tmp_path / "suite.csv", tmp_path / "out"
    suite.write_text(CORRECT_CSV)
    if name == "config-line-without-equals":
        cfg = tmp_path / "stbench.cfg"
        cfg.write_text(f"unit {DEC_BLOCK}\n")
        return ["run", "--config", cfg, "--suite", suite, "--out", out], f"{cfg}:1: expected key = value"
    if name == "unit-without-function-block":
        unit = tmp_path / "main.st"
        unit.write_text("PROGRAM MAIN\nVAR X : INT; END_VAR\nX := 1;\nEND_PROGRAM\n")
        error = f"{unit}: no FUNCTION_BLOCK found"
    elif name == "unknown-expect-column":
        suite.write_text("test_name,state,DE,expect_NOPE\ntc,1,4,1\n")
        error = "suite rejected: -/expect_NOPE: unknown output column"
    elif name == "empty-expect-header":
        suite.write_text("test_name,state,DE,expect_\ntc,1,4,1\n")
        error = "suite rejected: empty expect_ column name (row 1)"
    elif name == "empty-test-name":
        suite.write_text("test_name,state,DE,expect_HEX\n ,1,4,'4'\n")
        error = "suite rejected: empty test_name (row 2)"
    else:
        assert name == "directory-at-harness-st"
        (out / "harness.st").mkdir(parents=True)
        error = f"[report] [Errno 21] Is a directory: '{out / 'harness.st'}'"
    return ["run", "--unit", unit, "--suite", suite, "--out", out], error


@pytest.mark.parametrize("name", [
    "config-line-without-equals", "unit-without-function-block", "unknown-expect-column",
    "empty-expect-header", "empty-test-name", "directory-at-harness-st",
])
def test_an_unusable_input_exits_two_with_one_error_line(tmp_path, capsys, name):
    argv, error = _unusable_input(tmp_path, name)
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_config_file_accepts_every_key(tmp_path):
    fixture = tmp_path / "resp.txt"
    fixture.write_text("```csv\ntest_name,state,DE,expect_HEX\ntc,1,4,'4'\n```\n")
    lib = tmp_path / "lib.st"
    lib.write_text("FUNCTION ONE : INT\nONE := 1;\nEND_FUNCTION\n")
    values = {
        "unit": DEC_BLOCK, "lib": lib, "fb": "dec_to_hex", "mode": "simple", "provider": "mock",
        "endpoint": "unused", "model": "unused", "api_key_env": "UNUSED", "temperature": 0.5,
        "max_tokens": 100, "timeout_s": 5, "fixture": fixture, "suite": tmp_path / "unused.csv",
        "out": tmp_path / "out", "label": "lbl", "cycle_time_ms": 20, "atol": 0.5, "rtol": 0.5,
        "fixed_clock": "yes",
    }
    assert values.keys() == cli._OPTIONS.keys()
    cfg = tmp_path / "stbench.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    assert run_cli("pipeline", "--config", cfg) == 0
    report = json.loads((tmp_path / "out" / "lbl" / "report.json").read_text())
    assert (report["meta"]["mode"], report["meta"]["cycle_time_ms"], report["meta"]["generated_at"]) == ("simple", 20, None)


# an unusable value of each option: (value, arguments it needs besides the
# usual usable ones, whether the option's reader rejects it); None stands
# for an existing file
UNUSABLE_VALUES = {
    "unit": ("missing.st", (), False),
    "lib": ("missing.st", (), False),
    "fb": ("NOPE", (), False),
    "mode": ("bogus", (), True),
    "provider": ("bogus", (), True),
    "endpoint": ("", ("--provider", "http"), False),
    "model": ("a\0b", (), True),
    "api_key_env": ("A\0B", (), True),
    "temperature": ("5", (), False),
    "max_tokens": ("many", (), True),
    "timeout_s": ("inf", (), False),
    "fixture": ("a\0b", (), True),
    "suite": ("missing.csv", (), False),
    "out": (None, (), False),
    "label": ("a\0b", (), True),
    "cycle_time_ms": ("abc", (), True),
    "atol": ("1e-3x", (), True),
    "rtol": ("nan", (), False),
    "fixed_clock": ("maybe", (), True),
}
SWITCHES = {"fixed_clock"}  # a flag that takes no value
PATHS = {"fixture", "suite", "out"}  # one path each, which may not be blank


def test_every_option_has_an_unusable_value_to_test():
    assert UNUSABLE_VALUES.keys() == cli._OPTIONS.keys()
    assert SWITCHES == {name for name, o in cli._OPTIONS.items() if o.metadata["read"] is cli._yes_no}
    assert PATHS == {name for name, o in cli._OPTIONS.items() if o.metadata["read"] is cli._path}


@pytest.mark.parametrize(
    "name,source,blank",
    [pytest.param(name, "flag", False, id=f"{name}-flag") for name in UNUSABLE_VALUES if name not in SWITCHES]
    + [pytest.param(name, "config", False, id=f"{name}-config") for name in UNUSABLE_VALUES]
    # an empty path would name the working directory
    + [pytest.param(name, source, True, id=f"{name}-{source}-blank") for name in sorted(PATHS) for source in ("flag", "config")],
)
def test_an_unusable_option_value_exits_two_from_a_flag_or_a_config_line(
    tmp_path, capsys, monkeypatch, name, source, blank
):
    value, extra, by_reader = ("", (), True) if blank else UNUSABLE_VALUES[name]
    monkeypatch.chdir(tmp_path)  # where a blank path read as "." would write
    if value is None:
        (tmp_path / "a_file").write_text("")
        value = str(tmp_path / "a_file")
    elif value.startswith("missing"):
        value = str(tmp_path / value)
    suite = tmp_path / "suite.csv"
    suite.write_text(CORRECT_CSV)
    command = "run" if name == "suite" else "pipeline"
    args = {"--unit": DEC_BLOCK, "--out": tmp_path / "out"}
    args.update({"--suite": suite} if command == "run" else {"--provider": "mock", "--fixture": DEC_FIXTURE})
    args.update(zip(extra[::2], extra[1::2]))
    flag = "--" + name.replace("_", "-")
    args.pop(flag, None)
    argv = [command, *(str(a) for pair in args.items() for a in pair)]
    if source == "flag":
        where = flag
        argv += [flag, value]
    else:
        cfg = tmp_path / "stbench.cfg"
        cfg.write_text(f"{name} = {value}\n")
        where = f"{cfg}:1: {name}"
        argv += ["--config", str(cfg)]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ")
    assert captured.out == "" and "Traceback" not in captured.err
    assert sorted(tmp_path.iterdir()) == before  # no output directory
    if blank:
        assert line == f"error: {where}: expected a path, got ''"
    elif by_reader:
        assert line.startswith(f"error: {where}: expected ")
    else:
        assert name in line or value in line


COMMAND_FLAGS = {
    "run": {
        "--unit", "--lib", "--fb", "--mode", "--provider", "--suite", "--out", "--label",
        "--cycle-time-ms", "--atol", "--rtol", "--fixed-clock",
    },
    "generate": {
        "--unit", "--lib", "--fb", "--mode", "--provider", "--endpoint", "--model", "--api-key-env",
        "--temperature", "--max-tokens", "--timeout-s", "--fixture", "--out", "--label",
        "--cycle-time-ms", "--atol", "--rtol", "--fixed-clock",
    },
}
COMMAND_FLAGS["pipeline"] = COMMAND_FLAGS["generate"]


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_the_declared_options_of_the_command_with_their_choices(capsys, command):
    declared = {"--" + n.replace("_", "-") for n, o in cli._OPTIONS.items() if command in o.metadata["commands"]}
    assert declared == COMMAND_FLAGS[command]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert set(re.findall(r"--[a-z][a-z-]*", text)) == declared | {"--help", "--config"}
    assert "--mode {simple,enhanced}" in text and "--provider {mock,http}" in text


def test_run_without_a_suite_names_the_missing_option(tmp_path, capsys):
    assert run_cli("run", "--unit", DEC_BLOCK, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == "error: --suite is required\n"
    assert not (tmp_path / "out").exists()


def test_list_flags_repeat_and_split_on_commas():
    args = cli._parser().parse_args(["run", "--unit", "a.st", "--unit", "b.st, c.st", "--lib", "l.st"])
    cfg = cli._merge_config(args)
    assert (cfg.unit, cfg.lib) == ((Path("a.st"), Path("b.st"), Path("c.st")), (Path("l.st"),))


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_a_non_finite_timeout_exits_two_before_any_connection(tmp_path, capsys, monkeypatch, value):
    calls = []
    monkeypatch.setattr(llm, "_post", lambda *a, **k: calls.append(a))
    code = run_cli(
        "pipeline", "--unit", DEC_BLOCK, "--provider", "http", "--endpoint", "http://127.0.0.1:9/v1",
        "--timeout-s", value, "--out", tmp_path / "out",
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: timeout_s must be a finite number > 0, got {value}\n"
    assert calls == [] and not (tmp_path / "out").exists()


def test_sources_that_share_a_file_name_are_named_by_their_paths(tmp_path):
    libs = []
    for folder, name in (("a", "ONE"), ("b", "TWO")):
        lib = tmp_path / folder / "lib.st"
        lib.parent.mkdir()
        lib.write_text(f"FUNCTION {name} : INT\n{name} := 1;\nEND_FUNCTION\n")
        libs += ["--lib", lib]
    unit = tmp_path / "user.st"
    unit.write_text(
        "FUNCTION_BLOCK USER\nVAR_OUTPUT Y : INT; END_VAR\n"
        "Y := ONE();\nIF Y > 1 THEN\n  Y := TWO();\nEND_IF;\nEND_FUNCTION_BLOCK\n"
    )
    suite = tmp_path / "suite.csv"
    suite.write_text("test_name,state,expect_Y\ntc,1,1\n")
    assert run_cli("run", "--unit", unit, *libs, "--suite", suite, "--out", tmp_path / "out") == 0
    records = (tmp_path / "out" / "coverage.lcov").read_text().split("end_of_record\n")[:-1]
    sources = [r.splitlines()[0] for r in records]
    assert sources == ["SF:user.st", f"SF:{tmp_path / 'a' / 'lib.st'}", f"SF:{tmp_path / 'b' / 'lib.st'}"]
    # ONE's statement ran, TWO's did not
    assert "DA:2,0\n" not in records[1] and "DA:2,0\n" in records[2]


def test_corpus_list_static_and_complete(capsys):
    outputs = []
    for _ in range(3):
        assert run_cli("corpus", "list") == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    lines = outputs[0].splitlines()
    assert len(lines) - 1 >= 5  # at least five bundled blocks
    for required in ("DEC_TO_HEX", "GEN_SIN", "TRAFFIC_CTRL", "COUNT_ACC", "PI_CTRL"):
        assert any(required in l for l in lines)
    # every entry names its challenge
    for l in lines[1:]:
        assert l.split()  # non-empty rows


def test_missing_unit_flag_is_error(capsys):
    assert run_cli("run") == 2
    assert "--unit is required" in capsys.readouterr().err


def test_label_creates_run_subdirectory(tmp_path):
    suite = tmp_path / "suite.csv"
    suite.write_text(CORRECT_CSV)
    code = run_cli(
        "run", "--unit", DEC_BLOCK, "--suite", suite,
        "--out", tmp_path / "runs", "--label", "experiment_1",
    )
    assert code == 0
    assert (tmp_path / "runs" / "experiment_1" / "report.json").exists()


def test_run_with_two_units_writes_both_run_directories(tmp_path, capsys):
    suite = tmp_path / "s.csv"
    suite.write_text("test_name,state,A,B,PICKB,expect_Q\ntc,1,TRUE,FALSE,FALSE,TRUE\n")
    mux_copy = tmp_path / "mux_copy.st"
    mux_copy.write_text(corpus.block_path("LOGIC_MUX").read_text())
    units = f"{corpus.block_path('LOGIC_MUX')},{mux_copy}"
    code = run_cli("run", "--unit", units, "--suite", suite, "--out", tmp_path / "out")
    assert code == 0
    for name in ("logic_mux", "mux_copy"):
        report = json.loads((tmp_path / "out" / name / "report.json").read_text())
        assert report["metrics"]["cases_total"] == 1
    assert capsys.readouterr().out.count("artifacts in") == 2


def test_jobs_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--unit", DEC_BLOCK, "--suite", tmp_path / "s.csv", "--jobs", "2")
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_run_exit_two_on_unit_with_stray_closer(tmp_path, capsys):
    unit = tmp_path / "stray.st"
    unit.write_text("FUNCTION_BLOCK X\nEND_IF;")
    suite = tmp_path / "suite.csv"
    suite.write_text(CORRECT_CSV)
    with time_limit(5.0):
        code = run_cli("run", "--unit", unit, "--suite", suite, "--out", tmp_path / "out")
    assert code == 2
    captured = capsys.readouterr()
    assert "stray.st:2:1: unexpected keyword 'END_IF'" in captured.err
    assert "Traceback" not in captured.err + captured.out


HELP_3 = "FUNCTION_BLOCK HELP\nVAR_OUTPUT Q : INT; END_VAR\nQ := 1;\nQ := Q + 1;\nQ := Q + 1;\nEND_FUNCTION_BLOCK\n"
HELP_1 = "FUNCTION_BLOCK HELP\nVAR_OUTPUT Q : INT; END_VAR\nQ := 7;\nEND_FUNCTION_BLOCK\n"
USES_HELP = (
    "FUNCTION_BLOCK USER\nVAR_OUTPUT Y : INT; END_VAR\nVAR H : HELP; END_VAR\n"
    "H();\nY := H.Q;\nEND_FUNCTION_BLOCK\n"
)


def test_run_rejects_a_pou_defined_in_two_libraries(tmp_path, capsys):
    (tmp_path / "help3.st").write_text(HELP_3)
    (tmp_path / "help1.st").write_text(HELP_1)
    (tmp_path / "user.st").write_text(USES_HELP)
    (tmp_path / "suite.csv").write_text("test_name,state,expect_Y\ntc,1,3\n")
    code = run_cli(
        "run", "--unit", tmp_path / "user.st", "--lib", tmp_path / "help3.st",
        "--lib", tmp_path / "help1.st", "--suite", tmp_path / "suite.csv", "--out", tmp_path / "out",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "duplicate declaration of HELP in help3.st and help1.st" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_generate_rejects_a_pou_defined_in_two_libraries_before_the_query(tmp_path, capsys):
    (tmp_path / "help3.st").write_text(HELP_3)
    (tmp_path / "help1.st").write_text(HELP_1)
    (tmp_path / "user.st").write_text(USES_HELP)
    (tmp_path / "response.txt").write_text("```csv\ntest_name,state,expect_Y\ntc,1,3\n```\n")
    code = run_cli(
        "generate", "--unit", tmp_path / "user.st", "--lib", tmp_path / "help3.st",
        "--lib", tmp_path / "help1.st", "--provider", "mock", "--fixture", tmp_path / "response.txt",
        "--out", tmp_path / "out",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: duplicate declaration of HELP in help3.st and help1.st\n"
    assert not (tmp_path / "out" / "exchange_0.json").exists()
    assert not (tmp_path / "out" / "suite.csv").exists()


def test_generate_and_run_reject_a_generated_name_before_the_query(tmp_path, capsys):
    (tmp_path / "help1.st").write_text(HELP_1)
    (tmp_path / "user.st").write_text(USES_HELP + "PROGRAM TEST_RUNNER\nVAR U : USER; END_VAR\nU();\nEND_PROGRAM\n")
    (tmp_path / "response.txt").write_text("```csv\ntest_name,state,expect_Y\ntc,1,7\n```\n")
    (tmp_path / "suite.csv").write_text("test_name,state,expect_Y\ntc,1,7\n")
    sources = ["--unit", tmp_path / "user.st", "--lib", tmp_path / "help1.st", "--out", tmp_path / "out"]
    for command in (
        ["generate", "--provider", "mock", "--fixture", tmp_path / "response.txt"],
        ["run", "--suite", tmp_path / "suite.csv"],
    ):
        assert run_cli(*command, *sources) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: TEST_RUNNER in user.st is reserved for the generated harness\n"
        assert not (tmp_path / "out" / "exchange_0.json").exists()
        assert not (tmp_path / "out" / "suite.csv").exists()


def test_config_unit_list_is_split_on_commas(tmp_path):
    units = []
    for name in ("first", "second"):
        unit = tmp_path / name / "DEC_TO_HEX.st" if name == "first" else tmp_path / "dec_copy.st"
        unit.parent.mkdir(exist_ok=True)
        unit.write_text(DEC_BLOCK.read_text())
        units.append(unit)
    suite = tmp_path / "suite.csv"
    suite.write_text(CORRECT_CSV)
    cfg = tmp_path / "stbench.cfg"
    cfg.write_text(f"unit = {units[0]}, {units[1]}\nsuite = {suite}\nout = {tmp_path / 'out'}\n")
    assert run_cli("run", "--config", cfg) == 0
    assert (tmp_path / "out" / "dec_to_hex" / "report.json").exists()
    assert (tmp_path / "out" / "dec_copy" / "report.json").exists()


def test_library_diagnostics_name_the_library_file(tmp_path, capsys):
    lib = tmp_path / "badlib.st"
    lib.write_text("FUNCTION_BLOCK HELP\nVAR_OUTPUT Q : INT; END_VAR\nQ := ;\nEND_FUNCTION_BLOCK\n")
    suite = tmp_path / "suite.csv"
    suite.write_text(CORRECT_CSV)
    code = run_cli(
        "run", "--unit", DEC_BLOCK, "--lib", lib, "--suite", suite, "--out", tmp_path / "out"
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: badlib.st:3:6: unexpected punctuation ';' (expected expression)\n"
    )


def test_pipeline_parses_each_source_once(tmp_path, monkeypatch):
    parsed = []
    real_parse = parser.parse

    def counting_parse(tokens, src=None):
        parsed.append(src)
        return real_parse(tokens, src)

    monkeypatch.setattr(parser, "parse", counting_parse)
    code = run_cli(
        "pipeline", "--unit", DEC_BLOCK, "--provider", "mock", "--fixture", DEC_FIXTURE,
        "--out", tmp_path, "--fixed-clock",
    )
    assert code == 1
    # the unit only: the harness is built as nodes, and harness.st is printed
    assert [src.origin for src in parsed] == ["DEC_TO_HEX.st"]


def test_unknown_fb_exits_two_without_traceback(tmp_path, capsys):
    code = run_cli(
        "generate", "--unit", DEC_BLOCK, "--fb", "nope", "--provider", "mock",
        "--fixture", DEC_FIXTURE, "--out", tmp_path,
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {DEC_BLOCK}: unknown function block NOPE\n"
    assert "Traceback" not in captured.err + captured.out


def test_a_block_with_a_var_in_out_parameter_exits_two_at_validation(tmp_path, capsys):
    # the block is checked as the unit loads: before the suite is read, and
    # before the provider is queried, so generate leaves nothing behind
    unit = tmp_path / "acc.st"
    unit.write_text(IN_OUT_UNIT)
    suite = tmp_path / "suite.csv"
    suite.write_text("test_name,state,X,expect_Y\ntc,1,1,1\n")
    fixture = tmp_path / "resp.txt"
    fixture.write_text("```csv\ntest_name,state,X,expect_Y\ntc,1,1,1\n```\n")
    error = f"error: {unit}: ACC has VAR_IN_OUT parameter T, which no suite column can bind\n"
    assert run_cli("run", "--unit", unit, "--suite", suite, "--out", tmp_path / "run") == 2
    assert capsys.readouterr().err == error
    assert not (tmp_path / "run").exists()
    assert run_cli("generate", "--unit", unit, "--provider", "mock", "--fixture", fixture, "--out", tmp_path / "gen") == 2
    assert capsys.readouterr() == ("", error)
    assert not (tmp_path / "gen").exists()


# blocks no suite can drive: (variable sections, the rule each breaks)
UNDRIVABLE = [
    ("VAR_INPUT X : DINT; END_VAR\nVAR_IN_OUT T : DINT; END_VAR\nVAR_OUTPUT Y : DINT; END_VAR",
     "B has VAR_IN_OUT parameter T, which no suite column can bind"),
    ("VAR_INPUT X : DINT; END_VAR", "B has no output that a CSV cell can hold"),
    ("VAR_OUTPUT W : ARRAY[1..3] OF INT; END_VAR", "B has no output that a CSV cell can hold"),
]


@pytest.mark.parametrize("sections,rule", UNDRIVABLE, ids=["var-in-out", "no-output", "array-outputs-only"])
def test_a_block_no_suite_can_drive_stops_generate_before_the_query(tmp_path, capsys, monkeypatch, sections, rule):
    def post(*args, **kwargs):
        pytest.fail("the provider was queried")

    monkeypatch.setattr(llm, "_post", post)
    unit = tmp_path / "b.st"
    unit.write_text(f"FUNCTION_BLOCK B\n{sections}\nEND_FUNCTION_BLOCK\n")
    code = run_cli(
        "generate", "--unit", unit, "--provider", "http", "--endpoint", "http://127.0.0.1:9/v1",
        "--out", tmp_path / "out",
    )
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {unit}: {rule}\n")
    assert not (tmp_path / "out").exists()


def test_missing_library_file_exits_two(tmp_path, capsys):
    suite = tmp_path / "suite.csv"
    suite.write_text(CORRECT_CSV)
    code = run_cli(
        "run", "--unit", DEC_BLOCK, "--lib", tmp_path / "gone.st", "--suite", suite,
        "--out", tmp_path / "out",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "gone.st" in captured.err
    assert "Traceback" not in captured.err + captured.out


# a path the command cannot use: (command, the flag giving it, what it is)
UNUSABLE_PATHS = [
    ("generate", "--fixture", "missing"),
    ("generate", "--fixture", "directory"),
    ("pipeline", "--fixture", "missing"),
    ("pipeline", "--fixture", "directory"),
    ("run", "--suite", "directory"),
    ("run", "--out", "file"),
    ("pipeline", "--out", "file"),
    ("run", "--unit", "not-utf8"),
    ("run", "--lib", "not-utf8"),
    ("run", "--suite", "not-utf8"),
    ("generate", "--fixture", "not-utf8"),
    ("pipeline", "--fixture", "not-utf8"),
    ("run", "--config", "not-utf8"),
]


def unusable_path_argv(tmp_path, command, flag, kind):
    """The command's arguments, all usable but `flag`'s path, and that path."""
    path = tmp_path / "given"
    if kind == "directory":
        path.mkdir()
    elif kind == "file":
        path.write_text("")
    elif kind == "not-utf8":
        path.write_bytes(b"FUNCTION_BLOCK \xff")
    suite = tmp_path / "suite.csv"
    suite.write_text(CORRECT_CSV)
    args = {"--unit": DEC_BLOCK, "--out": tmp_path / "out"}
    args.update({"--suite": suite} if command == "run" else {"--provider": "mock", "--fixture": DEC_FIXTURE})
    args[flag] = path
    return [command, *(str(a) for pair in args.items() for a in pair)], path


@pytest.mark.parametrize("command,flag,kind", UNUSABLE_PATHS, ids=[f"{c}-{f[2:]}-{k}" for c, f, k in UNUSABLE_PATHS])
def test_an_unusable_path_exits_two_with_one_error_line_naming_it(tmp_path, capsys, command, flag, kind):
    argv, path = unusable_path_argv(tmp_path, command, flag, kind)
    assert main(argv) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and str(path) in line
    assert "Traceback" not in captured.out
    assert not (tmp_path / "out").exists()  # nor a failed query a directory


def test_a_failed_http_query_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(llm, "_post", lambda *a, **k: calls.append(a) or SimpleNamespace(status_code=401))
    code = run_cli(
        "generate", "--unit", DEC_BLOCK, "--provider", "http", "--endpoint", "http://127.0.0.1:9/v1",
        "--out", tmp_path / "out",
    )
    assert code == 2 and len(calls) == 1
    assert capsys.readouterr().err == "error: provider query failed: provider rejected credentials (HTTP 401)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out,error", [("out", "[Errno 17] File exists"), ("out/sub/dir", "[Errno 20] Not a directory")])
def test_an_output_path_that_is_a_file_stops_generate_before_the_query(tmp_path, capsys, monkeypatch, out, error):
    calls = []
    monkeypatch.setattr(llm, "_post", lambda *a, **k: calls.append(a))
    (tmp_path / "out").write_text("")
    code = run_cli(
        "generate", "--unit", DEC_BLOCK, "--provider", "http", "--endpoint", "http://127.0.0.1:9/v1",
        "--out", tmp_path / out,
    )
    assert code == 2 and calls == []
    # the error making the directory would raise
    assert capsys.readouterr().err == f"error: {error}: '{tmp_path / out}'\n"


def test_an_unusable_path_prints_no_traceback_in_a_child_process(tmp_path):
    argv, path = unusable_path_argv(tmp_path, "pipeline", "--out", "file")
    done = run_child(tmp_path, *argv)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("error: ") and str(path) in line


def test_a_non_utf8_warnings_file_left_in_the_run_directory_exits_two_naming_it(tmp_path, capsys):
    suite = tmp_path / "suite.csv"
    suite.write_text(CORRECT_CSV)
    warnings = tmp_path / "out" / "generate_warnings.txt"
    warnings.parent.mkdir()
    warnings.write_bytes(b"dropped column \xff\n")
    assert run_cli("run", "--unit", DEC_BLOCK, "--suite", suite, "--out", tmp_path / "out") == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and str(warnings) in line


BODY_FB = (
    "FUNCTION_BLOCK BODY\nVAR_INPUT X : INT; END_VAR\nVAR_OUTPUT Y : INT; END_VAR\n"
    "VAR I : INT; END_VAR\n{body}\nEND_FUNCTION_BLOCK\n"
)
BODY_SUITE = "test_name,state,X,expect_Y\ntc,1,0,0\n"
LIMIT = parser.MAX_DEPTH


def run_body(tmp_path, body):
    unit = tmp_path / "body.st"
    unit.write_text(BODY_FB.format(body=body))
    suite = tmp_path / "suite.csv"
    suite.write_text(BODY_SUITE)
    return run_cli("run", "--unit", unit, "--suite", suite, "--out", tmp_path / "out")


@pytest.mark.parametrize(
    "body,message",
    [
        ("Y := " + "(" * 120 + "X" + ")" * 120 + ";", f"body.st:5:{5 + LIMIT}: expression"),
        ("IF X > 0 THEN\n" * 400 + "Y := 1;\n" + "END_IF;\n" * 400, f"body.st:{LIMIT + 6}:1: statements"),
        ("Y := " + " + ".join(["X"] * 400) + ";", f"body.st:5:{4 + 4 * LIMIT}: expression"),
    ],
    ids=["120-parens", "400-ifs", "400-term-sum"],
)
def test_run_exit_two_on_nesting_past_the_limit(tmp_path, capsys, body, message):
    assert run_body(tmp_path, body) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message} nested deeper than {LIMIT} levels\n"
    assert "Traceback" not in captured.out


def test_unit_at_both_nesting_limits_runs(tmp_path):
    # every statement kind around the deepest expression, each body run once,
    # so parsing, resolving, compiling and executing all reach the limits
    body = "Y := " + "ABS(" * (LIMIT - 1) + "X" + ")" * (LIMIT - 1) + ";"
    kinds = [
        "IF X = 0 THEN\n{}\nEND_IF;",
        "FOR I := 1 TO 1 DO\n{}\nEND_FOR;",
        "CASE X OF\n0: {}\nEND_CASE;",
        "REPEAT\n{}\nUNTIL TRUE\nEND_REPEAT;",
        "I := 0;\nWHILE I = 0 DO\nI := 1;\n{}\nEND_WHILE;",
    ]
    for level in range(LIMIT):
        body = kinds[level % len(kinds)].format(body)
    assert run_body(tmp_path, body) == 0


def test_run_exit_two_on_an_instance_cycle(tmp_path, capsys):
    unit = tmp_path / "rec.st"
    unit.write_text(
        "FUNCTION_BLOCK REC\nVAR_INPUT X : INT; END_VAR\nVAR_OUTPUT Y : INT; END_VAR\n"
        "VAR R2 : REC2; END_VAR\nY := X;\nEND_FUNCTION_BLOCK\n"
        "FUNCTION_BLOCK REC2\nVAR R : REC; END_VAR\nEND_FUNCTION_BLOCK\n"
    )
    suite = tmp_path / "suite.csv"
    suite.write_text(BODY_SUITE)
    assert run_cli("run", "--unit", unit, "--suite", suite, "--out", tmp_path / "out") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: rec.st:8:5: recursive instantiation: REC -> REC2 -> REC\n"
    assert "Traceback" not in captured.out


def _instance_tree(levels: int) -> str:
    """BODY holding two instances of F1, each F<i> two of F<i+1>: 2^levels
    instances in all."""
    fbs = "".join(
        f"FUNCTION_BLOCK F{i}\nVAR_OUTPUT Y : INT; END_VAR\n"
        + (f"VAR A : F{i + 1}; B : F{i + 1}; END_VAR\n" if i < levels - 1 else "")
        + "Y := 1;\nEND_FUNCTION_BLOCK\n"
        for i in range(1, levels)
    )
    return BODY_FB.replace("VAR I : INT;", "VAR A : F1; B : F1;").format(body="Y := X;") + fbs


# each unit once ran out of time or memory building its storage
TOO_LARGE = {
    "huge-array": (
        BODY_FB.replace("I : INT", "A : ARRAY[0..999999999999] OF DINT").format(body="Y := X;"),
        "body.st:4:5: BODY would hold more than 1000000 values",
    ),
    "instance-tree": (_instance_tree(30), "body.st:59:14: F11 would hold more than 1000000 values"),
}


def run_child(cwd, *argv) -> subprocess.CompletedProcess:
    """stbench with these arguments in a child process that limits its own
    address space to 1.5 GB, given 60 s to finish."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))\n"
        "from stbench.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("name", TOO_LARGE)
def test_run_exit_two_on_a_unit_too_large_to_build(tmp_path, name):
    text, error = TOO_LARGE[name]
    unit = tmp_path / "body.st"
    unit.write_text(text)
    suite = tmp_path / "suite.csv"
    suite.write_text(BODY_SUITE)
    done = run_child(tmp_path, "run", "--unit", unit, "--suite", suite, "--out", tmp_path / "out")
    assert (done.returncode, done.stderr) == (2, f"error: {error}\n")
    assert "Traceback" not in done.stdout


def test_run_exit_two_at_validation_on_cases_whose_harness_is_too_large(tmp_path, capsys):
    # BODY holds 333,332 values: three cases of it pass the storage bound,
    # their harness, with 14 more values per case, does not
    unit = tmp_path / "body.st"
    unit.write_text(BODY_FB.replace("I : INT", "A : ARRAY[1..333330] OF DINT").format(body="Y := X;"))
    suite = tmp_path / "suite.csv"
    suite.write_text(BODY_SUITE + "tc2,1,0,0\ntc3,1,0,0\n")
    assert run_cli("run", "--unit", unit, "--suite", suite, "--out", tmp_path / "out") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: suite rejected: -: 3 cases of BODY would hold 1000038 values, more than 1000000\n"
    assert "Traceback" not in captured.out


TON_UNIT = (
    "FUNCTION_BLOCK TON\nVAR_INPUT X : INT; END_VAR\nVAR_OUTPUT Q : BOOL; END_VAR\n"
    "Q := X > 0;\nEND_FUNCTION_BLOCK\n"
)
USES_T = (
    "FUNCTION_BLOCK USER\nVAR_INPUT X : {x}; END_VAR\nVAR_OUTPUT Y : BOOL; END_VAR\n"
    "VAR T : {fb}; END_VAR\nT({params});\nY := T.{q};\nEND_FUNCTION_BLOCK\n"
)
# a user POU named after a built-in, once: (unit, library, suite, the error)
RESERVED_NAMES = {
    # the harness's REAL tolerance check called the unit's ABS, so a wrong
    # expectation passed
    "abs-returning-zero": (
        "FUNCTION_BLOCK SCALE\nVAR_INPUT X : REAL; END_VAR\nVAR_OUTPUT Y : REAL; END_VAR\n"
        "Y := X * 2.0;\nEND_FUNCTION_BLOCK\n"
        "FUNCTION ABS : REAL\nVAR_INPUT V : REAL; END_VAR\nABS := 0.0;\nEND_FUNCTION\n",
        None,
        "test_name,state,X,expect_Y\ntc,1,1.0,5.0\n",
        "user.st:6:1: ABS is reserved for the built-in function",
    ),
    # the library's ABS call ran the unit's loop as bounded code: a hang
    "abs-looping-beside-a-library": (
        "FUNCTION_BLOCK USER\nVAR_INPUT X : INT; END_VAR\nVAR_OUTPUT Y : INT; END_VAR\n"
        "VAR L : ABSOLUTE; END_VAR\nL(X := X);\nY := L.Y;\nEND_FUNCTION_BLOCK\n"
        "FUNCTION ABS : INT\nVAR_INPUT V : INT; END_VAR\nWHILE TRUE DO\nABS := V;\nEND_WHILE;\nEND_FUNCTION\n",
        "FUNCTION_BLOCK ABSOLUTE\nVAR_INPUT X : INT; END_VAR\nVAR_OUTPUT Y : INT; END_VAR\n"
        "Y := ABS(X);\nEND_FUNCTION_BLOCK\n",
        "test_name,state,X,expect_Y\ntc,1,-3,3\n",
        "user.st:8:1: ABS is reserved for the built-in function",
    ),
    # the unit's TON was bound at resolve to the built-in's parameters and
    # at run time to its own: a KeyError traceback
    "ton-with-the-builtins-parameters": (
        USES_T.format(x="BOOL", fb="TON", params="IN := X, PT := T#1s", q="Q") + TON_UNIT,
        None,
        "test_name,state,X,expect_Y\ntc,1,TRUE,FALSE\n",
        "user.st:8:1: TON is reserved for the built-in function block",
    ),
    # the library's built-in TON ran as the unit's: a KeyError traceback
    "ton-beside-a-library-using-the-builtin": (
        USES_T.format(x="BOOL", fb="DELAY", params="X := X", q="Y") + TON_UNIT,
        USES_T.replace("USER", "DELAY").format(x="BOOL", fb="TON", params="IN := X, PT := T#1s", q="Q"),
        "test_name,state,X,expect_Y\ntc,1,TRUE,FALSE\n",
        "user.st:8:1: TON is reserved for the built-in function block",
    ),
    # the unit's TON with its own parameters: "TON has no parameter X"
    "ton-with-its-own-parameters": (
        USES_T.format(x="INT", fb="TON", params="X := X", q="Q") + TON_UNIT,
        None,
        "test_name,state,X,expect_Y\ntc,1,1,TRUE\n",
        "user.st:8:1: TON is reserved for the built-in function block",
    ),
}


@pytest.mark.parametrize("name", RESERVED_NAMES)
def test_run_exit_two_on_a_user_pou_named_after_a_builtin(tmp_path, name):
    unit, library, suite, error = RESERVED_NAMES[name]
    (tmp_path / "user.st").write_text(unit)
    (tmp_path / "suite.csv").write_text(suite)
    libs = []
    if library is not None:
        (tmp_path / "lib.st").write_text(library)
        libs = ["--lib", tmp_path / "lib.st"]
    done = run_child(
        tmp_path, "run", "--unit", tmp_path / "user.st", *libs, "--suite", tmp_path / "suite.csv",
        "--out", tmp_path / "out",
    )
    assert done.returncode == 2
    assert done.stderr.startswith(f"error: {error}")
    assert "Traceback" not in done.stdout + done.stderr


def test_run_exit_two_on_non_ascii_digit(tmp_path, capsys):
    assert run_body(tmp_path, "Y := X + \u00b2;") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: body.st:5:10: unexpected character '\u00b2'\n"
    assert "Traceback" not in captured.out


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def caller_gc(request):
    """The collector state a caller of main() chose; restored afterwards."""
    (gc.enable if request.param else gc.disable)()
    yield request.param
    gc.enable()


@pytest.mark.parametrize("csv,expected", [(CORRECT_CSV, 0), (BUG_CSV, 1), (None, 2)], ids=["exit-0", "exit-1", "exit-2"])
def test_main_pauses_gc_per_unit_and_restores_the_callers_state(tmp_path, monkeypatch, caller_gc, csv, expected):
    during = []
    real_run_suite = cli.run_suite

    def recording_run_suite(*args):
        during.append(gc.isenabled())
        return real_run_suite(*args)

    monkeypatch.setattr(cli, "run_suite", recording_run_suite)
    suite = tmp_path / "suite.csv"
    if csv is not None:
        suite.write_text(csv)
    assert run_cli("run", "--unit", DEC_BLOCK, "--suite", suite, "--out", tmp_path / "out") == expected
    assert during == ([] if csv is None else [False])
    assert gc.isenabled() is caller_gc


def test_main_restores_the_callers_gc_state_when_an_exception_escapes(tmp_path, monkeypatch, caller_gc):
    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_suite", crash)
    suite = tmp_path / "suite.csv"
    suite.write_text(CORRECT_CSV)
    with pytest.raises(RuntimeError, match="boom"):
        run_cli("run", "--unit", DEC_BLOCK, "--suite", suite, "--out", tmp_path / "out")
    assert gc.isenabled() is caller_gc


def test_import_loads_no_http_stack():
    """Only the http provider needs an HTTP client; importing the CLI and
    running a mock pipeline must not load one."""
    script = (
        "import sys, tempfile\n"
        "before = set(sys.modules)\n"
        "import stbench.cli\n"
        "after_import = set(sys.modules) - before\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    code = stbench.cli.main(['pipeline', '--unit', sys.argv[1], '--provider', 'mock',\n"
        "                             '--fixture', sys.argv[2], '--out', out])\n"
        "after_run = set(sys.modules) - before\n"
        "http = {'requests', 'urllib.request', 'http.client'}\n"
        "print(code, sorted(after_import & http), sorted(after_run & http))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, str(DEC_BLOCK), str(DEC_FIXTURE)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "1 [] []"


def test_run_does_not_load_the_corpus(tmp_path):
    """Only `corpus list` lists the bundled blocks: importing the CLI and
    running a suite must not load stbench.corpus."""
    suite = tmp_path / "suite.csv"
    suite.write_text(CORRECT_CSV)
    script = (
        "import sys\n"
        "import stbench.cli\n"
        "code = stbench.cli.main(['run', '--unit', sys.argv[1], '--suite', sys.argv[2], '--out', sys.argv[3]])\n"
        "print(code, 'stbench.corpus' in sys.modules)\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, str(DEC_BLOCK), str(suite), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    (tmp_path / "help.st").write_text(HELP_1)
    (tmp_path / "user.st").write_text(USES_HELP)
    (tmp_path / "suite.csv").write_text("test_name,state,expect_Y\ntc,1,7\n")
    common = ["run", "--unit", tmp_path / "user.st", "--suite", tmp_path / "suite.csv"]
    assert run_cli(*common, "--lib", tmp_path / "help.st", "--out", tmp_path / "a") == 0
    capsys.readouterr()
    # the same command without --lib: HELP is unknown again
    assert run_cli(*common, "--out", tmp_path / "b") == 2
    assert "HELP" in capsys.readouterr().err
    assert cli._parser().parse_args(["run", "--unit", "u.st"]).lib is None


def test_pipeline_hands_the_checked_suite_to_the_run_step(tmp_path, monkeypatch):
    calls = []
    for name in ("parse_suite", "validate", "serialize_suite"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    fixture = tmp_path / "resp.txt"
    fixture.write_text("```csv\ntest_name,state,DE,NOTES,expect_HEX\ntc,1,4,hello,'4'\n```\n")
    code = run_cli(
        "pipeline", "--unit", DEC_BLOCK, "--provider", "mock", "--fixture", fixture,
        "--out", tmp_path / "run", "--fixed-clock",
    )
    assert code == 0
    assert calls == ["parse_suite", "validate", "serialize_suite"]
    assert (tmp_path / "run" / "suite.csv").read_text() == "test_name,state,dwell_cycles,DE,expect_HEX\ntc,1,1,4,'4'\n"
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["meta"]["warnings"] == ["dropped column NOTES"]


def _deep_calls_unit(nested_ifs: int) -> str:
    ifs = "IF x > 0 THEN\n" * nested_ifs
    ends = "END_IF;\n" * nested_ifs
    return (
        "FUNCTION DEEP : INT\nVAR_INPUT x : INT; END_VAR\nDEEP := 0;\n"
        f"{ifs}DEEP := DEEP(x - 1) + 1;\n{ends}END_FUNCTION\n\n"
        "FUNCTION_BLOCK CALLER\nVAR_INPUT N : INT; END_VAR\nVAR_OUTPUT Y : INT; END_VAR\n"
        "Y := DEEP(N);\nEND_FUNCTION_BLOCK\n"
    )


def test_calls_deeper_than_the_python_stack_are_a_contained_fault(tmp_path, capsys):
    # each nested IF costs at least one Python frame per call level, so a
    # chain of _MAX_CALL_DEPTH calls runs out of Python's stack first
    nested_ifs = sys.getrecursionlimit() // _MAX_CALL_DEPTH + 1
    assert nested_ifs < parser.MAX_DEPTH
    unit = tmp_path / "deep.st"
    unit.write_text(_deep_calls_unit(nested_ifs))
    suite = tmp_path / "suite.csv"
    suite.write_text("test_name,state,N,expect_Y\ntc_deep,1,63,63\ntc_shallow,1,3,3\n")
    code = run_cli("run", "--unit", unit, "--suite", suite, "--out", tmp_path / "out")
    assert code == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    verdicts = {c["name"]: (c["verdict"], c["fault"]) for c in report["cases"]}
    assert verdicts["tc_shallow"] == ("pass", None)
    assert verdicts["tc_deep"][0] == "fault"
    assert verdicts["tc_deep"][1].startswith("call stack too deep (DEEP#")
    assert "tc_deep: call stack too deep" in captured.out


def test_calls_deeper_than_the_call_limit_are_a_contained_fault(tmp_path, capsys):
    unit = tmp_path / "deep.st"
    unit.write_text(_deep_calls_unit(1))
    suite = tmp_path / "suite.csv"
    suite.write_text(f"test_name,state,N,expect_Y\ntc_deep,1,{_MAX_CALL_DEPTH},0\ntc_shallow,1,3,3\n")
    assert run_cli("run", "--unit", unit, "--suite", suite, "--out", tmp_path / "out") == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    verdicts = {c["name"]: (c["verdict"], c["fault"]) for c in report["cases"]}
    assert verdicts["tc_shallow"] == ("pass", None)
    assert verdicts["tc_deep"][0] == "fault"
    assert verdicts["tc_deep"][1].startswith("call depth exceeded (DEEP#")


def test_a_chain_of_1200_fb_types_is_a_contained_fault(tmp_path, capsys):
    # instantiating the chain and bounding its scans each walk all 1,200
    # types, more than Python's stack is deep
    source = fb_chain(1200)
    assert interp._bound(resolve(parse_text(source)), "F0") == (2 * 1199 + 1, 1199)
    unit = tmp_path / "chain.st"
    unit.write_text(source)
    suite = tmp_path / "suite.csv"
    suite.write_text("test_name,state,N,expect_Y\ntc,1,1,1\n")
    assert run_cli("run", "--unit", unit, "--suite", suite, "--out", tmp_path / "out") == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    ((verdict, fault),) = [(c["verdict"], c["fault"]) for c in report["cases"]]
    assert verdict == "fault"
    assert fault.startswith("call depth exceeded (F62#")


_FIXTURE_PIECES = ["\n", ",", "```", "```csv\n", "test_name,state", "dwell_cycles", "expect_", "'", '"',
                   "TRUE", "-1", "0", "T#5s", "16#FF", "1e40", "NaN", "\r", "tc", "prose "]


def _mutated(draw, text: str, pieces: list[str]) -> str:
    """text with 1-4 random cuts, copies or insertions of pieces."""
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = min(len(text), start + draw(st.integers(0, 30)))
        op = draw(st.sampled_from(["delete", "duplicate", "insert"]))
        if op == "delete":
            text = text[:start] + text[end:]
        elif op == "duplicate":
            text = text[:end] + text[start:end] + text[end:]
        else:
            text = text[:start] + draw(st.sampled_from(pieces)) + text[start:]
    return text


@st.composite
def _fuzzed_fixtures(draw):
    """A corpus block and its canned response, mutated."""
    block = draw(st.sampled_from(corpus.BLOCKS))
    return block, _mutated(draw, corpus.fixture_path(block.name).read_text(encoding="utf-8"), _FIXTURE_PIECES)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_fuzzed_fixtures())
def test_pipeline_on_fuzzed_provider_responses_exits_0_1_or_2(case):
    block, text = case
    with tempfile.TemporaryDirectory() as tmp:
        fixture = Path(tmp) / "response.txt"
        fixture.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(
                "pipeline", "--unit", corpus.block_path(block.name), "--provider", "mock",
                "--fixture", fixture, "--out", Path(tmp) / "run", "--fixed-clock",
            )
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()


@pytest.mark.parametrize(
    "statement,x",
    [
        ("Y := SIN(X * 1.0E30);", "1.0E30"),  # SIN of +inf
        ("Y := COS(X * 1.0E30);", "-1.0E30"),  # COS of -inf
        ("Y := X ** 0.5;", "-8.0"),  # a negative base, a fractional exponent
    ],
)
def test_a_real_result_with_no_value_is_nan_not_a_traceback(tmp_path, capsys, statement, x):
    unit = tmp_path / "wave.st"
    unit.write_text(
        "FUNCTION_BLOCK WAVE\nVAR_INPUT X : REAL; END_VAR\nVAR_OUTPUT Y : REAL; END_VAR\n"
        f"{statement}\nEND_FUNCTION_BLOCK\n"
    )
    suite = tmp_path / "suite.csv"
    suite.write_text(f"test_name,state,X,expect_Y\ntc,1,{x},0.0\n")
    code = run_cli("run", "--unit", unit, "--suite", suite, "--out", tmp_path / "out")
    assert code == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    (case,) = report["cases"]
    assert case["fault"] is None
    assert case["assertions"][0]["actual"] == "nan"


_UNIT_PIECES = [
    "\n", ";", ":=", "(", ")", "END_IF;\n", "TON", "CTU", "R_TRIG", "ABS", "INT_TO_REAL", "MID",
    "FUNCTION ABS : INT\nVAR_INPUT V : INT; END_VAR\nABS := V;\nEND_FUNCTION\n",
    "FUNCTION_BLOCK TON\nVAR_INPUT IN : BOOL; END_VAR\nEND_FUNCTION_BLOCK\n",
    "VAR T9 : TON; END_VAR\n", "T9(IN := TRUE, PT := T#1s);\n",
    "WHILE TRUE DO\n", "END_WHILE;\n", "ARRAY[0..99999999] OF DINT",
]


@st.composite
def _fuzzed_units(draw):
    """A corpus block with its source mutated."""
    block = draw(st.sampled_from(corpus.BLOCKS))
    return block, _mutated(draw, corpus.block_source(block.name), _UNIT_PIECES)


@settings(max_examples=15, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(case=_fuzzed_units())
def test_pipeline_on_fuzzed_units_exits_0_1_or_2(case):
    block, text = case
    with tempfile.TemporaryDirectory() as tmp:
        unit = Path(tmp) / "unit.st"
        unit.write_text(text, encoding="utf-8")
        done = run_child(
            tmp, "pipeline", "--unit", unit, "--provider", "mock", "--fixture", corpus.fixture_path(block.name),
            "--out", Path(tmp) / "run", "--fixed-clock",
        )
    assert done.returncode in (0, 1, 2)
    assert "Traceback" not in done.stdout + done.stderr
