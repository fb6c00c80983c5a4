import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stbench import cli, corpus
from stbench.cli import main
from stbench.frontend import parser

from test_parser import time_limit

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
    # artifact paths are relative to the run directory
    assert report["artifacts"]["coverage_lcov"] == "coverage.lcov"


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
    assert "no FUNCTION_BLOCK named nope" in captured.err
    assert "Traceback" not in captured.err + captured.out


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
    unit = tmp_path / "deep.st"
    unit.write_text(_deep_calls_unit(12))
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


_FIXTURE_PIECES = ["\n", ",", "```", "```csv\n", "test_name,state", "dwell_cycles", "expect_", "'", '"',
                   "TRUE", "-1", "0", "T#5s", "16#FF", "1e40", "NaN", "\r", "tc", "prose "]


@st.composite
def _fuzzed_fixtures(draw):
    """A corpus block and its canned response with 1-4 random cuts, copies
    or insertions."""
    block = draw(st.sampled_from(corpus.BLOCKS))
    text = corpus.fixture_path(block.name).read_text(encoding="utf-8")
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = min(len(text), start + draw(st.integers(0, 30)))
        op = draw(st.sampled_from(["delete", "duplicate", "insert"]))
        if op == "delete":
            text = text[:start] + text[end:]
        elif op == "duplicate":
            text = text[:end] + text[start:end] + text[end:]
        else:
            text = text[:start] + draw(st.sampled_from(_FIXTURE_PIECES)) + text[start:]
    return block, text


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
