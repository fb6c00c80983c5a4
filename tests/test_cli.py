import json
from pathlib import Path

import pytest

from stbench import corpus
from stbench.cli import main

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


def test_jobs_with_multiple_units(tmp_path):
    suiteless_units = ",".join(
        str(corpus.block_path(n)) for n in ("LOGIC_MUX", "COUNT_ACC")
    )
    # pipeline over two units in parallel, each with its own fixture? the
    # mock fixture is per-unit, so drive generate-only via explicit suites
    suite = tmp_path / "s.csv"
    suite.write_text("test_name,state,A,B,PICKB,expect_Q\ntc,1,TRUE,FALSE,FALSE,TRUE\n")
    code = run_cli(
        "run", "--unit", corpus.block_path("LOGIC_MUX"), "--suite", suite,
        "--out", tmp_path / "solo", "--jobs", "2",
    )
    assert code == 0
