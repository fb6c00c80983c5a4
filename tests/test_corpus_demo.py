"""Smoke test of the README's corpus demo command."""

import os
import subprocess
import sys
from pathlib import Path

from stbench import corpus

REPO = Path(__file__).resolve().parent.parent


def run_demo(tmp_path):
    """The demo's exit code, whether each block's row says it failed, and
    its stderr."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_corpus_demo.py"), "--out", str(tmp_path / "demo")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    # the table's rows sit between its two rules
    lines = proc.stdout.splitlines()
    first, last = (i for i, line in enumerate(lines) if line == "-" * 60)
    rows = {row.split()[0]: row.split()[-1] == "failed" for row in lines[first + 1 : last]}
    assert list(rows) == [b.name for b in corpus.BLOCKS]
    return proc.returncode, rows, proc.stderr


def test_run_corpus_demo_prints_one_row_per_block(tmp_path):
    code, rows, stderr = run_demo(tmp_path)
    assert code == 0, stderr
    for block in corpus.BLOCKS:
        assert not rows[block.name]
        assert (tmp_path / "demo" / block.name.lower() / "report.json").is_file()


def test_a_failed_block_gets_a_failed_row_and_the_others_still_run(tmp_path):
    # a file where DEC_TO_HEX's run directory goes: its pipeline exits 2
    (tmp_path / "demo").mkdir()
    (tmp_path / "demo" / "dec_to_hex").write_text("")
    code, rows, stderr = run_demo(tmp_path)
    assert code == 1
    assert "Traceback" not in stderr and "error: " in stderr
    assert rows["DEC_TO_HEX"]
    for block in corpus.BLOCKS[1:]:
        assert not rows[block.name]
        assert (tmp_path / "demo" / block.name.lower() / "report.json").is_file()
