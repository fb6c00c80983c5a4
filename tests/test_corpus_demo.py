"""Smoke test of the README's corpus demo command."""

import os
import subprocess
import sys
from pathlib import Path

from stbench import corpus

REPO = Path(__file__).resolve().parent.parent


def test_run_corpus_demo_prints_one_row_per_block(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_corpus_demo.py"), "--out", str(tmp_path / "demo")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # the table's rows sit between its two rules
    lines = proc.stdout.splitlines()
    first, last = (i for i, line in enumerate(lines) if line == "-" * 60)
    assert [row.split()[0] for row in lines[first + 1 : last]] == [b.name for b in corpus.BLOCKS]
    for block in corpus.BLOCKS:
        assert (tmp_path / "demo" / block.name.lower() / "report.json").is_file()
