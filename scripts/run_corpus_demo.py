#!/usr/bin/env python3
"""Run the full pipeline over every bundled corpus block.

Uses the mock provider with the canned response files, so the whole
experiment is offline and deterministic.  Prints one row per block with the
three headline metrics (test cases, statement coverage, assertion success),
plus where the run artifacts were written.  A block whose pipeline fails
(exit 2) gets a failed row, its error stays on stderr, the next block
runs, and the script exits 1.

Usage:
    python scripts/run_corpus_demo.py [--out runs/corpus_demo] [--mode enhanced]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stbench import corpus
from stbench.cli import main as cli_main


def run_block(block: corpus.CorpusBlock, out_root: Path, mode: str) -> dict | None:
    """The block's metrics, or None when its pipeline wrote no report."""
    out = out_root / block.name.lower()
    code = cli_main(
        [
            "pipeline",
            "--unit", str(corpus.block_path(block.name)),
            "--provider", "mock",
            "--fixture", str(corpus.fixture_path(block.name)),
            "--mode", mode,
            "--out", str(out),
            "--fixed-clock",
        ]
    )
    if code not in (0, 1):
        return None
    metrics = json.loads((out / "report.json").read_text(encoding="utf-8"))["metrics"]
    return {
        "cases": metrics["cases_total"],
        "coverage": metrics["statement_coverage_pct"],
        "assertions": metrics["assertion_success_pct"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/corpus_demo", type=Path)
    parser.add_argument("--mode", default="enhanced", choices=("simple", "enhanced"))
    args = parser.parse_args()

    rows = []
    for block in corpus.BLOCKS:
        print(f"running {block.name} ...", flush=True)
        rows.append((block, run_block(block, args.out, args.mode)))

    print()
    print(f"{'block':<14} {'category':<18} {'cases':>5} {'coverage':>9} {'assertions':>10}")
    print("-" * 60)
    for block, r in rows:
        if r is None:
            print(f"{block.name:<14} {block.category:<18} {'failed':>5}")
            continue
        asserts = "n/a" if r["assertions"] is None else f"{r['assertions']:.2f}%"
        print(
            f"{block.name:<14} {block.category:<18} {r['cases']:>5} "
            f"{r['coverage']:>8.2f}% {asserts:>10}"
        )
    print("-" * 60)
    print(f"artifacts under {args.out}/<block>/")
    return 0 if all(r is not None for _block, r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
