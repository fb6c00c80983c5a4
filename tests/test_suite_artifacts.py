"""Byte-identity of two seeded suites' run directories under --fixed-clock.

A 200-case TRAFFIC_CTRL suite, whose cases finish over a wide spread of
scans, and a 4-case GEN_SIN suite dwelling hundreds of scans per state.
Most of their case-scans run a case that is already DONE, so the counts a
run credits for finished cases, rather than executes, show up in
report.json's `per_pou` rows.  The coverage files list the unit's lines,
which a finished case no longer runs.  The suites are built
here from a fixed seed; the corpus digests (`test_corpus_artifacts.py`)
see few finished cases.

When an intended change alters these files, print the new table with

    PYTHONPATH=src python tests/test_suite_artifacts.py

and paste it over EXPECTED.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

import pytest

from stbench import corpus
from stbench.frontend import SourceUnit
from stbench.runner import RunOptions, load_program, run_suite
from stbench.testspec import parse_suite, validate

ARTIFACTS = ("coverage.lcov", "coverage.annotated.txt", "monitor.txt", "report.json")


def _bool(rng: random.Random) -> str:
    return "TRUE" if rng.random() < 0.5 else "FALSE"


# block -> (input columns, output columns), each with a random cell
COLUMNS = {
    "TRAFFIC_CTRL": (
        {"B1": _bool, "B2": _bool},
        {"GO": _bool, "YEL": _bool, "RED": _bool, "WALK": _bool},
    ),
    "GEN_SIN": (
        {"PT": lambda r: f"T#{r.randint(1000, 5000)}ms", "AM": lambda r: f"{r.uniform(0.5, 5.0):.3f}"},
        {"OUT": lambda r: f"{r.uniform(-5.0, 5.0):.3f}"},
    ),
}


def suite_csv(block: str, dwells: list[list[int]], rng: random.Random) -> str:
    """A suite with one case per entry of `dwells`, which lists its states'
    dwells; every state sets some inputs and checks one to all outputs."""
    inputs, outputs = COLUMNS[block]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["test_name", "state", "dwell_cycles", *inputs, *("expect_" + o for o in outputs)])
    for ci, case in enumerate(dwells, start=1):
        for si, dwell in enumerate(case, start=1):
            ins = ["" if si > 1 and rng.random() < 0.25 else gen(rng) for gen in inputs.values()]
            checked = set(rng.sample(sorted(outputs), rng.randint(1, len(outputs))))
            exp = [gen(rng) if name in checked else "" for name, gen in outputs.items()]
            writer.writerow([f"tc_{ci:03d}", si, dwell, *ins, *exp])
    return buf.getvalue()


def suites() -> dict[str, tuple[str, str]]:
    """label -> (block, suite CSV), drawn from one fixed seed."""
    rng = random.Random("finished-cases:1")
    traffic = [[60] * 4] + [[rng.randint(1, 60) for _ in range(rng.randint(1, 4))] for _ in range(199)]
    dwell = [[rng.randint(100, 600) for _ in range(rng.randint(1, 3))] for _ in range(4)]
    return {
        "traffic_200": ("TRAFFIC_CTRL", suite_csv("TRAFFIC_CTRL", traffic, rng)),
        "gen_sin_dwell": ("GEN_SIN", suite_csv("GEN_SIN", dwell, rng)),
    }


def run_digests(block: str, text: str, out: Path) -> dict[str, str]:
    """The sha256 of each pinned artifact of one run of the suite into out."""
    prog = load_program(SourceUnit(corpus.block_source(block), f"{block}.st"))
    run_suite(prog, validate(parse_suite(text, block), prog), RunOptions(out_dir=out, fixed_clock=True))
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}


EXPECTED: dict[str, dict[str, str]] = {
    "gen_sin_dwell": {
        "coverage.lcov": "c01751ee109a051cd23193f7e91627729b75b32da7555022fe1bdc093c5ded5c",
        "coverage.annotated.txt": "9823290b8c60bb123ec2d969671d7898a3628863ff5f0f961cce809163877fb9",
        "monitor.txt": "362b4306689ac06d6c1421c0d0dabc2051d81ca4c953ce253de45d068c8ef182",
        "report.json": "885563893c1fc07ee614b25ea9b50d47191d4aeb8486ee4590cae727cd690abf",
    },
    "traffic_200": {
        "coverage.lcov": "d6ec69bdec7b6200d3b3e42f7db07dcc3cc43ce6d196376c8f55b3f145c9d9df",
        "coverage.annotated.txt": "a0408ce0883fd8c8930eb56b8cf0eac3f592742eb151ea72d3fca4a675b021b7",
        "monitor.txt": "7ea173ea47506218a22f8c55c718840acca65621aebd13c98be3b9026246cf98",
        "report.json": "51c88703b1c4cec8187a2b971cf62ed389e207e39ffab6721dbfbc78bcabbc40",
    },
}


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_seeded_suite_artifacts_are_byte_identical(label, tmp_path):
    block, text = suites()[label]
    assert run_digests(block, text, tmp_path) == EXPECTED[label]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("EXPECTED: dict[str, dict[str, str]] = {\n")
        for label, (block, text) in sorted(suites().items()):
            sys.stdout.write(f'    "{label}": {{\n')
            for name, digest in run_digests(block, text, Path(tmp) / label).items():
                sys.stdout.write(f'        "{name}": "{digest}",\n')
            sys.stdout.write("    },\n")
        sys.stdout.write("}\n")
