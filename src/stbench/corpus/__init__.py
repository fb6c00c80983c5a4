"""Bundled example function blocks and canned mock responses.

The blocks are small, self-contained re-implementations of typical library
block behaviours (a hex converter, a sine generator, a traffic light, an
accumulator, a PI controller, timer and logic helpers), each posing a
different test challenge.  Every block ships with a fixture file that looks
like an LLM response, so the whole pipeline runs offline via the mock
provider.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class CorpusBlock:
    name: str
    category: str
    challenge: str
    filename: str
    fixture: str


BLOCKS: tuple[CorpusBlock, ...] = (
    CorpusBlock(
        "DEC_TO_HEX",
        "string conversion",
        "loops and string building; erroneous handling of negative inputs",
        "DEC_TO_HEX.st",
        "dec_to_hex_response.txt",
    ),
    CorpusBlock(
        "GEN_SIN",
        "signal generator",
        "time-dependent output values driven by an internal timer",
        "GEN_SIN.st",
        "gen_sin_response.txt",
    ),
    CorpusBlock(
        "TRAFFIC_CTRL",
        "sequence control",
        "four internal states advanced by expiring timers",
        "TRAFFIC_CTRL.st",
        "traffic_ctrl_response.txt",
    ),
    CorpusBlock(
        "COUNT_ACC",
        "accumulator",
        "state retained between cycles; needs sequential test states",
        "COUNT_ACC.st",
        "count_acc_response.txt",
    ),
    CorpusBlock(
        "PI_CTRL",
        "control loop",
        "floating point outputs with retained integral state",
        "PI_CTRL.st",
        "pi_ctrl_response.txt",
    ),
    CorpusBlock(
        "DELAY_GATE",
        "timing",
        "timer expiry requires dwelling in a state for many cycles",
        "DELAY_GATE.st",
        "delay_gate_response.txt",
    ),
    CorpusBlock(
        "LOGIC_MUX",
        "logic",
        "combinational branches; full input space is enumerable",
        "LOGIC_MUX.st",
        "logic_mux_response.txt",
    ),
    CorpusBlock(
        "EDGE_COUNT",
        "counter",
        "edge detection; outputs depend on input transitions across states",
        "EDGE_COUNT.st",
        "edge_count_response.txt",
    ),
)


_DIR = Path(__file__).parent


def block_path(name: str) -> Path:
    return _DIR / "blocks" / by_name(name).filename


def fixture_path(name: str) -> Path:
    return _DIR / "fixtures" / by_name(name).fixture


def by_name(name: str) -> CorpusBlock:
    for block in BLOCKS:
        if block.name == name.upper():
            return block
    raise KeyError(f"no corpus block named {name}")


def block_source(name: str) -> str:
    return block_path(name).read_text(encoding="utf-8")
