"""Differential testing: the interpreter against the independent oracle.

For every corpus block with an enumerable input grid, all configurations
are run scan by scan against the brute-force AST re-simulation; outputs and
per-scan statement hits must agree exactly (REAL values bit-exactly, since
both sides round to binary32 independently).
"""

from collections import Counter

import pytest

from stbench.frontend import types as T
from stbench.runtime import SimClock, execute_cycle, instantiate
from stbench.runtime import values as V

from oracle_sim import OracleSim

CYCLE_MS = 10

BOOLS = (False, True)


def b(v):
    return ("BOOL", v)


def i(v):
    return ("INT", v)


def d(v):
    return ("DINT", v)


def r(v):
    return ("REAL", v)


def t(v):
    return ("TIME", v)


_TY = {"BOOL": T.BOOL, "INT": T.INT, "DINT": T.DINT, "REAL": T.REAL, "TIME": T.TIME}

# block -> (scans, list of input configurations), each config <= 12 per block
CONFIGS = {
    "DEC_TO_HEX": (
        3,
        [{"DE": i(v)} for v in (0, 9, 255, 4096, 32767, -1, -32768, 21845)],
    ),
    "LOGIC_MUX": (
        3,
        [
            {"A": b(a), "B": b(bb), "PICKB": b(p)}
            for a in BOOLS
            for bb in BOOLS
            for p in BOOLS
        ],
    ),
    "COUNT_ACC": (
        4,
        [
            {"X": d(x), "EN": b(en), "RST": b(rst)}
            for x in (7, -3, 60)
            for en in BOOLS
            for rst in BOOLS
        ],
    ),
    "PI_CTRL": (
        4,
        [
            {"EN": b(en), "SP": r(sp), "PV": r(pv)}
            for en in BOOLS
            for sp, pv in ((10.0, 0.0), (0.0, 10.0), (2000.0, -2000.0), (-2000.0, 2000.0), (1.5, 0.5), (0.0, 0.0))
        ],
    ),
    "EDGE_COUNT": (
        4,
        [
            {"CLK": b(clk), "RST": b(rst), "LIMITN": i(lim)}
            for clk in BOOLS
            for rst in BOOLS
            for lim in (1, 2)
        ],
    ),
    "DELAY_GATE": (
        12,
        [
            {"IN": b(in_v), "PT": t(pt)}
            for in_v in BOOLS
            for pt in (0, 15, 30, 200, 400)
        ],
    ),
    "GEN_SIN": (
        15,
        [
            {"PT": t(pt), "AM": r(am)}
            for pt in (0, 40, 100, 1000)
            for am in (1.0, 2.5)
        ],
    ),
    "TRAFFIC_CTRL": (
        120,
        [{"B1": b(b1), "B2": b(b2)} for b1 in BOOLS for b2 in BOOLS],
    ),
}


def typed_inputs(config):
    return {name: V.make(_TY[ty], raw) for name, (ty, raw) in config.items()}


def plain_inputs(config):
    return {name: raw for name, (ty, raw) in config.items()}


@pytest.mark.parametrize("block", sorted(CONFIGS))
def test_interpreter_matches_oracle_exhaustively(block, corpus_programs):
    scans, configs = CONFIGS[block]
    prog = corpus_programs[block]
    assert len(configs) <= 12
    for config in configs:
        inst = instantiate(prog, block)
        oracle = OracleSim(prog, block)
        clock = SimClock(cycle_time=CYCLE_MS)
        prev_hits = Counter()
        for scan in range(scans):
            now = clock.now
            out, counts = execute_cycle(inst, typed_inputs(config), clock)
            oracle_out = oracle.scan(plain_inputs(config), now)
            got = {k: v.v for k, v in out.items()}
            assert got == oracle_out, (
                f"{block} {config} scan {scan}: interpreter {got} oracle {oracle_out}"
            )
            # per-scan statement hits agree (count soundness + coverage)
            hits = Counter(
                {(pou, sid): n for pou, per_pou in counts.items() for sid, n in per_pou.items()}
            )
            oracle_hits = oracle.coverage()
            delta = oracle_hits - prev_hits
            prev_hits = oracle_hits
            assert hits == delta, f"{block} {config} scan {scan}: hit mismatch"


def test_config_grid_counts():
    # the acceptance criterion needs at least five blocks, each <= 12 configs
    assert len(CONFIGS) >= 5
    for block, (_scans, configs) in CONFIGS.items():
        assert 1 <= len(configs) <= 12, block
        # configurations are distinct
        keys = [tuple(sorted((k, v) for k, v in c.items())) for c in configs]
        assert len(set(keys)) == len(keys), block
