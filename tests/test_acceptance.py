"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test carries the `acceptance` marker; conftest prints one PASS/FAIL
line per criterion in the terminal summary.
"""

import filecmp
import json
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stbench import corpus, llm
from stbench.cli import main as cli_main
from stbench.frontend import types as T
from stbench.frontend import parse_source, resolve
from stbench.harnessgen import build_harness
from stbench.runner import RunOptions, run_suite
from stbench.runtime import SimClock, execute_cycle, instantiate
from stbench.runtime import values as V
from stbench.testspec import parse_suite, serialize_suite, validate

from oracle_sim import OracleSim
from strategies import suites_for
from test_oracle_equivalence import CONFIGS, plain_inputs, typed_inputs

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestReturnNotNoneWarning")


def checked(csv_text, fb, prog):
    return validate(parse_suite(csv_text, fb), prog)


# ---------------------------------------------------------------------------
# 1. DEC_TO_HEX coverage and negative-input bug
# ---------------------------------------------------------------------------

@pytest.mark.acceptance("1", "DEC_TO_HEX: 100.00% coverage, bug exposed, < 1 s")
def test_criterion_1_dec_to_hex(corpus_programs):
    # six hand-written cases: zero, the 7FFF/8000 boundary pair, a mid-range
    # value, a byte-edge value, and a plain negative; expected strings come
    # from the standard base-conversion oracle over 16-bit two's complement
    def hex16(v: int) -> str:
        return format(v & 0xFFFF, "X") if v else "0"

    cases = [0, 32767, -32768, 4096, 255, -123]
    rows = "".join(f"tc_{i},1,{v},'{hex16(v)}'\n" for i, v in enumerate(cases))
    suite = checked(
        "test_name,state,DE,expect_HEX\n" + rows, "DEC_TO_HEX", corpus_programs["DEC_TO_HEX"]
    )
    start = time.monotonic()
    report = run_suite(corpus_programs["DEC_TO_HEX"], suite)
    elapsed = time.monotonic() - start

    assert report.statement_coverage_pct == 100.00
    failing = [a for c in report.cases for a in c.assertions if not a.passed]
    assert len(failing) >= 1  # the block mishandles negative inputs
    assert {a.expected for a in failing} == {"'8000'", "'FF85'"}
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# 2. timer expiry via dwell_cycles
# ---------------------------------------------------------------------------

@pytest.mark.acceptance("2", "timer expiry: dwell 10 passes, dwell 5 fails (exact)")
def test_criterion_2_timer_expiry(corpus_programs):
    prog = corpus_programs["DELAY_GATE"]
    options = RunOptions(cycle_time_ms=50)

    def verdict(dwell: int) -> str:
        suite = checked(
            f"test_name,state,dwell_cycles,IN,PT,expect_Q\ntc,1,{dwell},TRUE,T#400ms,TRUE\n",
            "DELAY_GATE",
            prog,
        )
        report = run_suite(prog, suite, options)
        return report.cases[0].verdict

    assert verdict(10) == "pass"   # 10 scans x 50 ms >= 400 ms
    assert verdict(5) == "fail"    # 5 scans x 50 ms = 250 ms < 400 ms


# ---------------------------------------------------------------------------
# 3. oracle equivalence, exhaustive over the config grids
# ---------------------------------------------------------------------------

@pytest.mark.acceptance("3", ">= 5 blocks, <= 12 configs each, zero mismatches")
def test_criterion_3_oracle_equivalence(corpus_programs):
    assert len(CONFIGS) >= 5
    mismatches = 0
    for block, (scans, configs) in CONFIGS.items():
        assert len(configs) <= 12
        prog = corpus_programs[block]
        for config in configs:
            inst = instantiate(prog, block)
            oracle = OracleSim(prog, block)
            clock = SimClock(cycle_time=10)
            interp_hits = Counter()
            for _ in range(scans):
                now = clock.now
                out, counts = execute_cycle(inst, typed_inputs(config), clock)
                oracle_out = oracle.scan(plain_inputs(config), now)
                if {k: v.v for k, v in out.items()} != oracle_out:
                    mismatches += 1
                for pou, hits in counts.items():
                    # slot i of a POU's counts is its i-th site
                    for node, n in zip(prog.lookup_pou(pou).sites, hits, strict=True):
                        interp_hits[(pou, node.sid)] += n
            if interp_hits != oracle.coverage():
                mismatches += 1
    assert mismatches == 0


# ---------------------------------------------------------------------------
# 4. determinism of pipeline artifacts
# ---------------------------------------------------------------------------

@pytest.mark.acceptance("4", "two mock pipeline runs byte-identical (report.json, coverage.lcov)")
def test_criterion_4_determinism(tmp_path):
    unit = str(corpus.block_path("DEC_TO_HEX"))
    fixture = str(corpus.fixture_path("DEC_TO_HEX"))
    for sub in ("a", "b"):
        code = cli_main(
            [
                "pipeline", "--unit", unit, "--provider", "mock", "--fixture", fixture,
                "--out", str(tmp_path / sub), "--fixed-clock",
            ]
        )
        assert code == 1  # bug-revealing fixture: failures expected, run completes
    for name in ("report.json", "coverage.lcov"):
        a, b = tmp_path / "a" / name, tmp_path / "b" / name
        assert a.read_bytes() == b.read_bytes(), name
    assert filecmp.cmp(tmp_path / "a" / "suite.csv", tmp_path / "b" / "suite.csv", shallow=False)


# ---------------------------------------------------------------------------
# 5. metric integrity over randomized suites
# ---------------------------------------------------------------------------

_METRIC_BLOCKS = ("COUNT_ACC", "LOGIC_MUX", "DEC_TO_HEX", "PI_CTRL")

_VALUE_STRATEGY = {
    T.Kind.BOOL: st.booleans(),
    T.Kind.INT: st.integers(-32768, 32767),
    T.Kind.DINT: st.integers(-10_000, 10_000),
    T.Kind.REAL: st.floats(
        min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False, width=32
    ),
}


def _csv_cell(ty: T.STType, v) -> str:
    if ty.kind is T.Kind.BOOL:
        return "TRUE" if v else "FALSE"
    if ty.kind in (T.Kind.REAL, T.Kind.LREAL):
        return repr(float(v))
    if ty.kind is T.Kind.STRING:
        return f"'{v}'"
    if ty.kind is T.Kind.TIME:
        return f"T#{v}ms"
    return str(v)


def _corrupt(ty: T.STType, v):
    if ty.kind is T.Kind.BOOL:
        return not v
    if ty.kind in (T.Kind.REAL, T.Kind.LREAL):
        # push well past the harness tolerance atol + rtol * |expected|
        return float(v) + 1.0 + 10.0 * (1e-6 + 1e-6 * abs(float(v)))
    if ty.kind is T.Kind.STRING:
        return str(v) + "X"
    return v + 1 if v < 10_000 else v - 1


@st.composite
def _oracle_true_suite(draw, prog, block):
    """A random suite whose expectations are the oracle's own predictions,
    so every assertion passes by construction."""
    info = prog.lookup_pou(block)
    inputs = [(v.name, v.ty) for v in info.inputs()]
    outputs = [(v.name, v.ty) for v in info.outputs()]
    n_cases = draw(st.integers(1, 2))
    rows = []
    expected_cells = []
    for case_idx in range(n_cases):
        name = f"tc_{case_idx}"
        n_states = draw(st.integers(1, 2))
        oracle = OracleSim(prog, block)
        now = 0
        for state_idx in range(1, n_states + 1):
            bound = {}
            for col, ty in inputs:
                if state_idx == 1 or draw(st.booleans()):
                    bound[col] = draw(_VALUE_STRATEGY[ty.kind])
            dwell = draw(st.integers(1, 2))
            for _ in range(dwell):
                out = oracle.scan(bound, now)
                now += 10
            check_cols = [c for c, _t in outputs if draw(st.booleans())]
            if state_idx == n_states and not check_cols:
                check_cols = [outputs[0][0]]
            out_tys = dict(outputs)
            cells = {c: _csv_cell(out_tys[c], out[c]) for c in check_cols}
            for c in check_cols:
                expected_cells.append((name, state_idx, c, out_tys[c], out[c]))
            row = [name, str(state_idx), str(dwell)]
            row += [_csv_cell(dict(inputs)[c], bound[c]) if c in bound else "" for c, _ in inputs]
            row += [cells.get(c, "") for c, _ in outputs]
            rows.append(",".join(f'"{x}"' if "," in x else x for x in row))
    header = (
        "test_name,state,dwell_cycles,"
        + ",".join(c for c, _ in inputs)
        + ","
        + ",".join("expect_" + c for c, _ in outputs)
    )
    csv_text = header + "\n" + "\n".join(rows) + "\n"
    target = draw(st.integers(0, len(expected_cells) - 1))
    return csv_text, expected_cells, expected_cells[target]


@pytest.mark.acceptance("5", "metric integrity over >= 200 randomized suites")
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_criterion_5_metric_integrity(data, corpus_programs):
    block = data.draw(st.sampled_from(_METRIC_BLOCKS))
    prog = corpus_programs[block]
    csv_text, cells, target = data.draw(_oracle_true_suite(prog, block))
    suite = checked(csv_text, block, prog)

    report = run_suite(prog, suite)
    # totals equal the count of non-empty expected cells
    assert report.assertions_total == len(cells)
    assert report.assertions_passed == len(cells), csv_text  # oracle-true suite
    # percentage matches an independent recount
    recount = sum(1 for c in report.cases for a in c.assertions if a.passed)
    from stbench.coverage import round_pct

    assert report.assertions_passed == recount
    assert report.assertion_success_pct == round_pct(recount, report.assertions_total)

    # corrupting exactly one expected cell changes assertions_passed by one
    name, state_idx, col, ty, value = target
    bad_cell = _csv_cell(ty, _corrupt(ty, value))
    lines = csv_text.splitlines()
    header_cols = lines[0].split(",")
    col_pos = header_cols.index("expect_" + col)
    for idx, line in enumerate(lines[1:], start=1):
        cells_row = line.split(",")
        if cells_row[0] == name and cells_row[1] == str(state_idx):
            cells_row[col_pos] = bad_cell
            lines[idx] = ",".join(cells_row)
            break
    corrupted = checked("\n".join(lines) + "\n", block, prog)
    report2 = run_suite(prog, corrupted)
    assert report2.assertions_passed == report.assertions_passed - 1


# ---------------------------------------------------------------------------
# 6. harness validity for random suites
# ---------------------------------------------------------------------------

@pytest.mark.acceptance("6", ">= 500 random suites assemble with zero frontend errors")
@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_criterion_6_harness_validity(data, corpus_programs):
    block = data.draw(
        st.sampled_from(["COUNT_ACC", "LOGIC_MUX", "PI_CTRL", "EDGE_COUNT", "DEC_TO_HEX", "DELAY_GATE"])
    )
    prog = corpus_programs[block]
    suite = data.draw(suites_for(prog.lookup_pou(block)))
    checked_suite = validate(suite, prog)
    bundle = build_harness(checked_suite, prog)
    # build_harness resolves the generated layer; reaching here means zero errors
    assert bundle.typed.lookup_pou(bundle.program_name) is not None
    # and the harness.st text it prints stands alone as a valid program
    # whose generated POUs are the built ones (node equality, spans excluded)
    standalone = resolve(parse_source(bundle.source))
    built = bundle.typed.ast.pous
    assert [standalone.pous[pou.name].decl for pou in built] == built
    assert standalone.lookup_pou(bundle.program_name) is not None


# ---------------------------------------------------------------------------
# 7. assertion timing
# ---------------------------------------------------------------------------

SEQ_PROBE = """
FUNCTION_BLOCK SEQ_PROBE
VAR_INPUT X : DINT; END_VAR
VAR_OUTPUT SCANS : DINT; LASTX : DINT; END_VAR
SCANS := SCANS + 1;
LASTX := X;
END_FUNCTION_BLOCK
"""


@pytest.mark.acceptance("7", "state-k expectations checked one scan after state-k inputs")
def test_criterion_7_assertion_timing():
    from stbench.frontend import parse_text, resolve

    prog = resolve(parse_text(SEQ_PROBE))
    # the probe increments SCANS once per call: if checks ran on the same
    # scan as the next state's inputs (or later), the captured SCANS/LASTX
    # values would differ from (1, 11) and (2, 22)
    suite = checked(
        "test_name,state,X,expect_SCANS,expect_LASTX\n"
        "tc,1,11,1,11\n"
        "tc,2,22,2,22\n",
        "SEQ_PROBE",
        prog,
    )
    report = run_suite(prog, suite)
    assert report.cases[0].verdict == "pass"
    actuals = {(a.state, a.variable): a.actual for a in report.cases[0].assertions}
    assert actuals == {
        (1, "SCANS"): "1",
        (1, "LASTX"): "11",
        (2, "SCANS"): "2",
        (2, "LASTX"): "22",
    }


# ---------------------------------------------------------------------------
# 8. prompt-mode distinction
# ---------------------------------------------------------------------------

@pytest.mark.acceptance("8", "prompts differ exactly by the three enhanced groups")
def test_criterion_8_prompt_mode_distinction(corpus_sources, corpus_programs):
    from stbench.frontend import interface_of

    for block in ("DEC_TO_HEX", "PI_CTRL"):
        iface = interface_of(corpus_programs[block], block)
        simple = llm.build_prompt(corpus_sources[block], iface, "simple").full
        enhanced = llm.build_prompt(corpus_sources[block], iface, "enhanced").full
        groups = llm.enhanced_groups()
        assert len(groups) == 3
        stripped = enhanced
        for group in groups:
            assert stripped.count(group) == 1
            stripped = stripped.replace("\n\n" + group, "", 1)
        assert stripped == simple
