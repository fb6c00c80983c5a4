import pytest

from stbench import coverage as cov
from stbench.frontend import parse_text, resolve
from stbench.frontend import types as T
from stbench.frontend.source import SourceUnit
from stbench.runtime import ExecTrace, SimClock, execute_cycle, instantiate, make

SRC = """FUNCTION_BLOCK FB1
VAR_INPUT A : BOOL; END_VAR
VAR_OUTPUT X : INT; END_VAR
IF A THEN
    X := 1;
ELSE
    X := 2;
END_IF;
X := X + 1;
END_FUNCTION_BLOCK
"""


def make_trace(entries):
    t = ExecTrace()
    for pou, sid in entries:
        t.add(pou, sid)
    return t


@pytest.fixture()
def prog():
    return resolve(parse_text(SRC, "fb1.st"))


def test_domain_is_explicit_and_zeroed(prog):
    cmap = cov.CoverageMap.for_program(prog)
    assert cmap.counts["FB1"] == {0: 0, 1: 0, 2: 0, 3: 0}


def test_accumulate_empty_trace_is_identity(prog):
    cmap = cov.CoverageMap.for_program(prog)
    before = {p: dict(s) for p, s in cmap.counts.items()}
    cov.accumulate(cmap, make_trace([]))
    assert cmap.counts == before


def test_accumulate_counts_occurrences(prog):
    cmap = cov.CoverageMap.for_program(prog)
    cov.accumulate(cmap, make_trace([("FB1", 0), ("FB1", 1), ("FB1", 1)]))
    assert cmap.counts["FB1"] == {0: 1, 1: 2, 2: 0, 3: 0}


def test_accumulate_commutes(prog):
    t1 = make_trace([("FB1", 0), ("FB1", 1)])
    t2 = make_trace([("FB1", 1), ("FB1", 3)])
    m1 = cov.CoverageMap.for_program(prog)
    m2 = cov.CoverageMap.for_program(prog)
    cov.accumulate(cov.accumulate(m1, t1), t2)
    cov.accumulate(cov.accumulate(m2, t2), t1)
    assert m1.counts == m2.counts


def test_foreign_statement_rejected(prog):
    cmap = cov.CoverageMap.for_program(prog)
    with pytest.raises(cov.ForeignStatement):
        cov.accumulate(cmap, make_trace([("FB1", 99)]))
    with pytest.raises(cov.ForeignStatement):
        cov.accumulate(cmap, make_trace([("GHOST", 0)]))


def test_summarize_full_and_partial_and_empty(prog):
    cmap = cov.CoverageMap.for_program(prog)
    assert cov.summarize(cmap, prog, "FB1").unit.percentage == 0.0

    cov.accumulate(cmap, make_trace([("FB1", 0), ("FB1", 1), ("FB1", 3)]))
    summary = cov.summarize(cmap, prog, "FB1")
    assert summary.unit.statements_total == 4
    assert summary.unit.statements_hit == 3
    assert summary.unit.percentage == 75.0

    cov.accumulate(cmap, make_trace([("FB1", 2)]))
    assert cov.summarize(cmap, prog, "FB1").unit.percentage == 100.0

    with pytest.raises(cov.UnknownPou):
        cov.summarize(cmap, prog, "NOPE")


def test_percentage_rounding_half_up():
    assert cov.round_pct(7, 10) == 70.0
    assert cov.round_pct(1, 3) == 33.33
    assert cov.round_pct(2, 3) == 66.67
    assert cov.round_pct(1, 8) == 12.5
    assert cov.round_pct(5, 1000) == 0.5
    assert cov.round_pct(25, 10000) == 0.25
    assert cov.round_pct(125, 100000) == 0.13  # exact .125 rounds half-up
    assert cov.round_pct(0, 0) == 100.0


def test_monotonicity_under_accumulation(prog):
    cmap = cov.CoverageMap.for_program(prog)
    last_pct = 0.0
    for sid in (0, 1, 3, 2, 0):
        cov.accumulate(cmap, make_trace([("FB1", sid)]))
        pct = cov.summarize(cmap, prog, "FB1").unit.percentage
        assert pct >= last_pct
        last_pct = pct


def run_fb_and_cover(prog, src_text, inputs_list):
    inst = instantiate(prog, "FB1")
    cmap = cov.CoverageMap.for_program(prog)
    clock = SimClock()
    for inputs in inputs_list:
        _, trace = execute_cycle(inst, inputs, clock)
        cov.accumulate(cmap, trace)
    return cmap


def test_render_annotated_markers(prog):
    cmap = run_fb_and_cover(prog, SRC, [{"A": make(T.BOOL, True)}])
    text = cov.render_annotated(cmap, [(prog, 0)], prog.src)
    lines = text.splitlines()
    # declarations are non-executable
    assert lines[0].startswith("        -:    1:FUNCTION_BLOCK FB1")
    by_line = {int(l.split(":")[1]): l.split(":")[0].strip() for l in lines}
    assert by_line[4] == "1"       # IF guard evaluated
    assert by_line[5] == "1"       # taken branch
    assert by_line[7] == "#####"   # ELSE branch never executed
    assert by_line[9] == "1"


def test_render_annotated_fully_covered_has_no_markers(prog):
    cmap = run_fb_and_cover(
        prog, SRC, [{"A": make(T.BOOL, True)}, {"A": make(T.BOOL, False)}]
    )
    assert "#####" not in cov.render_annotated(cmap, [(prog, 0)], prog.src)


def test_render_lcov_records(prog):
    cmap = run_fb_and_cover(prog, SRC, [{"A": make(T.BOOL, True)}])
    text = cov.render_lcov(cmap, [(prog, 0)], prog.src)
    lines = text.splitlines()
    assert lines[0] == "SF:fb1.st"
    assert "DA:7,0" in lines          # uncovered line present with count 0
    assert "LF:4" in lines
    assert "LH:3" in lines
    assert lines[-1] == "end_of_record"


def test_lcov_max_rule_for_shared_lines():
    src = "FUNCTION_BLOCK FB1\nVAR_INPUT A : BOOL; END_VAR\nVAR_OUTPUT X : INT; END_VAR\nVAR I : INT; END_VAR\nFOR I := 1 TO 3 DO X := X + 1; END_FOR;\nEND_FUNCTION_BLOCK\n"
    prog = resolve(parse_text(src, "one_line.st"))
    inst = instantiate(prog, "FB1")
    cmap = cov.CoverageMap.for_program(prog)
    _, trace = execute_cycle(inst, {"A": make(T.BOOL, True)}, SimClock())
    cov.accumulate(cmap, trace)
    # header hit once, body statement hit 3 times, same source line -> max
    text = cov.render_lcov(cmap, [(prog, 0)], prog.src)
    assert "DA:5,3" in text.splitlines()


def test_domain_takes_the_first_definition_in_lookup_order():
    # two libraries define HELP; execution uses the first, so must coverage
    help3 = "FUNCTION_BLOCK HELP\nVAR X : INT; END_VAR\nX := 1;\nX := 2;\nX := 3;\nEND_FUNCTION_BLOCK\n"
    help1 = "FUNCTION_BLOCK HELP\nVAR X : INT; END_VAR\nX := 9;\nEND_FUNCTION_BLOCK\n"
    libs = [resolve(parse_text(help3, "help3.st")), resolve(parse_text(help1, "help1.st"))]
    user = resolve(
        parse_text("FUNCTION_BLOCK USER\nVAR H : HELP; END_VAR\nH();\nEND_FUNCTION_BLOCK\n", "user.st"),
        libs,
    )
    assert user.lookup_pou("HELP") is libs[0].pous["HELP"]
    cmap = cov.CoverageMap.for_program(user)
    assert cmap.counts["HELP"] == {0: 0, 1: 0, 2: 0}
    _, trace = execute_cycle(instantiate(user, "USER"), {}, SimClock())
    cov.accumulate(cmap, trace)
    assert cmap.counts == {"USER": {0: 1}, "HELP": {0: 1, 1: 1, 2: 1}}
