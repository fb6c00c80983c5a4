import io

import pytest

from stbench import coverage as cov
from stbench.frontend import parse_text, resolve
from stbench.frontend import types as T
from stbench.frontend.nodes import site_span
from stbench.runtime import SimClock, execute_cycle, instantiate, make

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

IDLE = """FUNCTION_BLOCK IDLE
VAR N : INT; END_VAR
N := N + 1;
N := N * 2;
END_FUNCTION_BLOCK
"""


def on(a):
    return {"A": make(T.BOOL, a)}


def add(total, counts):
    """Fold one scan's count arrays into `total`, element-wise."""
    for pou, cnt in counts.items():
        acc = total.setdefault(pou, [0] * len(cnt))
        for i, n in enumerate(cnt):
            acc[i] += n


def run_scans(prog, inputs_list, fb="FB1"):
    """A run's counts: execute_cycle's per-scan arrays summed element-wise."""
    inst = instantiate(prog, fb)
    clock = SimClock()
    total = {}
    for inputs in inputs_list:
        add(total, execute_cycle(inst, inputs, clock)[1])
    return total


def rendered(render, *args) -> str:
    """What a renderer writes to its stream, as one string."""
    out = io.StringIO()
    render(*args, out)
    return out.getvalue()


def lines_of(prog, counts):
    return cov.line_counts(cov.domain(prog), counts, prog)


@pytest.fixture()
def prog():
    return resolve(parse_text(SRC, "fb1.st"))


def test_a_pou_that_never_ran_reports_zero_of_its_sites():
    prog = resolve(parse_text(SRC + IDLE, "two.st"))
    counts = run_scans(prog, [on(True)])
    assert "IDLE" not in counts
    info = prog.lookup_pou("IDLE")
    summary = cov.summarize(cov.domain(prog), counts, "FB1")
    assert summary.per_pou["IDLE"] == cov.PouCoverage(len(info.sites), 0, 0.0)
    assert len(info.sites) == 2
    # its executable lines render as never executed
    lines = lines_of(prog, counts)
    assert [lines[n] for n in (13, 14)] == [0, 0]


def test_accumulate_counts_occurrences(prog):
    # slot i counts the executions of the POU's i-th site, summed over scans
    assert run_scans(prog, [on(True)]) == {"FB1": [1, 1, 0, 1]}
    assert run_scans(prog, [on(True), on(True), on(False)]) == {"FB1": [3, 2, 1, 3]}


def test_summarize_full_and_partial_and_empty(prog):
    pous = cov.domain(prog)
    assert cov.summarize(pous, {}, "FB1").unit.percentage == 0.0

    summary = cov.summarize(pous, run_scans(prog, [on(True)]), "FB1")
    assert summary.unit.statements_total == 4
    assert summary.unit.statements_hit == 3
    assert summary.unit.percentage == 75.0

    counts = run_scans(prog, [on(True), on(False)])
    assert cov.summarize(pous, counts, "FB1").unit.percentage == 100.0

    with pytest.raises(KeyError):
        cov.summarize(pous, counts, "NOPE")


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
    pous = cov.domain(prog)
    inst = instantiate(prog, "FB1")
    clock = SimClock()
    total = {}
    last_pct = 0.0
    for a in (True, True, False, True):
        add(total, execute_cycle(inst, on(a), clock)[1])
        pct = cov.summarize(pous, total, "FB1").unit.percentage
        assert pct >= last_pct
        last_pct = pct


def test_render_annotated_markers(prog):
    counts = run_scans(prog, [on(True)])
    text = rendered(cov.render_annotated, lines_of(prog, counts), prog.src)
    lines = text.splitlines()
    # gcov's header line names the source; declarations are non-executable
    assert lines[0] == "        -:    0:Source:fb1.st"
    assert lines[1].startswith("        -:    1:FUNCTION_BLOCK FB1")
    by_line = {int(l.split(":")[1]): l.split(":")[0].strip() for l in lines}
    assert by_line[4] == "1"       # IF guard evaluated
    assert by_line[5] == "1"       # taken branch
    assert by_line[7] == "#####"   # ELSE branch never executed
    assert by_line[9] == "1"


def test_render_annotated_fully_covered_has_no_markers(prog):
    counts = run_scans(prog, [on(True), on(False)])
    assert "#####" not in rendered(cov.render_annotated, lines_of(prog, counts), prog.src)


def test_render_lcov_records(prog):
    counts = run_scans(prog, [on(True)])
    text = rendered(cov.render_lcov, lines_of(prog, counts), prog.src)
    lines = text.splitlines()
    assert lines[0] == "SF:fb1.st"
    assert "DA:7,0" in lines          # uncovered line present with count 0
    assert "LF:4" in lines
    assert "LH:3" in lines
    assert lines[-1] == "end_of_record"


def test_lcov_max_rule_for_shared_lines():
    src = "FUNCTION_BLOCK FB1\nVAR_INPUT A : BOOL; END_VAR\nVAR_OUTPUT X : INT; END_VAR\nVAR I : INT; END_VAR\nFOR I := 1 TO 3 DO X := X + 1; END_FOR;\nEND_FUNCTION_BLOCK\n"
    prog = resolve(parse_text(src, "one_line.st"))
    counts = run_scans(prog, [on(True)])
    # header hit once, body statement hit 3 times, same source line -> max
    text = rendered(cov.render_lcov, lines_of(prog, counts), prog.src)
    assert "DA:5,3" in text.splitlines()


def test_domain_takes_the_first_definition_in_lookup_order():
    # two libraries define HELP; execution uses the first, so must coverage
    help3 = "FUNCTION_BLOCK HELP\nVAR X : INT; END_VAR\nX := 1;\nX := 2;\nX := 3;\nEND_FUNCTION_BLOCK\n"
    help1 = "FUNCTION_BLOCK HELP\nVAR X : INT; END_VAR\nX := 9;\nEND_FUNCTION_BLOCK\n"
    unit = "FUNCTION_BLOCK USER\nVAR H : HELP; END_VAR\nH();\nEND_FUNCTION_BLOCK\n"
    libs = [resolve(parse_text(help3, "help3.st")), resolve(parse_text(help1, "help1.st"))]
    user = resolve(parse_text(unit, "user.st"), libs)
    assert user.lookup_pou("HELP") is libs[0].pous["HELP"]
    pous = cov.domain(user)
    assert list(pous) == ["USER", "HELP"]
    assert pous["HELP"] is libs[0].pous["HELP"]
    counts = run_scans(user, [{}], fb="USER")
    assert counts == {"USER": [1], "HELP": [1, 1, 1]}
    assert cov.summarize(pous, counts, "USER").per_pou["HELP"] == cov.PouCoverage(3, 3, 100.0)

    # each source in its own lines: the shadowed HELP never ran, so its
    # source lists no executable line
    shadowed = cov.line_counts(pous, counts, libs[1])
    assert shadowed == {}
    annotated = rendered(cov.render_annotated, shadowed, libs[1].src).splitlines()
    assert annotated[3] == f"{'-':>9}:{3:>5}:X := 9;"
    assert rendered(cov.render_lcov, shadowed, libs[1].src) == "SF:help1.st\nLF:0\nLH:0\nend_of_record\n"
    # the definition that ran keeps its counts, and the unit its own
    assert cov.line_counts(pous, counts, libs[0]) == {3: 1, 4: 1, 5: 1}
    assert cov.line_counts(pous, counts, user) == {3: 1}


def test_the_renderings_slice_crlf_lines_as_line_text_gives_them():
    # \r\n line endings, a line with a second trailing \r, and no final
    # newline: each listed line and each site's line must be the one
    # SourceUnit.line_text and line_of give, line by line
    text = (SRC.replace("X := 2;", "X := 2; (* two *)\r") + IDLE).replace("\n", "\r\n").rstrip("\r\n")
    prog = resolve(parse_text(text, "crlf.st"))
    src = prog.src
    assert not text.endswith("\n") and "\r\r\n" in text
    counts = run_scans(prog, [on(True), on(True)])
    lines = lines_of(prog, counts)

    expected: dict[int, int] = {}
    for info in cov.domain(prog).values():
        for node, count in zip(info.sites, counts.get(info.name) or [0] * len(info.sites)):
            line = src.line_of(site_span(node).start)
            expected[line] = max(expected.get(line, count), count)
    assert lines == expected

    listing = [f"{'-':>9}:{0:>5}:Source:crlf.st\n"]
    for n in range(1, src.line_count() + 1):
        count = expected.get(n)
        marker = "-" if count is None else "#####" if count == 0 else count
        listing.append(f"{marker:>9}:{n:>5}:{src.line_text(n)}\n")
    annotated = rendered(cov.render_annotated, lines, src)
    assert annotated == "".join(listing)
    assert annotated.endswith(":END_FUNCTION_BLOCK\n") and "\r" not in annotated

    lcov = ["SF:crlf.st\n", *(f"DA:{n},{expected[n]}\n" for n in sorted(expected))]
    lcov.append(f"LF:{len(expected)}\nLH:{sum(1 for c in expected.values() if c)}\nend_of_record\n")
    assert rendered(cov.render_lcov, lines, src) == "".join(lcov)
