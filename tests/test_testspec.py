import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbench import corpus, llm

from stbench.frontend import parse_text, resolve
from stbench.frontend import types as T
from stbench.frontend.resolve import MAX_STORAGE
from stbench.testspec import (
    MAX_SCANS,
    CsvError,
    ValidationError,
    drop_unknown_columns,
    parse_suite,
    parse_value_literal,
    serialize_suite,
    suite_interface,
    validate,
)

from strategies import suites_for
from test_runner import IN_OUT_UNIT

DEC_SRC = """
FUNCTION_BLOCK DEC_TO_HEX
VAR_INPUT DE : INT; END_VAR
VAR_OUTPUT HEX : STRING; END_VAR
HEX := '';
END_FUNCTION_BLOCK
"""


@pytest.fixture(scope="module")
def dec_prog():
    return resolve(parse_text(DEC_SRC))


def test_single_state_case_base_conversion_oracle(dec_prog):
    # oracle: standard base conversion, 4096 decimal == 1000 hex
    assert format(4096, "X") == "1000"
    suite = parse_suite("test_name,state,DE,expect_HEX\ntc1,1,4096,'1000'\n", "DEC_TO_HEX")
    assert len(suite.cases) == 1
    assert suite.cases[0].states[0].inputs == {"DE": "4096"}
    assert suite.cases[0].states[0].expected == {"HEX": "'1000'"}
    checked = validate(suite, dec_prog)
    assert checked.cases[0].states[0].expected["HEX"].v == "1000"


def test_intermediate_states_without_expectations_are_valid(dec_prog):
    csv_text = (
        "test_name,state,DE,expect_HEX\n"
        "tc1,1,5,\n"
        "tc1,2,6,\n"
        "tc1,3,7,'7'\n"
    )
    suite = parse_suite(csv_text, "DEC_TO_HEX")
    checked = validate(suite, dec_prog)
    states = checked.cases[0].states
    assert [len(s.expected) for s in states] == [0, 0, 1]


def test_ragged_row_reports_row_number():
    with pytest.raises(CsvError) as err:
        parse_suite("test_name,state,DE\ntc1,1,2,EXTRA\n", "X")
    assert "ragged" in str(err.value)
    assert err.value.row == 2


@pytest.mark.parametrize(
    "csv_text,fragment",
    [
        ("", "missing header"),
        ("name,state,DE\nt,1,2\n", "must start with test_name,state"),
        ("test_name,state,DE\ntc,one,2\n", "non-numeric state"),
        ("test_name,state,DE\ntc,1,2\ntc,1,3\n", "duplicate (case, state)"),
        ("test_name,state,DE\ntc,0,2\n", "state index must be >= 1"),
        ("test_name,state,dwell_cycles,DE\ntc,1,zero,2\n", "non-numeric dwell"),
        ("test_name,state,dwell_cycles,DE\ntc,1,0,2\n", "dwell_cycles must be >= 1"),
        ("test_name,state,DE\n", "no test cases"),
        ("test_name,state,DE,expect_\ntc,1,2,3\n", "empty expect_ column name (row 1)"),
        ("test_name,state,DE\n ,1,2\n", "empty test_name (row 2)"),
    ],
)
def test_csv_errors(csv_text, fragment):
    with pytest.raises(CsvError) as err:
        parse_suite(csv_text, "X")
    assert fragment in str(err.value)


def test_states_ordered_by_index_cases_by_first_appearance():
    csv_text = (
        "test_name,state,DE\n"
        "b,2,20\n"
        "a,1,1\n"
        "b,1,10\n"
    )
    suite = parse_suite(csv_text, "X")
    assert [c.name for c in suite.cases] == ["b", "a"]
    assert [s.inputs["DE"] for s in suite.cases[0].states] == ["10", "20"]


def test_unknown_column_is_validation_error(dec_prog):
    suite = parse_suite("test_name,state,DEZ,expect_HEX\ntc,1,4,'4'\n", "DEC_TO_HEX")
    with pytest.raises(ValidationError) as err:
        validate(suite, dec_prog)
    assert any("unknown input column" in str(i) for i in err.value.items)


def test_only_a_function_block_is_accepted_as_the_block_under_test():
    prog = resolve(parse_text(
        DEC_SRC
        + "FUNCTION TWICE : INT\nVAR_INPUT DE : INT; END_VAR\nTWICE := DE * 2;\nEND_FUNCTION\n"
        + "PROGRAM MAIN\nVAR DE : INT; END_VAR\nDE := 1;\nEND_PROGRAM\n"
    ))
    for name, message in [
        ("TWICE", "TWICE is a FUNCTION, not a function block"),
        ("MAIN", "MAIN is a PROGRAM, not a function block"),
        ("NOPE", "unknown function block NOPE"),
    ]:
        with pytest.raises(ValidationError) as err:
            validate(parse_suite("test_name,state,DE\ntc,1,4\n", name), prog)
        assert [str(i) for i in err.value.items] == [f"-: {message}"]
    validate(parse_suite("test_name,state,DE,expect_HEX\ntc,1,4,''\n", "dec_to_hex"), prog)


def test_a_block_with_a_var_in_out_parameter_is_rejected():
    # no column binds a VAR_IN_OUT parameter, so no harness could call the
    # block; the block's problem is reported alone, before the suite's own
    prog = resolve(parse_text(IN_OUT_UNIT))
    with pytest.raises(ValidationError) as err:
        validate(parse_suite("test_name,state,X,expect_Y\ntc,1,1,1\n", "ACC"), prog)
    assert [str(i) for i in err.value.items] == ["-: ACC has VAR_IN_OUT parameter T, which no suite column can bind"]
    with pytest.raises(ValidationError) as err:
        validate(parse_suite("test_name,state,T,expect_Y\ntc,1,1,\n", "ACC"), prog)
    assert [str(i) for i in err.value.items] == ["-: ACC has VAR_IN_OUT parameter T, which no suite column can bind"]


ARRAY_UNIT = """FUNCTION_BLOCK MIXED
VAR_INPUT V : ARRAY[1..3] OF INT; N : INT; END_VAR
VAR_OUTPUT W : ARRAY[1..3] OF INT; Q : BOOL; END_VAR
Q := N > V[1];
END_FUNCTION_BLOCK
"""


def test_suite_columns_leave_array_variables_out():
    iface = suite_interface(resolve(parse_text(ARRAY_UNIT)), "mixed")
    assert iface.fb.name == "MIXED"
    assert iface.inputs == {"N": T.INT} and iface.outputs == {"Q": T.BOOL}


@pytest.mark.parametrize(
    "vars_,messages",
    [
        ("VAR_INPUT X : INT; END_VAR", ["has no output that a CSV cell can hold"]),
        ("VAR_OUTPUT W : ARRAY[1..2] OF INT; END_VAR", ["has no output that a CSV cell can hold"]),
        (
            "VAR_IN_OUT T : INT; U : BOOL; END_VAR",
            ["has VAR_IN_OUT parameters T, U, which no suite column can bind", "has no output that a CSV cell can hold"],
        ),
    ],
    ids=["no-output", "array-outputs-only", "in-out-and-no-output"],
)
def test_a_block_no_suite_can_drive_is_rejected_with_one_item_per_rule(vars_, messages):
    prog = resolve(parse_text(f"FUNCTION_BLOCK B\n{vars_}\nEND_FUNCTION_BLOCK\n"))
    with pytest.raises(ValidationError) as err:
        suite_interface(prog, "B")
    assert [str(i) for i in err.value.items] == [f"-: B {m}" for m in messages]
    with pytest.raises(ValidationError) as again:
        validate(parse_suite("test_name,state,X\ntc,1,1\n", "B"), prog)
    assert again.value.items == err.value.items


def test_array_columns_are_dropped_and_rejected_one_item_per_column():
    prog = resolve(parse_text(ARRAY_UNIT))
    # a column of empty cells too: no cell could ever fill it
    text = "test_name,state,V,N,expect_W,expect_Q\ntc,1,,1,,TRUE\n"
    with pytest.raises(ValidationError) as err:
        validate(parse_suite(text, "MIXED"), prog)
    assert [str(i) for i in err.value.items] == ["-/V: unknown input column", "-/expect_W: unknown output column"]
    cleaned, dropped = drop_unknown_columns(parse_suite(text, "MIXED"), suite_interface(prog, "MIXED"))
    assert dropped == ["V", "expect_W"]
    [state] = validate(cleaned, prog).cases[0].states
    assert (list(state.inputs), list(state.expected)) == (["N"], ["Q"])


def test_drop_unknown_columns(dec_prog):
    suite = parse_suite(
        "test_name,state,DE,NOTES,expect_HEX,expect_GHOST\ntc,1,4,hello,'4',1\n",
        "DEC_TO_HEX",
    )
    cleaned, dropped = drop_unknown_columns(suite, suite_interface(dec_prog, "DEC_TO_HEX"))
    assert dropped == ["NOTES", "expect_GHOST"]
    assert cleaned.input_columns == ["DE"]
    assert cleaned.output_columns == ["HEX"]
    validate(cleaned, dec_prog)


def test_case_without_any_assertion_rejected(dec_prog):
    suite = parse_suite("test_name,state,DE,expect_HEX\ntc,1,4,\n", "DEC_TO_HEX")
    with pytest.raises(ValidationError) as err:
        validate(suite, dec_prog)
    assert any("no assertable state" in str(i) for i in err.value.items)


def test_case_that_cannot_finish_within_the_scan_cap_rejected(dec_prog):
    # the last check runs on the scan after the total dwell
    fits = f"test_name,state,dwell_cycles,DE,expect_HEX\ntc,1,{MAX_SCANS - 1},4,''\n"
    validate(parse_suite(fits, "DEC_TO_HEX"), dec_prog)
    too_long = (
        "test_name,state,dwell_cycles,DE,expect_HEX\n"
        f"tc_ok,1,3,4,''\ntc_long,1,{MAX_SCANS - 2},4,\ntc_long,2,2,5,''\n"
    )
    with pytest.raises(ValidationError) as err:
        validate(parse_suite(too_long, "DEC_TO_HEX"), dec_prog)
    assert [str(i) for i in err.value.items] == [
        f"tc_long: total dwell of {MAX_SCANS} cycles cannot finish within the {MAX_SCANS}-scan cap"
    ]


def test_bad_literal_reports_case_state_column(dec_prog):
    suite = parse_suite("test_name,state,DE,expect_HEX\ntc,1,notanint,'4'\n", "DEC_TO_HEX")
    with pytest.raises(ValidationError) as err:
        validate(suite, dec_prog)
    item = err.value.items[0]
    assert (item.case, item.state, item.column) == ("tc", 1, "DE")


@pytest.mark.parametrize(
    "text,ty,value",
    [
        ("TRUE", T.BOOL, True),
        ("false", T.BOOL, False),
        ("1", T.BOOL, True),
        ("-42", T.INT, -42),
        ("16#FF", T.WORD, 255),
        ("3.5", T.REAL, 3.5),
        ("T#1s500ms", T.TIME, 1500),
        ("250", T.TIME, 250),
        ("'FF'", T.string(), "FF"),
        ("FF", T.string(), "FF"),
        ("'abc'", T.string(3), "abc"),
        ("x" * 80, T.string(), "x" * 80),
    ],
)
def test_value_literal_forms(text, ty, value):
    assert parse_value_literal(text, ty).v == value


@pytest.mark.parametrize(
    "text,ty",
    [
        ("maybe", T.BOOL),
        ("70000", T.INT),
        ("abc", T.REAL),
        ("T#oops", T.TIME),
        ("-5", T.TIME),
        ("nan", T.REAL),
        ("-inf", T.LREAL),
        ("1e39", T.REAL),  # overflows binary32
        ("'\u20ac'", T.string()),  # a STRING character is one byte
        ("'ab\u0100'", T.string()),
        # a cell is read as its column's type, so no expected value of another
        # type family reaches a harness comparison
        ("T#400ms", T.BOOL),
        ("7", T.BOOL),
        ("TRUE", T.TIME),
        ("TRUE", T.REAL),
        ("1.5", T.INT),
        ("abcd", T.string(3)),  # cut to fit, it would be another value
        ("'abcd'", T.string(3)),
        ("x" * 81, T.string()),
    ],
)
def test_value_literal_rejects(text, ty):
    with pytest.raises(ValueError):
        parse_value_literal(text, ty)


def test_a_string_cell_longer_than_its_column_holds_is_rejected():
    prog = resolve(parse_text(
        "FUNCTION_BLOCK ECHO\nVAR_INPUT S : STRING[3]; END_VAR\nVAR_OUTPUT O : STRING[3]; END_VAR\n"
        "O := S;\nEND_FUNCTION_BLOCK\n"
    ))
    with pytest.raises(ValidationError) as err:
        validate(parse_suite("test_name,state,S,expect_O\ntc,1,abcd,abcdef\n", "ECHO"), prog)
    assert [str(i) for i in err.value.items] == [
        "tc/state 1/S: 4 characters do not fit a STRING[3] (3 at most)",
        "tc/state 1/expect_O: 6 characters do not fit a STRING[3] (3 at most)",
    ]


def test_string_cells_take_every_single_byte_character():
    assert parse_value_literal("'\u00e9\u00ff'", T.string()).v == "\u00e9\u00ff"


def test_serialize_quotes_commas_and_keeps_empty_cells():
    suite = parse_suite(
        "test_name,state,S1,expect_OUTV\n"
        'tc,1,"\'a,b\'",\n'
        "tc,2,,'x'\n",
        "X",
    )
    text = serialize_suite(suite)
    assert '"\'a,b\'"' in text
    reparsed = parse_suite(text, "X")
    assert reparsed.cases[0].states[0].inputs["S1"] == "'a,b'"
    assert "S1" not in reparsed.cases[0].states[1].inputs
    assert reparsed.cases[0].states[0].expected == {}


def test_validation_totality_returns_or_raises(dec_prog, corpus_programs):
    # a validate call either returns a CheckedSuite or raises with >= 1 item
    good = parse_suite("test_name,state,DE,expect_HEX\ntc,1,1,'1'\n", "DEC_TO_HEX")
    assert validate(good, dec_prog) is not None
    bad = parse_suite("test_name,state,NOPE,expect_HEX\ntc,1,1,'1'\n", "DEC_TO_HEX")
    with pytest.raises(ValidationError) as err:
        validate(bad, dec_prog)
    assert len(err.value.items) >= 1


@settings(max_examples=120, deadline=None)
@given(data=__import__("hypothesis").strategies.data())
def test_roundtrip_random_suites(data, corpus_programs):
    prog = corpus_programs["COUNT_ACC"]
    suite = data.draw(suites_for(prog.lookup_pou("COUNT_ACC")))
    text = serialize_suite(suite)
    reparsed = parse_suite(text, suite.fb_under_test)
    assert reparsed == suite
    # a second round trip is byte-stable
    assert serialize_suite(reparsed) == text


# ---------------------------------------------------------------------------
# the CSV boundary: any text ends in a suite or a CsvError/ValidationError
# ---------------------------------------------------------------------------

_CELLS = [",", "\n", "\r", "\r\n", '"', "'", " ", "", "TRUE", "FALSE", "-1", "0", "1.5e40", "T#5s",
          "16#FF", "2#102", "dwell_cycles", "expect_", "state", "test_name", "NaN", "99999999999"]


@st.composite
def _mutated_corpus_suites(draw):
    """A corpus block's bundled suite with 1-4 random cuts, copies or
    insertions of CSV-significant text, and the block it is for."""
    name = draw(st.sampled_from([b.name for b in corpus.BLOCKS]))
    text = llm.extract_csv(corpus.fixture_path(name).read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = min(len(text), start + draw(st.integers(0, 30)))
        op = draw(st.sampled_from(["delete", "duplicate", "insert"]))
        if op == "delete":
            text = text[:start] + text[end:]
        elif op == "duplicate":
            text = text[:end] + text[start:end] + text[end:]
        else:
            text = text[:start] + draw(st.sampled_from(_CELLS)) + text[start:]
    return name, text


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(
    _mutated_corpus_suites(),
    st.tuples(st.sampled_from(["DEC_TO_HEX", "TRAFFIC_CTRL"]), st.text()),
))
def test_csv_boundary_yields_a_suite_or_a_csv_or_validation_error(case, corpus_programs):
    name, text = case
    try:
        checked = validate(parse_suite(text, name), corpus_programs[name])
    except (CsvError, ValidationError):
        return
    assert checked.cases and checked.fb_under_test == name


def test_oversized_csv_field_is_a_csv_error():
    text = 'test_name,state,DE\ntc,1,"' + "9" * 200_000 + '"\n'
    with pytest.raises(CsvError, match="field larger than field limit"):
        parse_suite(text, "DEC_TO_HEX")


def test_carriage_returns_end_rows():
    suite = parse_suite("test_name,state,DE,expect_HEX\rtc,1,4,'4'\r", "DEC_TO_HEX")
    assert suite.cases[0].states[0].expected == {"HEX": "'4'"}


def test_validation_bounds_the_storage_of_the_cases_instances():
    # the harness holds one BIG per case, with 14 values of its own for a
    # case of one check: two cases pass the bound, three do not
    prog = resolve(parse_text(
        "FUNCTION_BLOCK BIG\nVAR_INPUT X : INT; END_VAR\nVAR_OUTPUT Y : INT; END_VAR\n"
        "VAR A : ARRAY[1..400000] OF DINT; END_VAR\nY := X;\nEND_FUNCTION_BLOCK\n"
    ))
    def suite(cases: int):
        return parse_suite("test_name,state,X,expect_Y\n" + "".join(f"tc{i},1,0,0\n" for i in range(cases)), "BIG")

    assert len(validate(suite(2), prog).cases) == 2
    with pytest.raises(ValidationError) as err:
        validate(suite(3), prog)
    assert [str(i) for i in err.value.items] == [
        f"-: 3 cases of BIG would hold 1200048 values, more than {MAX_STORAGE}"
    ]
