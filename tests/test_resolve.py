import pytest

from stbench.frontend import (
    ResolveError,
    interface_of,
    parse_text,
    resolve,
)
from stbench.frontend import types as T
from stbench.frontend.lexer import TokKind, tokenize
from stbench.frontend.nodes import Section
from stbench.frontend.source import SourceUnit


def resolve_text(src, libs=None):
    return resolve(parse_text(src), libs or [])


def errors_of(src, libs=None):
    with pytest.raises(ResolveError) as err:
        resolve_text(src, libs)
    return str(err.value)


def test_builtin_ton_resolves_without_declaration():
    prog = resolve_text(
        """
        FUNCTION_BLOCK FB1
        VAR_INPUT X : BOOL; END_VAR
        VAR_OUTPUT Q : BOOL; END_VAR
        VAR t : TON; END_VAR
        t(IN := X, PT := T#1s);
        Q := t.Q;
        END_FUNCTION_BLOCK
        """
    )
    assert prog.pous["FB1"].fb_instances == {"T": "TON"}


def test_layers_follow_lookup_order_and_list_each_library_once():
    def fb(name, libs=()):
        return resolve_text(f"FUNCTION_BLOCK {name}\nEND_FUNCTION_BLOCK\n", list(libs))

    shared = fb("SHARED")
    left, right = fb("LEFT", [shared]), fb("RIGHT", [shared])
    top = fb("TOP", [left, right])
    assert [list(layer.pous) for layer in top.layers()] == [["TOP"], ["LEFT"], ["SHARED"], ["RIGHT"]]


def test_int_literal_out_of_range_is_resolve_error():
    msg = errors_of(
        """
        FUNCTION_BLOCK FB1
        VAR X : INT := 70000; END_VAR
        X := 0;
        END_FUNCTION_BLOCK
        """
    )
    assert "70000" in msg and "range" in msg


def test_int_min_initializer_accepted():
    prog = resolve_text(
        """
        FUNCTION_BLOCK FB1
        VAR X : INT := -32768; Y : INT := 32767; END_VAR
        X := Y;
        END_FUNCTION_BLOCK
        """
    )
    assert prog.pous["FB1"].vars["X"].init == -32768


def test_helper_fb_resolves_via_libraries():
    lib = resolve_text(
        """
        FUNCTION_BLOCK HELPER
        VAR_INPUT A : INT; END_VAR
        VAR_OUTPUT B : INT; END_VAR
        B := A + 1;
        END_FUNCTION_BLOCK
        """
    )
    prog = resolve_text(
        """
        FUNCTION_BLOCK MAINFB
        VAR_OUTPUT OUTV : INT; END_VAR
        VAR H : HELPER; END_VAR
        H(A := 1);
        OUTV := H.B;
        END_FUNCTION_BLOCK
        """,
        libs=[lib],
    )
    assert prog.pous["MAINFB"].fb_instances["H"] == "HELPER"
    assert prog.lookup_pou("HELPER") is not None


def test_unknown_identifier_and_duplicate_declaration_collected_together():
    msg = errors_of(
        """
        FUNCTION_BLOCK FB1
        VAR X : INT; X : BOOL; END_VAR
        Y := 1;
        END_FUNCTION_BLOCK
        """
    )
    assert "duplicate declaration" in msg
    assert "unknown identifier Y" in msg


def test_assignment_to_input_of_another_instance_rejected():
    msg = errors_of(
        """
        FUNCTION_BLOCK INNER
        VAR_INPUT I : INT; END_VAR
        VAR_OUTPUT O : INT; END_VAR
        O := I;
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK OUTER
        VAR N : INNER; END_VAR
        N.I := 5;
        END_FUNCTION_BLOCK
        """
    )
    assert "cannot assign to input I" in msg


def test_promotion_lattice_strictness():
    # widening is implicit, crossing families is not
    resolve_text(
        """
        FUNCTION_BLOCK FB1
        VAR I : INT; D : DINT; R : REAL; L : LREAL; END_VAR
        D := I;
        L := R;
        D := I + D;
        END_FUNCTION_BLOCK
        """
    )
    msg = errors_of(
        """
        FUNCTION_BLOCK FB1
        VAR I : INT; R : REAL; END_VAR
        R := I;
        END_FUNCTION_BLOCK
        """
    )
    assert "cannot assign INT to REAL" in msg
    msg = errors_of(
        """
        FUNCTION_BLOCK FB1
        VAR I : INT; R : REAL; END_VAR
        R := R + I;
        END_FUNCTION_BLOCK
        """
    )
    assert "invalid operands" in msg


def test_explicit_conversions_resolve():
    prog = resolve_text(
        """
        FUNCTION_BLOCK FB1
        VAR I : INT; D : DINT; R : REAL; W : WORD; TM : TIME; S : STRING; END_VAR
        R := INT_TO_REAL(I);
        I := DINT_TO_INT(D);
        D := TIME_TO_DINT(TM);
        TM := DINT_TO_TIME(D);
        W := INT_TO_WORD(I);
        S := REAL_TO_STRING(R);
        END_FUNCTION_BLOCK
        """
    )
    assert prog is not None


def test_wrong_arity_and_unknown_function():
    msg = errors_of(
        """
        FUNCTION_BLOCK FB1
        VAR R : REAL; END_VAR
        R := SIN(R, R);
        R := FROBNICATE(R);
        END_FUNCTION_BLOCK
        """
    )
    assert "SIN takes one REAL" in msg
    assert "unknown function FROBNICATE" in msg


def test_standard_function_typing():
    prog = resolve_text(
        """
        FUNCTION_BLOCK FB1
        VAR I : INT; D : DINT; R : REAL; S : STRING; W : WORD; B2 : BOOL; END_VAR
        I := ABS(I);
        D := MAX(D, 1);
        I := LIMIT(0, I, 10);
        R := SEL(B2, R, R);
        D := TRUNC(R);
        W := SHL(W, 2);
        S := CONCAT(S, 'X');
        I := LEN(S);
        S := MID(S, 2, 1);
        END_FUNCTION_BLOCK
        """
    )
    assert prog is not None


def test_user_function_call_types_and_arity():
    src = """
    FUNCTION TWICE : INT
    VAR_INPUT N : INT; END_VAR
    TWICE := N * 2;
    END_FUNCTION
    FUNCTION_BLOCK FB1
    VAR X : INT; END_VAR
    X := TWICE(4);
    END_FUNCTION_BLOCK
    """
    assert resolve_text(src) is not None
    msg = errors_of(src.replace("TWICE(4)", "TWICE(4, 5)"))
    assert "takes 1 argument" in msg


def test_var_in_out_must_be_bound():
    msg = errors_of(
        """
        FUNCTION_BLOCK SWAPPER
        VAR_IN_OUT V : INT; END_VAR
        V := V + 1;
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK FB1
        VAR S : SWAPPER; X : INT; END_VAR
        S();
        END_FUNCTION_BLOCK
        """
    )
    assert "must be bound" in msg


def test_fb_output_binding_and_member_reads():
    prog = resolve_text(
        """
        FUNCTION_BLOCK FB1
        VAR t : TON; q : BOOL; e : TIME; END_VAR
        t(IN := TRUE, PT := T#10ms, Q => q);
        e := t.ET;
        END_FUNCTION_BLOCK
        """
    )
    assert prog is not None
    msg = errors_of(
        """
        FUNCTION_BLOCK FB1
        VAR t : TON; q : BOOL; END_VAR
        t(WRONG := 1);
        q := t.NOPE;
        END_FUNCTION_BLOCK
        """
    )
    assert "no parameter WRONG" in msg
    assert "no member NOPE" in msg


def test_exit_outside_loop_rejected():
    assert "EXIT outside" in errors_of(
        """
        FUNCTION_BLOCK FB1
        VAR X : INT; END_VAR
        EXIT;
        END_FUNCTION_BLOCK
        """
    )


def test_interface_projection():
    prog = resolve_text(
        """
        FUNCTION_BLOCK FB1
        VAR_INPUT A : BOOL; N : INT; END_VAR
        VAR_OUTPUT Q : BOOL; S : STRING; END_VAR
        VAR X : INT; END_VAR
        Q := A;
        END_FUNCTION_BLOCK
        """
    )
    iface = interface_of(prog, "fb1")
    assert iface.inputs == [("A", "BOOL"), ("N", "INT")]
    assert iface.outputs == [("Q", "BOOL"), ("S", "STRING")]


def _flip_case(text: str) -> str:
    """Swap the case of identifier and keyword tokens only (string literals
    and comments untouched)."""
    src = SourceUnit(text)
    out = []
    pos = 0
    for tok in tokenize(src):
        out.append(text[pos : tok.span.start])
        lexeme = text[tok.span.start : tok.span.end]
        if tok.kind in (TokKind.IDENT, TokKind.KEYWORD):
            out.append(lexeme.swapcase())
        else:
            out.append(lexeme)
        pos = tok.span.end
    out.append(text[pos:])
    return "".join(out)


def test_case_insensitivity_over_corpus(corpus_sources):
    for name, text in corpus_sources.items():
        flipped = _flip_case(text)
        assert flipped != text
        p1 = resolve(parse_text(text, name))
        p2 = resolve(parse_text(flipped, name))
        assert p1.ast.pous == p2.ast.pous
        assert set(p1.pous) == set(p2.pous)
        for pou in p1.pous:
            v1 = {n: (v.ty, v.section, v.init) for n, v in p1.pous[pou].vars.items()}
            v2 = {n: (v.ty, v.section, v.init) for n, v in p2.pous[pou].vars.items()}
            assert v1 == v2
            assert [n.sid for n in p1.pous[pou].sites] == [n.sid for n in p2.pous[pou].sites]


def test_validation_errors_report_multiple():
    msg = errors_of(
        """
        FUNCTION_BLOCK FB1
        VAR B2 : BOOL; I : INT; S : STRING; END_VAR
        B2 := I;
        I := S;
        WHILE I DO I := I - 1; END_WHILE;
        END_FUNCTION_BLOCK
        """
    )
    assert "cannot assign INT to BOOL" in msg
    assert "cannot assign STRING" in msg
    assert "condition must be BOOL" in msg


def test_duplicate_pou_rejected():
    assert "duplicate declaration of FB1" in errors_of(
        """
        FUNCTION_BLOCK FB1
        VAR X : INT; END_VAR
        X := 1;
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK FB1
        VAR Y : INT; END_VAR
        Y := 1;
        END_FUNCTION_BLOCK
        """
    )


def test_string_capacity_and_array_types():
    prog = resolve_text(
        """
        FUNCTION_BLOCK FB1
        VAR S : STRING[4]; A : ARRAY[1..3] OF INT := [1, 2, 3]; X : INT; END_VAR
        S := 'AB';
        A[2] := 5;
        X := A[1] + A[3];
        END_FUNCTION_BLOCK
        """
    )
    assert prog.pous["FB1"].vars["S"].ty == T.string(4)
    assert prog.pous["FB1"].vars["A"].ty == T.array(1, 3, T.INT)
    assert prog.pous["FB1"].vars["A"].init == [1, 2, 3]
