import dataclasses

import pytest

from stbench.frontend import (
    ResolveError,
    interface_of,
    parse_text,
    resolve,
)
from stbench.frontend import types as T
from stbench.frontend.lexer import TokKind, tokenize
from stbench.frontend.nodes import Literal, Section
from stbench.frontend.resolve import MAX_STORAGE
from stbench.frontend.source import SourceUnit
from stbench.runtime import SimClock, execute_cycle, instantiate, make


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
    assert iface.inputs == ["A", "N"]
    assert iface.outputs == ["Q", "S"]


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


def _literals(node):
    """Every literal in a statement list or node, depth first."""
    if isinstance(node, list):
        for item in node:
            yield from _literals(item)
    elif dataclasses.is_dataclass(node):
        if isinstance(node, Literal):
            yield node
        for f in dataclasses.fields(node):
            yield from _literals(getattr(node, f.name))


SINGLETONS = (T.INT, T.DINT, T.BYTE, T.WORD, T.REAL, T.LREAL)


def test_number_literals_resolve_to_the_shared_type_objects(corpus_programs):
    prog = resolve_text(
        """
        FUNCTION_BLOCK NUMS
        VAR I : INT; D : DINT; B : BYTE; W : WORD; R : REAL; L : LREAL; END_VAR
        I := 1; D := 2; B := 3; W := 4; R := 5.0; L := 6.0;
        R := 1.5; L := 2.5 * L; D := 100000; I := -7;
        IF B > 1 AND W < 9 THEN D := D + 1; END_IF;
        FOR I := 1 TO 9 BY 2 DO L := L + 0.5; END_FOR;
        END_FUNCTION_BLOCK
        """
    )
    numbers = (Literal.K.INT, Literal.K.REAL)
    kinds = set()
    for p in [prog, *corpus_programs.values()]:
        for info in p.pous.values():
            for lit in _literals(info.decl.body):
                if lit.lit_kind in numbers:
                    assert any(lit.ty is ty for ty in SINGLETONS), lit
                    kinds.add(lit.ty.kind)
    assert kinds == {ty.kind for ty in SINGLETONS}


def test_instance_cycles_are_rejected_once_each_and_shared_types_are_not():
    err = errors_of(
        """
        FUNCTION_BLOCK A
        VAR B1 : B; B2 : B; END_VAR
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK B
        VAR C1 : C; T : TON; END_VAR
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK C
        VAR X : INT; END_VAR
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK P
        VAR Q1 : Q; END_VAR
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK Q
        VAR R1 : R; END_VAR
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK R
        VAR P1 : P; C2 : C; END_VAR
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK SELF
        VAR ME : SELF; END_VAR
        END_FUNCTION_BLOCK
        """
    )
    # the diamond A -> B (twice) -> C is no cycle; each cycle is reported
    # once, at the declaration that closes it
    assert err.count("recursive instantiation") == 2
    assert "recursive instantiation: P -> Q -> R -> P" in err
    assert "recursive instantiation: SELF -> SELF" in err


SIZED_SRC = """
FUNCTION_BLOCK LEAF
VAR_OUTPUT Y : INT; END_VAR
VAR A : ARRAY[1..10] OF DINT; T : TON; END_VAR
Y := 1;
END_FUNCTION_BLOCK
FUNCTION_BLOCK MID
VAR L1 : LEAF; L2 : LEAF; N : INT; END_VAR
L1();
END_FUNCTION_BLOCK
PROGRAM MAIN
VAR M : MID; END_VAR
M();
END_PROGRAM
FUNCTION F : INT
VAR_INPUT X : INT; END_VAR
VAR B : ARRAY[0..99] OF INT; END_VAR
F := X;
END_FUNCTION
"""


def test_each_pou_is_sized_by_the_values_it_holds():
    prog = resolve_text(SIZED_SRC)
    # LEAF: Y, ten elements, and a TON instance of four values; MID: two
    # LEAF instances and N; F: X and a hundred elements
    sizes = {name: prog.lookup_pou(name).size for name in ("LEAF", "MID", "MAIN", "F")}
    assert sizes == {"LEAF": 16, "MID": 35, "MAIN": 36, "F": 101}
    # a library's sizes carry over to the instances a unit holds of them
    user = resolve_text("PROGRAM P\nVAR M : MID; K : INT; END_VAR\nM();\nEND_PROGRAM\n", [prog])
    assert user.lookup_pou("P").size == 37


def test_a_unit_is_rejected_at_the_declaration_taking_it_past_the_storage_bound():
    fb = "FUNCTION_BLOCK BIG\nVAR A : ARRAY[1..999999] OF INT; Y : INT;{} END_VAR\nY := 1;\nEND_FUNCTION_BLOCK\n"
    assert resolve_text(fb.format("")).lookup_pou("BIG").size == MAX_STORAGE
    assert errors_of(fb.format(" Z : INT;")) == "<memory>:2:43: BIG would hold more than 1000000 values"
    # an FB holding an FB already above the bound is not reported again
    holder = "FUNCTION_BLOCK HOLDER\nVAR B1 : BIG; B2 : BIG; END_VAR\nEND_FUNCTION_BLOCK\n"
    assert errors_of(fb.format(" Z : INT;") + holder).count("would hold more than") == 1
    # an instance of a BIG at the bound takes HOLDER past it
    assert errors_of(fb.format("") + holder) == "<memory>:6:5: HOLDER would hold more than 1000000 values"


@pytest.mark.parametrize(
    "src,message",
    [
        ("FUNCTION_BLOCK TON\nVAR_OUTPUT Q : BOOL; END_VAR\nEND_FUNCTION_BLOCK\n",
         "TON is reserved for the built-in function block"),
        ("FUNCTION_BLOCK CTD\nEND_FUNCTION_BLOCK\n", "CTD is reserved for the built-in function block"),
        ("FUNCTION ABS : INT\nVAR_INPUT V : INT; END_VAR\nABS := V;\nEND_FUNCTION\n",
         "ABS is reserved for the built-in function"),
        ("FUNCTION INT_TO_REAL : REAL\nVAR_INPUT V : INT; END_VAR\nINT_TO_REAL := 0.0;\nEND_FUNCTION\n",
         "INT_TO_REAL is reserved for the built-in function"),
        ("FUNCTION DINT_TO_STRING : STRING\nVAR_INPUT V : DINT; END_VAR\nDINT_TO_STRING := '';\nEND_FUNCTION\n",
         "DINT_TO_STRING is reserved for the built-in function"),
    ],
    ids=["fb-TON", "fb-CTD", "function-ABS", "conversion", "string-conversion"],
)
def test_a_user_pou_named_after_a_builtin_of_its_kind_is_rejected(src, message):
    holder = "PROGRAM P\nVAR X : INT; END_VAR\nX := 1;\nEND_PROGRAM\n"
    assert errors_of(holder + src) == f"<memory>:5:1: {message}"


def test_a_library_call_means_the_builtin_whatever_the_unit_defines():
    # the unit may not redefine ABS, so the library's call is the built-in's
    lib = resolve_text(
        "FUNCTION_BLOCK LIB\nVAR_INPUT X : INT; END_VAR\nVAR_OUTPUT Y : INT; END_VAR\n"
        "Y := ABS(X);\nEND_FUNCTION_BLOCK\n"
    )
    assert lib.pous["LIB"].calls == []
    unit = "FUNCTION ABS : INT\nVAR_INPUT V : INT; END_VAR\nABS := V;\nEND_FUNCTION\n"
    assert errors_of(unit, [lib]) == "<memory>:1:1: ABS is reserved for the built-in function"


def test_a_builtin_name_is_free_for_a_pou_of_the_other_kind():
    # a block named ABS and a function named TON leave the built-in ABS
    # function and TON block in reach, each by where its name stands
    prog = resolve_text(
        """
        FUNCTION_BLOCK ABS
        VAR_INPUT X : INT; END_VAR
        VAR_OUTPUT Y : INT; END_VAR
        Y := X;
        END_FUNCTION_BLOCK
        FUNCTION TON : INT
        VAR_INPUT V : INT; END_VAR
        TON := V + 1;
        END_FUNCTION
        FUNCTION_BLOCK USER
        VAR_INPUT X : INT; END_VAR
        VAR_OUTPUT Y : INT; Q : BOOL; END_VAR
        VAR A : ABS; T : TON; END_VAR
        A(X := X);
        T(IN := TRUE, PT := T#0s);
        Y := ABS(A.Y) + TON(X);
        Q := T.Q;
        END_FUNCTION_BLOCK
        """
    )
    user = prog.pous["USER"]
    assert user.fb_instances == {"A": "ABS", "T": "TON"}
    assert user.calls == ["TON"]
    assert user.size == 3 + 1 + prog.pous["ABS"].size + 1 + 4
    inst = instantiate(prog, "USER")
    outputs, _ = execute_cycle(inst, {"X": make(T.INT, -3)}, SimClock())
    assert (outputs["Y"].v, outputs["Q"].v) == (3 - 3 + 1, True)


def test_a_user_block_interface_is_its_variables():
    prog = resolve_text(
        "FUNCTION_BLOCK FB\nVAR_INPUT X : INT; END_VAR\nVAR_OUTPUT Y : BOOL; END_VAR\n"
        "VAR_IN_OUT Z : DINT; END_VAR\nVAR K : REAL; END_VAR\nEND_FUNCTION_BLOCK\n"
    )
    assert {name: (v.ty, v.section) for name, v in prog.pous["FB"].vars.items()} == {
        "X": (T.INT, Section.INPUT),
        "Y": (T.BOOL, Section.OUTPUT),
        "Z": (T.DINT, Section.IN_OUT),
        "K": (T.REAL, Section.LOCAL),
    }
