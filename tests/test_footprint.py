"""What a run allocates per node, site and generated function.

A run builds one record per token, AST node, variable and site, and one
function per statement list, so their layout sets a large suite's memory:
the bulk records have no per-instance `__dict__`, a generated function
carries its values as positional defaults rather than closure cells, a
source's line table is built only when a position is looked up, and the
two largest artifacts are written as they are rendered.
"""

import dataclasses
import io
import json
import re

import pytest

from stbench import corpus
from stbench import coverage as cov
from stbench import harnessgen, runner
from stbench.frontend import nodes as N
from stbench.frontend import parse_source, resolve, tokenize
from stbench.frontend.lexer import Token
from stbench.frontend.resolve import PouInfo, VarInfo
from stbench.frontend.source import SourceUnit, Span
from stbench.frontend.types import STType
from stbench.runner import RunOptions, render_report, run_suite
from stbench.runtime.values import Value
from stbench.testspec import parse_suite, validate

RECORDS = (Span, Token, STType, VarInfo, PouInfo, Value, harnessgen.AssertionSlot, harnessgen.CaseHarness)
NODE_CLASSES = tuple(
    cls for cls in vars(N).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == N.__name__
)


def _walk(obj, seen):
    """Every dataclass instance reachable from obj through fields, lists,
    tuples and dict values."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        yield obj
        for f in dataclasses.fields(obj):
            yield from _walk(getattr(obj, f.name), seen)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _walk(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _walk(item, seen)


def test_no_bulk_record_class_gives_its_instances_a_dict():
    for cls in NODE_CLASSES + RECORDS:
        assert "__dict__" not in dir(cls), cls.__name__


def test_no_token_node_or_resolved_record_of_the_corpus_has_a_dict():
    kinds = set()
    for block in corpus.BLOCKS:
        src = SourceUnit(corpus.block_source(block.name), block.name)
        tokens = tokenize(src)
        prog = resolve(parse_source(src))
        for obj in _walk((tokens, prog.ast.pous, list(prog.pous.values())), set()):
            kinds.add(type(obj))
            assert not hasattr(obj, "__dict__"), type(obj).__name__
    assert {Token, Span, STType, VarInfo, PouInfo, N.PouDecl, N.Assign, N.IfStmt, N.Binary} <= kinds


def _generated(fn, seen):
    """fn and every generated statement function its defaults reach."""
    if id(fn) in seen:
        return
    seen.add(id(fn))
    yield fn
    for value in fn.__defaults__ or ():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, tuple):  # a CASE arm: (lo, hi, body)
                item = item[-1]
            if callable(item) and getattr(getattr(item, "__code__", None), "co_filename", "") == "<statements>":
                yield from _generated(item, seen)


@pytest.fixture()
def bundles(monkeypatch):
    """The harness bundle of every run_suite call while the test runs."""
    made = []
    real = runner.build_harness

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(runner, "build_harness", recording)
    return made


# DEC_TO_HEX has a loop, so it runs as checked code; LOGIC_MUX is
# loop-free and runs as bounded code
SUITES = {
    "DEC_TO_HEX": "test_name,state,DE,expect_HEX\ntc_a,1,255,'FF'\ntc_b,1,-3,'x'\n",
    "LOGIC_MUX": "test_name,state,A,B,PICKB,expect_Q\ntc_a,1,TRUE,FALSE,FALSE,TRUE\ntc_b,1,TRUE,FALSE,TRUE,TRUE\n",
}


# a user FB calling a user function, so that a harness of it calls both
SCALE_SRC = """
FUNCTION PCT : INT
VAR_INPUT D : INT; END_VAR
PCT := 100 / D;
END_FUNCTION
FUNCTION_BLOCK SCALE
VAR_INPUT D : INT; END_VAR
VAR_OUTPUT Q : INT; END_VAR
Q := PCT(D);
END_FUNCTION_BLOCK
"""
SUITES_AND_SCALE = {**SUITES, "SCALE": "test_name,state,D,expect_Q\ntc_a,1,4,25\ntc_b,1,0,1\n"}


def _run_compiled(bundles, block):
    """The POUs a run of the block's suite compiled, and every generated
    statement function they hold."""
    text = SCALE_SRC if block == "SCALE" else corpus.block_source(block)
    prog = resolve(parse_source(SourceUnit(text, block)))
    run_suite(prog, validate(parse_suite(SUITES_AND_SCALE[block], block), prog))
    (bundle,) = bundles
    compiled = [
        pou for layer in bundle.typed.layers() if layer.runtime_cache is not None
        for pou in layer.runtime_cache.pous.values()
    ]
    seen: set[int] = set()
    functions = [
        fn for pou in compiled for run, _ in pou.entries for fn in _generated(run, seen)
    ]
    assert len(functions) > len(compiled)
    return compiled, functions


@pytest.mark.parametrize("block", SUITES)
def test_every_generated_statement_function_keeps_its_values_in_defaults(bundles, block):
    compiled, functions = _run_compiled(bundles, block)
    assert {pou.bounded for pou in compiled} == {block == "LOGIC_MUX"}
    for fn in functions:
        assert fn.__closure__ is None
        # run(store, nested, cnt, scan, k0=k0, ..., kn=kn)
        assert fn.__code__.co_argcount == 4 + len(fn.__defaults__ or ())
        assert fn.__code__.co_varnames[:4] == ("store", "nested", "cnt", "scan")


def _flat(values):
    """values, with the items of each tuple among them, recursively."""
    for value in values:
        if isinstance(value, tuple):
            yield from _flat(value)
        else:
            yield value


# a fault's instance path segment: ".NAME" for an FB call, "/NAME()" for a
# function call
PATH_SEGMENT = re.compile(r"\.[A-Z_][A-Z0-9_]*|/[A-Z_][A-Z0-9_]*\(\)")


@pytest.mark.parametrize("block", SUITES_AND_SCALE)
def test_a_site_is_held_as_its_count_slot_alone(bundles, block):
    # a generated function holds its POU's PouInfo, in which a site's count
    # slot locates a fault, and no node, (POU name, node) pair or path
    # segment per site or call
    compiled, functions = _run_compiled(bundles, block)
    infos = {id(pou.info) for pou in compiled}
    for fn in functions:
        values = list(_flat(fn.__defaults__))
        assert not [v for v in values if isinstance(v, NODE_CLASSES)]
        assert not [v for v in values if isinstance(v, str) and PATH_SEGMENT.fullmatch(v)]
        info = fn.__defaults__[-1]
        assert info is None or id(info) in infos


def _has_line_table(src: SourceUnit) -> bool:
    return "_line_starts" in vars(src)


def test_a_line_table_is_built_on_the_first_lookup():
    src = SourceUnit("A\nBC\n", "x.st")
    assert not _has_line_table(src)
    assert src.line_count() == 3 and not _has_line_table(src)
    assert src.linecol(3) == (2, 2)
    assert list(vars(src)["_line_starts"]) == [0, 2, 5]


def test_a_successful_run_leaves_the_generated_layer_without_a_line_table(bundles, tmp_path):
    prog = resolve(parse_source(SourceUnit(corpus.block_source("DEC_TO_HEX"), "DEC_TO_HEX")))
    run_suite(prog, validate(parse_suite(SUITES["DEC_TO_HEX"], "DEC_TO_HEX"), prog), RunOptions(out_dir=tmp_path))
    (bundle,) = bundles
    assert not _has_line_table(bundle.typed.src)
    # the generated layer's source holds harness.st's text, not a copy
    assert bundle.typed.src.text is bundle.source.text
    # the coverage files list the unit in its own lines, not harness.st's
    assert not _has_line_table(bundle.source)


class _Pieces:
    """A text stream that keeps each write apart."""

    def __init__(self):
        self.pieces: list[str] = []

    def write(self, text: str) -> int:
        self.pieces.append(text)
        return len(text)


def test_the_large_artifacts_are_written_as_their_renderer_produces_them(bundles, monkeypatch, tmp_path):
    listings = []
    real = cov.render_annotated

    def recording(lines, src, out):
        listings.append(_Pieces())
        real(lines, src, listings[-1])
        real(lines, src, out)

    monkeypatch.setattr(cov, "render_annotated", recording)
    rows = "".join(f"tc_{i},1,{i},'{format(i, 'X')}'\n" for i in range(200))
    prog = resolve(parse_source(SourceUnit(corpus.block_source("DEC_TO_HEX"), "DEC_TO_HEX")))
    suite = validate(parse_suite("test_name,state,DE,expect_HEX\n" + rows, "DEC_TO_HEX"), prog)
    report = run_suite(prog, suite, RunOptions(out_dir=tmp_path, fixed_clock=True))
    assert report.cases_total == 200

    (listing,) = listings
    annotated = (tmp_path / "coverage.annotated.txt").read_text(encoding="utf-8")
    assert annotated == "".join(listing.pieces)
    # the unit's lines under one header line; no generated line is listed
    assert len(listing.pieces) == prog.src.line_count() + 1
    assert max(map(len, listing.pieces)) < 200

    stream = _Pieces()
    render_report(report, "json", stream)
    written = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert written == "".join(stream.pieces)
    assert max(map(len, stream.pieces)) < 200 < len(stream.pieces)
    assert json.loads(written)["metrics"]["cases_total"] == 200

    whole = io.StringIO()
    render_report(report, "text", whole)
    assert (tmp_path / "report.txt").read_text(encoding="utf-8") == whole.getvalue() == report.text
