"""Every name `src/` defines is used: each module-level function, class and
constant, and each method but the dunders, is referenced somewhere in
`src/`, `tests/` or `perfbench/` other than where it is defined.  And a
name that only `tests/` use is declared as such, in TEST_API.

A reference is a name read, an attribute, an imported name, or an
identifier in a string other than a docstring: generated source refers to
the interpreter's helpers by name, and `perfbench/spans.py` names its
targets as strings.  Names are matched bare, not by their owner, so this
finds a name nothing mentions, not every unused one.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ("src", "tests", "perfbench")
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _files(*trees: str) -> list[Path]:
    return sorted(path for tree in trees for path in (ROOT / tree).rglob("*.py"))


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each module-level function, class and constant, and
    of each non-dunder method of any class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out += [(n.id, n.lineno) for n in ast.walk(target) if isinstance(n, ast.Name)]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            out += [
                (node.name, node.lineno)
                for node in cls.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("__")
            ]
    return [(name, line) for name, line in out if not (name.startswith("__") and name.endswith("__"))]


def _references(tree: ast.Module) -> Counter:
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            refs.update(_IDENTIFIER.findall(node.value))
    return refs


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_name_src_defines_is_referenced():
    refs: Counter = Counter()
    for path in _files(*SOURCES):
        refs += _references(_tree(path))
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in _files("src")
        for name, line in _definitions(_tree(path))
        if not refs[name]
    ]
    assert unused == []


# The names `src/` keeps for tests alone, as <module>.<name> or
# <module>.<class>.<method> under `stbench`.  A run does not need them, so
# each one is a decision.  Bare names cannot tell two owners apart, nor a
# name from a word in a string, so the last two entries are listed by hand:
# FbInstance.outputs serves only execute_cycle, though the run calls
# PouInfo.outputs, and `values.default` only tests, though CLI help texts
# say "default".
TEST_API = (
    "corpus.block_source",
    "frontend.pretty.print_pou",
    "frontend.source.SourceUnit.line_of",
    "frontend.source.SourceUnit.line_text",
    "runtime.interp.execute_cycle",
    "runtime.values.F32_MAX",
    "runtime.values.wrap_int",
    "runtime.interp.FbInstance.outputs",
    "runtime.values.default",
)


def _run_references(tree: ast.Module) -> Counter:
    """A module's references but its top-level imports and `__all__`: a
    name a package re-exports, or a module imports and never uses, is not
    used by a run."""
    tree.body = [
        node for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"])
    ]
    return _references(tree)


def _qualified_definitions(path: Path) -> list[tuple[str, str]]:
    """(qualified name, bare name) of each name `_definitions` finds in a
    module of `src/stbench`."""
    tree = _tree(path)
    parts = path.relative_to(ROOT / "src" / "stbench").with_suffix("").parts
    module = ".".join(part for part in parts if part != "__init__")
    owners = {node.lineno: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    return [(".".join(filter(None, (module, owners.get(line), name))), name) for name, line in _definitions(tree)]


def test_a_name_only_tests_use_is_declared_test_api():
    run: Counter = Counter()
    for path in _files("src"):
        run += _run_references(_tree(path))
    for path in _files("perfbench"):
        run += _references(_tree(path))
    tests: Counter = Counter()
    for path in _files("tests"):
        tests += _references(_tree(path))
    defined = dict(pair for path in _files("src") for pair in _qualified_definitions(path))
    assert [name for name in TEST_API if name not in defined] == []
    undeclared = sorted(name for name, bare in defined.items() if tests[bare] and not run[bare] and name not in TEST_API)
    assert undeclared == []
