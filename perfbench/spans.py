"""Per-layer spans recorded from outside the program.

`install` replaces each traced public function with a wrapper in every
`stbench` module namespace that binds it, because modules that did
`from .x import f` hold their own reference.  A wrapper opens a span for its
layer, and its layer's self time is the span's duration minus the time of
the child spans it encloses.  A call made while its own layer is already
open belongs to the enclosing span, so `parse_text -> parse_source` is one
parser call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


def _lines(text: str) -> int:
    return text.count("\n") + 1


def _trace_sites(result) -> int:
    return sum(len(trace) for trace in result.traces)


# (layer, module, attribute, counters): counters maps a counter name to a
# function of (args, result).  Each layer's self time is reported as
# "<layer>.s", or as "<layer>_s" for the render layers.
TARGETS = (
    ("lexer", "stbench.frontend.lexer", "tokenize",
     {"lexer.bytes": lambda a, r: len(a[0].text.encode())}),
    ("parser", "stbench.frontend.parser", "parse_source",
     {"parser.lines": lambda a, r: a[0].line_count()}),
    ("parser", "stbench.frontend.parser", "parse_text",
     {"parser.lines": lambda a, r: _lines(a[0])}),
    ("resolve", "stbench.frontend.resolve", "resolve", {}),
    ("harnessgen", "stbench.harnessgen", "build_harness",
     {"harnessgen.lines": lambda a, r: r.source.line_count()}),
    ("harnessgen", "stbench.harnessgen", "generate_case_fb", {}),
    ("harnessgen", "stbench.harnessgen", "assemble_program", {}),
    ("interp", "stbench.runtime.interp", "run_program",
     {"interp.scans": lambda a, r: r.cycles_executed, "interp.sites": lambda a, r: _trace_sites(r)}),
    ("coverage", "stbench.coverage", "CoverageMap.for_program", {}),
    ("coverage", "stbench.coverage", "accumulate", {}),
    ("coverage", "stbench.coverage", "summarize", {}),
    ("coverage.render", "stbench.coverage", "render_lcov", {}),
    ("coverage.render", "stbench.coverage", "render_annotated", {}),
    ("testspec", "stbench.testspec", "parse_suite",
     {"testspec.rows": lambda a, r: sum(len(c.states) for c in r.cases)}),
    ("testspec", "stbench.testspec", "validate", {}),
    ("testspec", "stbench.testspec", "serialize_suite", {}),
    ("testspec", "stbench.testspec", "drop_unknown_columns", {}),
    ("llm", "stbench.llm", "build_prompt", {}),
    ("llm", "stbench.llm", "query", {}),
    ("llm", "stbench.llm", "extract_csv", {}),
    ("runner", "stbench.runner", "run_suite", {}),
    ("runner.render", "stbench.runner", "render_report", {}),
    ("cli", "stbench.cli", "main", {}),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))


def self_time_metric(layer: str) -> str:
    return f"{layer}_s" if layer.endswith(".render") else f"{layer}.s"


class Tracer:
    """Aggregates span self times and counters while `enabled`."""

    def __init__(self):
        self.enabled = False
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.top_s = 0.0               # summed duration of outermost spans
        self._stack: list[list] = []   # [child seconds] per open span
        self._open: set[str] = set()
        self.missing: list[str] = []   # layers with no binding at all
        self.unbound: list[str] = []   # targets with no binding

    def wrap(self, layer: str, fn, counters: dict):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or layer in self._open:
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            self._open.add(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self._open.discard(layer)
                self._stack.pop()
                self.self_s[layer] += duration - frame[0]
                self.calls[layer] += 1
                if self._stack:
                    self._stack[-1][0] += duration
                else:
                    self.top_s += duration
            for name, count in counters.items():
                self.counts[name] += count(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded `stbench` module that binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "stbench" or name.startswith("stbench."))]
        found: set[str] = set()
        for layer, module_name, attr, counters in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.unbound.append(f"{module_name}.{attr}")
                continue
            found.add(layer)
            if owner_name:  # a classmethod: rebind it on its class
                fn = original.__func__
                setattr(owner, fn_name, classmethod(self.wrap(layer, fn, counters)))
                continue
            wrapper = self.wrap(layer, original, counters)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
        self.missing = [layer for layer in LAYERS if layer not in found]

    def metrics(self, wall_s: float, unit_runs: int) -> dict[str, float]:
        """Per-layer metrics for a traced pass of `wall_s` seconds."""
        m: dict[str, float] = {}
        for layer in LAYERS:
            if layer in self.missing:
                continue
            m[self_time_metric(layer)] = self.self_s[layer]
        for layer in ("lexer", "parser", "resolve"):
            if layer not in self.missing:
                m[f"{layer}.calls"] = self.calls[layer]
        for name in ("lexer.bytes", "parser.lines", "harnessgen.lines",
                     "interp.scans", "interp.sites", "testspec.rows"):
            if name.partition(".")[0] not in self.missing:
                m[name] = self.counts[name]
        if "lexer" not in self.missing:
            m["lexer.mb_per_s"] = self.counts["lexer.bytes"] / 1e6 / max(self.self_s["lexer"], 1e-9)
        if "parser" not in self.missing:
            m["parser.lines_per_s"] = self.counts["parser.lines"] / max(self.self_s["parser"], 1e-9)
            m["frontend.parses_per_run"] = self.calls["parser"] / unit_runs
        if "interp" not in self.missing:
            m["interp.sites_per_s"] = self.counts["interp.sites"] / max(self.self_s["interp"], 1e-9)
        m["other.s"] = wall_s - self.top_s
        return m
