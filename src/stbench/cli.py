"""Command-line pipeline driver.

Commands:
    generate     build the prompt, query the provider, persist suite.csv
    run          execute an existing suite.csv and write the report
    pipeline     generate then run, one invocation
    corpus list  show the bundled example blocks

Exit codes: 0 when every assertion passed and no case faulted, 1 when the
suite ran but something failed, 2 for pipeline errors (bad inputs, provider
failures, unusable CSV).  Options may come from a key = value config file
(--config); command-line flags win over config values.

Several units may be given, comma-separated; each runs in turn into its own
directory under the output directory.  Each unit's command runs with the
cyclic garbage collector paused: a run builds no reference cycles and is
freed by reference counting, so the collector's full passes over its live
objects would only cost time.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import llm
from .frontend import SourceUnit, TypedProgram, interface_of
from .frontend.nodes import PouKind
from .harnessgen import DEFAULT_ATOL, DEFAULT_CYCLE_TIME_MS, DEFAULT_RTOL
from .runner import PipelineError, RunOptions, load_program, run_suite
from .testspec import (
    CheckedSuite,
    CsvError,
    ValidationError,
    drop_unknown_columns,
    parse_suite,
    serialize_suite,
    validate,
)

EXIT_OK = 0
EXIT_TEST_FAILURES = 1
EXIT_PIPELINE_ERROR = 2


@dataclass
class RunConfig:
    unit: Path | None = None
    libs: list[Path] = field(default_factory=list)
    fb: str = ""                      # unit under test; default: first FB in unit
    mode: str = "enhanced"
    provider: str = "mock"
    endpoint: str = ""
    model: str = ""
    api_key_env: str = ""
    temperature: float = 0.0
    max_tokens: int = 4096
    timeout_s: float = 60.0
    fixture: Path | None = None
    suite: Path | None = None
    out: Path = Path("runs")
    label: str = ""
    cycle_time_ms: int = DEFAULT_CYCLE_TIME_MS
    atol: float = DEFAULT_ATOL
    rtol: float = DEFAULT_RTOL
    fixed_clock: bool = False

    def out_dir(self) -> Path:
        return self.out / self.label if self.label else self.out


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_PIPELINE_ERROR


class _Unusable(Exception):
    """An input the command cannot use; the message is printed as is."""


def _load(cfg: RunConfig) -> tuple[TypedProgram, str]:
    """The unit and its libraries, loaded once, and the FB under test."""
    if cfg.unit is None or not cfg.unit.exists():
        raise _Unusable(f"unit file not found: {cfg.unit}")
    unit, *libs = [SourceUnit(_read_text(p), p.name) for p in (cfg.unit, *cfg.libs)]
    try:
        prog = load_program(unit, libs)
        return prog, _unit_fb_name(cfg, prog)
    except PipelineError as exc:
        raise _Unusable(str(exc.cause)) from exc
    except ValueError as exc:
        raise _Unusable(str(exc)) from exc


def _read_text(path: Path) -> str:
    """A file's text; one that is not UTF-8 is an unusable input, named by
    its path as an OSError names it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> _Unusable:
    return _Unusable(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")


def _unit_fb_name(cfg: RunConfig, prog: TypedProgram) -> str:
    if cfg.fb:
        info = prog.lookup_pou(cfg.fb.upper())
        if info is None or info.kind is not PouKind.FUNCTION_BLOCK:
            raise ValueError(f"{cfg.unit}: no FUNCTION_BLOCK named {cfg.fb}")
        return info.name
    for pou in prog.ast.pous:
        if pou.kind is PouKind.FUNCTION_BLOCK:
            return pou.name
    raise ValueError(f"{cfg.unit}: no FUNCTION_BLOCK found")


def _provider_config(cfg: RunConfig) -> llm.ProviderConfig:
    if cfg.provider == "mock":
        if cfg.fixture is None:
            raise ValueError("mock provider needs --fixture <response file>")
        return llm.ProviderConfig(
            provider="mock", endpoint=str(cfg.fixture), model="mock", timeout_s=cfg.timeout_s
        )
    if cfg.provider == "http":
        if not cfg.endpoint:
            raise ValueError("http provider needs --endpoint")
        return llm.ProviderConfig(
            provider="http",
            endpoint=cfg.endpoint,
            model=cfg.model,
            temperature=cfg.temperature,
            max_tokens=cfg.max_tokens,
            api_key_env=cfg.api_key_env,
            timeout_s=cfg.timeout_s,
        )
    raise ValueError(f"unknown provider {cfg.provider!r} (expected mock or http)")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(cfg: RunConfig) -> int:
    """Steps 1-3: prompt, query, extract, validate, persist suite.csv."""
    _generate(cfg, *_load(cfg))
    return EXIT_OK


def cmd_run(cfg: RunConfig) -> int:
    """Steps 4-9: harness, execution, coverage, report."""
    prog, fb_name = _load(cfg)
    return _run(cfg, prog, *_read_suite(cfg, prog, fb_name))


def cmd_pipeline(cfg: RunConfig) -> int:
    """generate followed by run, sharing one output directory, one load
    and the checked suite."""
    prog, fb_name = _load(cfg)
    checked, dropped = _generate(cfg, prog, fb_name)
    return _run(cfg, prog, checked, tuple(_dropped_note(c) for c in dropped))


def _dropped_note(column: str) -> str:
    return f"dropped column {column}"


def _generate(cfg: RunConfig, prog: TypedProgram, fb_name: str) -> tuple[CheckedSuite, list[str]]:
    """Write suite.csv; returns the checked suite and the dropped columns."""
    iface = interface_of(prog, fb_name)
    out = cfg.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    bundle = llm.build_prompt(prog.src.text, iface, cfg.mode)
    try:
        provider_cfg = _provider_config(cfg)
        exchange = llm.query(provider_cfg, bundle)
    except UnicodeDecodeError as exc:  # the one file a query decodes: the mock's fixture
        raise _not_utf8(cfg.fixture, exc) from exc
    except ValueError as exc:
        raise _Unusable(str(exc)) from exc
    except llm.GatewayError as exc:
        raise _Unusable(f"provider query failed: {exc}") from exc
    print(f"provider {exchange.provider_id} answered in {exchange.latency_ms:.0f} ms")
    # wall-clock data stays out of a reproducible run's artifacts
    saved = llm.persist_exchange(replace(exchange, latency_ms=None) if cfg.fixed_clock else exchange, out)

    try:
        csv_text = llm.extract_csv(exchange.response_text)
    except llm.NoCsvFound as exc:
        print(f"raw exchange kept at {saved}", file=sys.stderr)
        raise _Unusable(str(exc)) from exc
    try:
        suite = parse_suite(csv_text, fb_name)
    except CsvError as exc:
        raise _Unusable(f"CSV malformed: {exc} (hint: the response is at {saved})") from exc

    suite, dropped = drop_unknown_columns(suite, prog.lookup_pou(fb_name))
    for col in dropped:
        print(f"warning: dropping unknown column {col!r} from the suite", file=sys.stderr)
    try:
        checked = validate(suite, prog)
    except ValidationError as exc:
        for item in exc.items:
            print(f"invalid suite: {item}", file=sys.stderr)
        raise _Unusable("generated suite failed validation (hint: adjust the prompt or fix the CSV)") from exc

    suite_path = out / "suite.csv"
    suite_path.write_text(serialize_suite(suite), encoding="utf-8")
    total_states = sum(len(c.states) for c in suite.cases)
    print(f"wrote {suite_path} ({len(suite.cases)} cases, {total_states} states)")
    if dropped:
        (out / "generate_warnings.txt").write_text(
            "\n".join(_dropped_note(c) for c in dropped) + "\n", encoding="utf-8"
        )
    return checked, dropped


def _read_suite(cfg: RunConfig, prog: TypedProgram, fb_name: str) -> tuple[CheckedSuite, tuple[str, ...]]:
    """The checked suite from --suite, written to the output directory in
    canonical form, and the warnings a generate step left there."""
    if cfg.suite is None or not cfg.suite.exists():
        raise _Unusable(f"suite file not found: {cfg.suite}")
    try:
        suite = parse_suite(_read_text(cfg.suite), fb_name)
        checked = validate(suite, prog)
    except (CsvError, ValidationError) as exc:
        raise _Unusable(f"suite rejected: {exc}") from exc

    out = cfg.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    (out / "suite.csv").write_text(serialize_suite(suite), encoding="utf-8")
    warnings_file = out / "generate_warnings.txt"
    warnings = tuple(_read_text(warnings_file).splitlines()) if warnings_file.exists() else ()
    return checked, warnings


def _run(cfg: RunConfig, prog: TypedProgram, checked: CheckedSuite, warnings: tuple[str, ...]) -> int:
    out = cfg.out_dir()
    options = RunOptions(
        cycle_time_ms=cfg.cycle_time_ms,
        atol=cfg.atol,
        rtol=cfg.rtol,
        out_dir=out,
        fixed_clock=cfg.fixed_clock,
        mode=cfg.mode,
        provider=cfg.provider,
        warnings=warnings,
    )
    report = run_suite(prog, checked, options)
    print(report.text, end="")
    print(f"artifacts in {out}")
    return EXIT_OK if report.all_green() else EXIT_TEST_FAILURES


def cmd_corpus_list() -> int:
    from . import corpus  # only this command lists the bundled blocks

    rows = [
        (b.name, b.category, b.challenge, str(corpus.block_path(b.name)))
        for b in corpus.BLOCKS
    ]
    w_name = max(len(r[0]) for r in rows)
    w_cat = max(len(r[1]) for r in rows)
    w_chal = max(len(r[2]) for r in rows)
    print(f"{'block':<{w_name}}  {'category':<{w_cat}}  {'test challenge':<{w_chal}}  path")
    for name, cat, chal, path in rows:
        print(f"{name:<{w_name}}  {cat:<{w_cat}}  {chal:<{w_chal}}  {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _read_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        name = key.strip().lower().replace("-", "_")
        if name not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key.strip()}")
        values[name] = value.strip()
    return values


_CONFIG_KEYS = {
    "unit": Path,
    "lib": str,
    "fb": str,
    "mode": str,
    "provider": str,
    "endpoint": str,
    "model": str,
    "api_key_env": str,
    "temperature": float,
    "max_tokens": int,
    "timeout_s": float,
    "fixture": Path,
    "suite": Path,
    "out": Path,
    "label": str,
    "cycle_time_ms": int,
    "atol": float,
    "rtol": float,
    "fixed_clock": bool,
}


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(Path(args.config))
    for key, typ in _CONFIG_KEYS.items():
        value = getattr(args, key, None)
        if value is None and key in file_values:
            value = file_values[key]
            if typ is bool:
                value = value.lower() in ("1", "true", "yes", "on")
        if value is None:
            continue
        if key == "lib":
            paths = value if isinstance(value, list) else [p for p in value.split(",") if p]
            cfg.libs = [Path(p) for p in paths]
        else:
            setattr(cfg, key, typ(value))
    for key in ("atol", "rtol"):  # baked into harness.st as REAL literals
        if not 0 <= getattr(cfg, key) < math.inf:
            raise ValueError(f"{key} must be a finite number >= 0, got {getattr(cfg, key)}")
    if cfg.cycle_time_ms <= 0:  # the simulated clock must advance
        raise ValueError(f"cycle_time_ms must be positive, got {cfg.cycle_time_ms}")
    return cfg


def _add_common(p: argparse.ArgumentParser, with_suite: bool, with_provider: bool) -> None:
    p.add_argument("--config", help="key = value config file; flags win")
    p.add_argument("--unit", help="ST file with the function block under test")
    p.add_argument("--lib", action="append", dest="lib", help="library ST file (repeatable)")
    p.add_argument("--fb", help="name of the block under test (default: first FB in the unit)")
    p.add_argument("--out", help="output directory for run artifacts")
    p.add_argument("--label", help="run label; artifacts go to <out>/<label>")
    p.add_argument("--mode", choices=("simple", "enhanced"), help="prompt mode")
    p.add_argument("--cycle-time-ms", type=int, dest="cycle_time_ms", help="simulated scan interval")
    p.add_argument("--atol", type=float, help="absolute float comparison tolerance")
    p.add_argument("--rtol", type=float, help="relative float comparison tolerance")
    p.add_argument("--fixed-clock", action="store_const", const=True, dest="fixed_clock",
                   help="omit wall-clock timestamps from reports (reproducible output)")
    if with_suite:
        p.add_argument("--suite", help="existing suite.csv to execute")
    if with_provider:
        p.add_argument("--provider", choices=("mock", "http"), help="LLM provider")
        p.add_argument("--fixture", help="response file for the mock provider")
        p.add_argument("--endpoint", help="chat-completion URL for the http provider")
        p.add_argument("--model", help="model identifier")
        p.add_argument("--api-key-env", dest="api_key_env", help="env var holding the API key")
        p.add_argument("--temperature", type=float, help="sampling temperature (default 0)")
        p.add_argument("--max-tokens", type=int, dest="max_tokens", help="response token limit")
        p.add_argument("--timeout-s", type=float, dest="timeout_s", help="request timeout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stbench",
        description="LLM-assisted test generation and execution for ST function blocks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="prompt the provider and persist suite.csv")
    _add_common(p_gen, with_suite=False, with_provider=True)

    p_run = sub.add_parser("run", help="execute a suite.csv against its unit")
    _add_common(p_run, with_suite=True, with_provider=False)
    p_run.add_argument("--provider", help=argparse.SUPPRESS)  # report metadata only

    p_pipe = sub.add_parser("pipeline", help="generate then run in one invocation")
    _add_common(p_pipe, with_suite=False, with_provider=True)

    p_corpus = sub.add_parser("corpus", help="bundled example blocks")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list", help="list the bundled blocks")

    return parser


def _run_unit(fn, cfg: RunConfig) -> int:
    """One unit's command with automatic cyclic collection paused; the
    caller's collector state is restored however the command ends.  This
    is where an unusable input ends: an `_Unusable`, a `PipelineError`
    (whose message keeps its phase) or an `OSError` (whose message names
    its path) from the command prints one `error:` line and exits 2."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return fn(cfg)
    except (_Unusable, PipelineError, OSError) as exc:
        return _fail(str(exc))
    finally:
        if enabled:
            gc.enable()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Each parse starts from a fresh
    namespace, so nothing carries over between calls, and a parser built
    per call would leave argparse's formatter cycles behind each time."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "corpus":
        return cmd_corpus_list()
    try:
        cfg = _merge_config(args)
    except (_Unusable, ValueError, OSError) as exc:
        return _fail(str(exc))

    # several units, comma-separated, from the flag or the config file
    units = [Path(p.strip()) for p in str(cfg.unit).split(",") if p.strip()] if cfg.unit else []
    if not units:
        return _fail("--unit is required")

    fn = {"generate": cmd_generate, "run": cmd_run, "pipeline": cmd_pipeline}[args.command]
    if len(units) == 1:
        return _run_unit(fn, replace(cfg, unit=units[0]))
    return max(
        _run_unit(fn, replace(cfg, unit=u, label="", out=cfg.out_dir() / u.stem.lower()))
        for u in units
    )


if __name__ == "__main__":
    sys.exit(main())
