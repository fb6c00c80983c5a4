"""Command-line pipeline driver.

Commands:
    generate     build the prompt, query the provider, persist suite.csv
    run          execute an existing suite.csv and write the report
    pipeline     generate then run, one invocation
    corpus list  show the bundled example blocks

Exit codes: 0 when every assertion passed and no case faulted, 1 when the
suite ran but something failed, 2 for pipeline errors (bad inputs, provider
failures, unusable CSV).  Options may come from a key = value config file
(--config); command-line flags win over config values, and both are read
and checked as each option's one declaration in `RunConfig` says.

Several units may be given, comma-separated or by repeating --unit; each
runs in turn into its own directory under the output directory.  Each unit's command runs with the
cyclic garbage collector paused: a run builds no reference cycles and is
freed by reference counting, so the collector's full passes over its live
objects would only cost time.
"""

from __future__ import annotations

import argparse
import errno
import functools
import gc
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import llm
from .frontend import SourceUnit, TypedProgram
from .frontend.nodes import PouKind
from .harnessgen import DEFAULT_ATOL, DEFAULT_CYCLE_TIME_MS, DEFAULT_RTOL
from .runner import PipelineError, RunOptions, load_program, run_suite
from .testspec import (
    CheckedSuite,
    CsvError,
    FbInterface,
    ValidationError,
    drop_unknown_columns,
    parse_suite,
    serialize_suite,
    suite_interface,
    validate,
)

EXIT_OK = 0
EXIT_TEST_FAILURES = 1
EXIT_PIPELINE_ERROR = 2


def _path(text: str) -> Path:
    if not text.strip():  # Path("") would mean the working directory
        raise ValueError(text)
    return Path(text)


def _paths(text: str) -> tuple[Path, ...]:
    return tuple(Path(p.strip()) for p in text.split(",") if p.strip())


_YES_NO = {"yes": True, "true": True, "on": True, "1": True, "no": False, "false": False, "off": False, "0": False}


def _yes_no(text: str) -> bool:
    return _YES_NO[text.lower()]


# what a reader's text must be; str and _paths take any text
_EXPECTED = {int: "an integer", float: "a number", _path: "a path", _yes_no: "yes or no (true/false, on/off, 1/0)"}
_ALL = ("generate", "run", "pipeline")
_QUERY = ("generate", "pipeline")  # the commands that query a provider
_FINITE = (lambda v: 0 <= v < math.inf, "must be a finite number >= 0")


def _option(default, read, help: str, *, choices=(), commands=_ALL, check=None):
    meta = {"read": read, "help": help, "choices": choices, "commands": commands, "check": check}
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """The options, each declared once: default, reader (text -> value),
    choices, commands, help and a (predicate, requirement) check.  The name
    is the config key and argparse dest, `--name-with-dashes` the flag; a
    `_paths` flag repeats and a `_yes_no` flag is a switch meaning yes."""

    unit: tuple[Path, ...] = _option((), _paths, "ST file with the block under test (repeatable, comma-separated)")
    lib: tuple[Path, ...] = _option((), _paths, "library ST file (repeatable, comma-separated)")
    fb: str = _option("", str, "name of the block under test (default: first FB in the unit)")
    mode: str = _option("enhanced", str, "prompt mode", choices=("simple", "enhanced"))
    provider: str = _option("mock", str, "LLM provider (run only records it)", choices=("mock", "http"))
    endpoint: str = _option("", str, "chat-completion URL for the http provider", commands=_QUERY)
    model: str = _option("", str, "model identifier", commands=_QUERY)
    api_key_env: str = _option("", str, "env var holding the API key", commands=_QUERY)
    temperature: float = _option(llm.ProviderConfig.temperature, float, "sampling temperature", commands=_QUERY)
    max_tokens: int = _option(llm.ProviderConfig.max_tokens, int, "response token limit", commands=_QUERY)
    timeout_s: float = _option(llm.ProviderConfig.timeout_s, float, "request timeout", commands=_QUERY)
    fixture: Path | None = _option(None, _path, "response file for the mock provider", commands=_QUERY)
    suite: Path | None = _option(None, _path, "existing suite.csv to execute", commands=("run",))
    out: Path = _option(Path("runs"), _path, "output directory for run artifacts")
    label: str = _option("", str, "run label; artifacts go to <out>/<label>")
    # the simulated clock must advance; atol and rtol go into harness.st as REAL literals
    cycle_time_ms: int = _option(
        DEFAULT_CYCLE_TIME_MS, int, "simulated scan interval", check=(lambda v: v > 0, "must be positive")
    )
    atol: float = _option(DEFAULT_ATOL, float, "absolute float comparison tolerance", check=_FINITE)
    rtol: float = _option(DEFAULT_RTOL, float, "relative float comparison tolerance", check=_FINITE)
    fixed_clock: bool = _option(False, _yes_no, "omit wall-clock timestamps from reports (reproducible output)")

    def out_dir(self) -> Path:
        return self.out / self.label if self.label else self.out


_OPTIONS = {f.name: f for f in fields(RunConfig)}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_PIPELINE_ERROR


class _Unusable(Exception):
    """An input the command cannot use; the message is printed as is."""


def _load(cfg: RunConfig) -> tuple[TypedProgram, FbInterface]:
    """The unit and its libraries, loaded once, and the block under test
    (--fb, or the first FUNCTION_BLOCK), checked before any query or suite
    read.  A source is named by its file name, or by its path as given
    where another source of the run has the same file name."""
    [unit_path] = cfg.unit  # main runs each unit on its own
    paths = (unit_path, *cfg.lib)
    names = [p.name for p in paths]
    unit, *libs = [SourceUnit(_read_text(p), p.name if names.count(p.name) == 1 else str(p)) for p in paths]
    try:
        prog = load_program(unit, libs)
    except PipelineError as exc:
        raise _Unusable(str(exc.cause)) from exc
    name = cfg.fb or next((p.name for p in prog.ast.pous if p.kind is PouKind.FUNCTION_BLOCK), None)
    if name is None:
        raise _Unusable(f"{unit_path}: no FUNCTION_BLOCK found")
    try:
        return prog, suite_interface(prog, name)
    except ValidationError as exc:
        raise _Unusable(f"{unit_path}: " + "; ".join(item.message for item in exc.items)) from exc


def _read_text(path: Path) -> str:
    """A file's text; one that is not UTF-8 is an unusable input, named by
    its path as an OSError names it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> _Unusable:
    return _Unusable(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(cfg: RunConfig, provider: llm.ProviderConfig) -> int:
    """Steps 1-3: prompt, query, extract, validate, persist suite.csv."""
    _generate(cfg, provider, *_load(cfg))
    return EXIT_OK


def cmd_run(cfg: RunConfig) -> int:
    """Steps 4-9: harness, execution, coverage, report."""
    prog, iface = _load(cfg)
    return _run(cfg, prog, *_read_suite(cfg, prog, iface.fb.name))


def cmd_pipeline(cfg: RunConfig, provider: llm.ProviderConfig) -> int:
    """generate followed by run, sharing one output directory, one load
    and the checked suite."""
    prog, iface = _load(cfg)
    checked, dropped = _generate(cfg, provider, prog, iface)
    return _run(cfg, prog, checked, tuple(_dropped_note(c) for c in dropped))


def _dropped_note(column: str) -> str:
    return f"dropped column {column}"


def _generate(
    cfg: RunConfig, provider: llm.ProviderConfig, prog: TypedProgram, iface: FbInterface
) -> tuple[CheckedSuite, list[str]]:
    """Write suite.csv; returns the checked suite and the dropped columns."""
    # persist_exchange makes the directory once the provider has answered;
    # a file in its way stops the command, with the error making it would
    # raise, before a query is paid for
    out = cfg.out_dir()
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        code = errno.EEXIST if existing == out else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(out))
    bundle = llm.build_prompt(prog.src.text, iface, cfg.mode)
    try:
        exchange = llm.query(provider, bundle)
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
        suite = parse_suite(csv_text, iface.fb.name)
    except CsvError as exc:
        raise _Unusable(f"CSV malformed: {exc} (hint: the response is at {saved})") from exc

    suite, dropped = drop_unknown_columns(suite, iface)
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
    if not cfg.suite.exists():
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

def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _read_config_file(path: Path) -> dict[str, tuple[str, str]]:
    """Each key's `<file>:<line>: <key>` and value text; any command's key may appear."""
    values: dict[str, tuple[str, str]] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _Unusable(f"{path}:{lineno}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        name = key.lower().replace("-", "_")
        if name not in _OPTIONS:
            raise _Unusable(f"{path}:{lineno}: unknown key {key}")
        values[name] = (f"{path}:{lineno}: {key}", value)
    return values


def _read(option, where: str, text: str):
    """One option's value from its text, read by its reader and checked."""
    read, choices, check = (option.metadata[k] for k in ("read", "choices", "check"))
    try:
        if "\0" in text or choices and text not in choices:  # no path, name or URL holds a NUL
            raise ValueError(text)
        value = read(text)
    except (ValueError, KeyError) as exc:
        expected = " or ".join(choices) or _EXPECTED.get(read, "a value without NUL characters")
        raise _Unusable(f"{where}: expected {expected}, got {text!r}") from exc
    if check and not check[0](value):
        raise _Unusable(f"{option.name} {check[1]}, got {value}")
    return value


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Each option from its flag, else from the config file, else its default."""
    file_values = _read_config_file(Path(args.config)) if args.config else {}
    values = {}
    for name, option in _OPTIONS.items():
        given = getattr(args, name, None)  # a repeated flag's texts, joined as a config value lists them
        if given is not None:
            values[name] = _read(option, _flag(name), ",".join(given) if isinstance(given, list) else given)
        elif name in file_values:
            values[name] = _read(option, *file_values[name])
    return RunConfig(**values)


def _required_inputs(cfg: RunConfig, command: str) -> llm.ProviderConfig | None:
    """The one check that the command has the inputs it needs; returns the
    settings, checked by `llm.ProviderConfig`, of the provider it queries."""
    if not cfg.unit:
        raise _Unusable("--unit is required")
    if command == "run":
        if cfg.suite is None:
            raise _Unusable("--suite is required")
        return None
    mock = cfg.provider == "mock"
    if mock and cfg.fixture is None:
        raise _Unusable("mock provider needs --fixture <response file>")
    if not mock and not cfg.endpoint:
        raise _Unusable("http provider needs --endpoint")
    return llm.ProviderConfig(
        provider=cfg.provider,
        endpoint=str(cfg.fixture) if mock else cfg.endpoint,
        model="mock" if mock else cfg.model,
        temperature=cfg.temperature,
        max_tokens=cfg.max_tokens,
        api_key_env=cfg.api_key_env,
        timeout_s=cfg.timeout_s,
    )


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
    parser = argparse.ArgumentParser(
        prog="stbench",
        description="LLM-assisted test generation and execution for ST function blocks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in (
        ("generate", "prompt the provider and persist suite.csv"),
        ("run", "execute a suite.csv against its unit"),
        ("pipeline", "generate then run in one invocation"),
    ):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="key = value config file; flags win")
        for name, option in _OPTIONS.items():
            read, choices, commands, help = (option.metadata[k] for k in ("read", "choices", "commands", "help"))
            if command not in commands:
                continue
            if read is _yes_no:
                p.add_argument(_flag(name), action="store_const", const="yes", help=help)
            else:
                metavar = "{" + ",".join(choices) + "}" if choices else None
                p.add_argument(_flag(name), action="append" if read is _paths else "store", metavar=metavar, help=help)

    p_corpus = sub.add_parser("corpus", help="bundled example blocks")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list", help="list the bundled blocks")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "corpus":
        return cmd_corpus_list()
    try:
        cfg = _merge_config(args)
        provider = _required_inputs(cfg, args.command)
    except (_Unusable, ValueError, OSError) as exc:  # ValueError: ProviderConfig's ranges
        return _fail(str(exc))

    fn = {"generate": cmd_generate, "run": cmd_run, "pipeline": cmd_pipeline}[args.command]
    if provider is not None:
        fn = functools.partial(fn, provider=provider)
    if len(cfg.unit) == 1:
        return _run_unit(fn, cfg)
    return max(
        _run_unit(fn, replace(cfg, unit=(u,), label="", out=cfg.out_dir() / u.stem.lower()))
        for u in cfg.unit
    )


if __name__ == "__main__":
    sys.exit(main())
