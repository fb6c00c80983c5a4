"""LLM gateway: prompt assembly, provider queries, CSV extraction.

Prompts have three parts concatenated in order: instructions, the CSV
format specification (which names the block's actual input/output columns),
and the code under test.  The enhanced mode extends the simple instructions
with exactly three extra instruction groups: a statement-coverage goal,
boundary input values, and the use of reference functions for expected
outputs.  All template text ships as editable files under templates/.

Two providers are built in: a generic HTTP chat-completion client, built
on the standard library's urllib and imported on its first use, and a
fixture-file mock that makes the whole pipeline runnable (and
deterministic) without network access or keys.
"""

from __future__ import annotations

import builtins
import json
import math
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path

from .frontend.resolve import FbInterface
from .testspec import RESERVED_COLUMNS, header_cells, is_header


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class GatewayError(Exception):
    pass


class AuthError(GatewayError):
    pass


class TimeoutError(GatewayError):  # noqa: A001 - mirrors the provider contract
    pass


class RateLimitError(GatewayError):
    pass


class TransportError(GatewayError):
    pass


class NoCsvFound(GatewayError):
    pass


# ---------------------------------------------------------------------------
# prompts
# ---------------------------------------------------------------------------

_TEMPLATES = Path(__file__).parent / "templates"


def _template(name: str) -> str:
    return (_TEMPLATES / name).read_text(encoding="utf-8").rstrip("\n")


def enhanced_groups() -> tuple[str, str, str]:
    """The three instruction groups that distinguish the enhanced prompt."""
    return (
        _template("prompt_enhanced_coverage.txt"),
        _template("prompt_enhanced_boundary.txt"),
        _template("prompt_enhanced_reference.txt"),
    )


@dataclass
class PromptBundle:
    mode: str                # "simple" | "enhanced"
    instructions: str
    format_spec: str
    code: str

    @property
    def full(self) -> str:
        return "\n\n".join((self.instructions, self.format_spec, self.code))


def build_prompt(fb_source: str, interface_summary: FbInterface, mode: str = "enhanced") -> PromptBundle:
    """Assemble the prompt for a block; identical inputs give identical text."""
    if mode not in ("simple", "enhanced"):
        raise ValueError(f"unknown prompt mode {mode!r}")
    if not fb_source.strip():
        raise ValueError("empty function block source")
    instructions = _template("prompt_instructions_simple.txt")
    if mode == "enhanced":
        instructions = "\n\n".join((instructions, *enhanced_groups()))
    inputs = interface_summary.inputs
    header = header_cells(inputs, interface_summary.outputs)
    fmt = (
        _template("prompt_format_spec.txt")
        .replace("{HEADER}", ",".join(header))
        .replace("{INPUTS}", ", ".join(inputs) or "none")
        .replace("{EXPECTS}", ", ".join(header[len(RESERVED_COLUMNS) + len(inputs):]) or "none")
    )
    code = f"Function block under test:\n\n{fb_source.strip()}"
    return PromptBundle(mode, instructions, fmt, code)


# ---------------------------------------------------------------------------
# providers
# ---------------------------------------------------------------------------

# where an OpenAI-style chat completion body holds the response text
CONTENT_PATH = ("choices", 0, "message", "content")


@dataclass
class ProviderConfig:
    provider: str = "http"            # "http" | "mock"
    endpoint: str = ""                # URL, or fixture path for the mock
    model: str = ""
    temperature: float = 0.0
    max_tokens: int = 4096
    api_key_env: str = ""
    timeout_s: float = 60.0

    def __post_init__(self):
        if not (0.0 <= self.temperature <= 2.0):
            raise ValueError(f"temperature {self.temperature} outside [0, 2]")
        if not 0 < self.timeout_s < math.inf:  # a socket takes no infinite or NaN timeout
            raise ValueError(f"timeout_s must be a finite number > 0, got {self.timeout_s}")

    @property
    def provider_id(self) -> str:
        return f"{self.provider}:{self.model or self.endpoint}"


@dataclass
class LlmExchange:
    prompt: str
    response_text: str
    provider_id: str
    latency_ms: float | None     # None in reproducible (--fixed-clock) runs
    prompt_tokens: int | None = None
    completion_tokens: int | None = None

    def to_dict(self) -> dict:
        return {
            "provider": self.provider_id,
            "latency_ms": self.latency_ms,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "prompt": self.prompt,
            "response": self.response_text,
        }


def persist_exchange(exchange: LlmExchange, run_dir: Path) -> Path:
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "exchange_0.json"
    path.write_text(json.dumps(exchange.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


_RETRIES = 3


def query(
    cfg: ProviderConfig,
    bundle: PromptBundle,
    post=None,
    sleep=time.sleep,
) -> LlmExchange:
    """Send the prompt and return the full response text.

    Transient HTTP failures (429, 5xx, timeouts, connection drops) are
    retried up to 3 attempts with exponential backoff; auth problems fail
    immediately.  The caller persists the exchange (persist_exchange).
    `post(url, json=, headers=, timeout=)` sends one request (default:
    `_post`); it returns an object with `status_code` and `json()`, and
    raises the builtin TimeoutError on a timeout or an OSError when the
    connection fails.
    """
    start = time.monotonic()
    if cfg.provider == "mock":
        text = Path(cfg.endpoint).read_text(encoding="utf-8")
        exchange = LlmExchange(
            bundle.full, text, cfg.provider_id, round((time.monotonic() - start) * 1000, 3)
        )
    elif cfg.provider == "http":
        exchange = _query_http(cfg, bundle, post or _post, sleep, start)
    else:
        raise GatewayError(f"unknown provider {cfg.provider!r}")
    return exchange


def _query_http(cfg: ProviderConfig, bundle: PromptBundle, post, sleep, start: float) -> LlmExchange:
    headers = {"Content-Type": "application/json"}
    if cfg.api_key_env:
        key = os.environ.get(cfg.api_key_env, "")
        if not key:
            raise AuthError(f"environment variable {cfg.api_key_env} is not set")
        headers["Authorization"] = f"Bearer {key}"
    payload = {
        "model": cfg.model,
        "messages": [{"role": "user", "content": bundle.full}],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_tokens,
    }

    last_error: GatewayError | None = None
    for attempt in range(_RETRIES):
        if attempt:
            sleep(0.5 * 2 ** (attempt - 1))
        try:
            resp = post(cfg.endpoint, json=payload, headers=headers, timeout=cfg.timeout_s)
        except builtins.TimeoutError:
            last_error = TimeoutError(f"request to {cfg.endpoint} timed out after {cfg.timeout_s}s")
            continue
        except OSError as exc:
            last_error = TransportError(str(exc))
            continue
        status = getattr(resp, "status_code", 0)
        if status in (401, 403):
            raise AuthError(f"provider rejected credentials (HTTP {status})")
        if status == 429:
            last_error = RateLimitError("provider rate limit (HTTP 429)")
            continue
        if status >= 500:
            last_error = TransportError(f"provider error (HTTP {status})")
            continue
        if status != 200:
            raise TransportError(f"unexpected HTTP status {status}")
        try:
            body = resp.json()
        except ValueError as exc:
            raise TransportError(f"response is not JSON: {exc}") from exc
        content = body
        try:
            for step in CONTENT_PATH:
                content = content[step]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"response missing content at {CONTENT_PATH}") from exc
        usage = body.get("usage") if isinstance(body, dict) else None
        if not isinstance(usage, dict):
            usage = {}
        return LlmExchange(
            bundle.full,
            str(content),
            cfg.provider_id,
            round((time.monotonic() - start) * 1000, 3),
            usage.get("prompt_tokens"),
            usage.get("completion_tokens"),
        )
    raise last_error


class _Response:
    """What `_post` returns: the fields of a response `_query_http` reads."""

    def __init__(self, status_code: int, body: bytes):
        self.status_code = status_code
        self.body = body

    def json(self):
        return json.loads(self.body)


_dumps = json.dumps  # `_post`'s payload parameter shadows the module


def _post(url: str, json: dict, headers: dict, timeout: float) -> _Response:
    """POST `json` to `url` with the standard library's HTTP client.

    Any HTTP status comes back as a response; urlopen raises HTTPError for
    a non-2xx one, which is mapped back to its status code.  A timeout
    raises the builtin TimeoutError and any other connection failure an
    OSError, the two transport failures `_query_http` retries."""
    import http.client
    import urllib.request
    from urllib.error import HTTPError, URLError

    data = _dumps(json).encode("utf-8")
    request = urllib.request.Request(url, data=data, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return _Response(resp.status, resp.read())
    except HTTPError as exc:
        exc.close()
        return _Response(exc.code, b"")
    except URLError as exc:
        # a connect timeout comes wrapped; anything else stays an OSError
        if isinstance(exc.reason, builtins.TimeoutError):
            raise exc.reason from None
        raise
    except http.client.HTTPException as exc:
        raise ConnectionError(f"malformed HTTP response: {exc!r}") from None


# ---------------------------------------------------------------------------
# CSV extraction
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)


def _best_run(text: str) -> str | None:
    """The longest contiguous header+data-rows region, or None."""
    lines = text.splitlines()
    best: list[str] | None = None
    for i, line in enumerate(lines):
        if not is_header(line.split(",")):
            continue
        j = i + 1
        while j < len(lines) and lines[j].strip():
            j += 1
        if j == i + 1:
            continue  # header without data rows
        run = lines[i:j]
        if best is None or len(run) > len(best):
            best = run
    if best is None:
        return None
    return "\n".join(best) + "\n"


def extract_csv(raw: str) -> str:
    """Extract the CSV payload from an LLM response.

    Fenced code blocks are tried first (in order); otherwise the longest
    run of lines shaped like the expected header plus data rows is used.
    Surrounding prose is discarded.  Raises NoCsvFound if nothing matches.
    """
    for match in _FENCE_RE.finditer(raw):
        run = _best_run(match.group(1))
        if run is not None:
            return run
    run = _best_run(raw)
    if run is not None:
        return run
    raise NoCsvFound("no CSV region with the expected test_name,state header found")
