import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.error import URLError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stbench import llm
from stbench.frontend import interface_of, parse_text, resolve
from stbench import corpus


@pytest.fixture(scope="module")
def dec_iface():
    prog = resolve(parse_text(corpus.block_source("DEC_TO_HEX")))
    return interface_of(prog, "DEC_TO_HEX")


# ---------------------------------------------------------------------------
# prompts
# ---------------------------------------------------------------------------

def test_prompt_determinism(dec_iface):
    src = corpus.block_source("DEC_TO_HEX")
    a = llm.build_prompt(src, dec_iface, "enhanced")
    b = llm.build_prompt(src, dec_iface, "enhanced")
    assert a.full == b.full


def test_simple_prompt_lacks_enhanced_groups(dec_iface):
    src = corpus.block_source("DEC_TO_HEX")
    simple = llm.build_prompt(src, dec_iface, "simple")
    for group in llm.enhanced_groups():
        assert group not in simple.full
    assert simple.format_spec  # format spec always present
    assert "test_name,state" in simple.format_spec


def test_enhanced_prompt_adds_exactly_three_groups(dec_iface):
    src = corpus.block_source("DEC_TO_HEX")
    simple = llm.build_prompt(src, dec_iface, "simple")
    enhanced = llm.build_prompt(src, dec_iface, "enhanced")
    stripped = enhanced.full
    for group in llm.enhanced_groups():
        assert stripped.count(group) == 1
        stripped = stripped.replace("\n\n" + group, "", 1)
    assert stripped == simple.full


def test_format_spec_names_block_columns(dec_iface):
    bundle = llm.build_prompt("FUNCTION_BLOCK X END_FUNCTION_BLOCK", dec_iface, "enhanced")
    assert "test_name,state,dwell_cycles,DE,expect_HEX" in bundle.format_spec


def test_prompt_part_order_and_code_part(dec_iface):
    src = corpus.block_source("DEC_TO_HEX")
    bundle = llm.build_prompt(src, dec_iface, "simple")
    full = bundle.full
    assert full.index(bundle.instructions) < full.index(bundle.format_spec) < full.index(
        "FUNCTION_BLOCK DEC_TO_HEX"
    )


def test_unknown_mode_rejected(dec_iface):
    with pytest.raises(ValueError):
        llm.build_prompt("X", dec_iface, "fancy")


# ---------------------------------------------------------------------------
# providers
# ---------------------------------------------------------------------------

def test_mock_provider_returns_fixture_verbatim(tmp_path, dec_iface):
    fixture = tmp_path / "resp.txt"
    fixture.write_text("hello\n", encoding="utf-8")
    cfg = llm.ProviderConfig(provider="mock", endpoint=str(fixture))
    bundle = llm.build_prompt("FUNCTION_BLOCK X END_FUNCTION_BLOCK", dec_iface, "simple")
    exchange = llm.query(cfg, bundle)
    assert exchange.response_text == "hello\n"
    assert exchange.latency_ms >= 0
    llm.persist_exchange(exchange, tmp_path / "run")
    saved = json.loads((tmp_path / "run" / "exchange_0.json").read_text())
    assert saved["response"] == "hello\n"
    assert saved["prompt"] == bundle.full


def test_provider_config_invariants():
    with pytest.raises(ValueError):
        llm.ProviderConfig(temperature=3.0)
    for timeout in (0, math.inf, math.nan):
        with pytest.raises(ValueError):
            llm.ProviderConfig(timeout_s=timeout)


def test_missing_api_key_fails_before_any_network_call(dec_iface, monkeypatch):
    monkeypatch.delenv("STBENCH_TEST_KEY", raising=False)
    calls = []
    cfg = llm.ProviderConfig(provider="http", endpoint="http://x", api_key_env="STBENCH_TEST_KEY")
    bundle = llm.build_prompt("X", dec_iface, "simple")
    with pytest.raises(llm.AuthError):
        llm.query(cfg, bundle, post=lambda *a, **k: calls.append(1))
    assert calls == []


class _Resp:
    def __init__(self, status, body=None):
        self.status_code = status
        self._body = body or {}

    def json(self):
        return self._body


def test_http_provider_parses_content_and_usage(dec_iface, monkeypatch):
    monkeypatch.setenv("STBENCH_TEST_KEY", "k")
    seen = {}

    def post(url, json=None, headers=None, timeout=None):
        seen.update(url=url, payload=json, headers=headers, timeout=timeout)
        return _Resp(
            200,
            {
                "choices": [{"message": {"content": "csv here"}}],
                "usage": {"prompt_tokens": 12, "completion_tokens": 34},
            },
        )

    cfg = llm.ProviderConfig(
        provider="http",
        endpoint="http://provider/v1/chat",
        model="some-model",
        api_key_env="STBENCH_TEST_KEY",
        temperature=0.0,
    )
    bundle = llm.build_prompt("X", dec_iface, "simple")
    exchange = llm.query(cfg, bundle, post=post)
    assert exchange.response_text == "csv here"
    assert exchange.prompt_tokens == 12 and exchange.completion_tokens == 34
    assert seen["payload"]["model"] == "some-model"
    assert seen["payload"]["messages"][0]["content"] == bundle.full
    assert seen["headers"]["Authorization"] == "Bearer k"


def test_rate_limit_after_three_attempts(dec_iface):
    attempts = []
    sleeps = []

    def post(*a, **k):
        attempts.append(1)
        return _Resp(429)

    cfg = llm.ProviderConfig(provider="http", endpoint="http://x")
    bundle = llm.build_prompt("X", dec_iface, "simple")
    with pytest.raises(llm.RateLimitError):
        llm.query(cfg, bundle, post=post, sleep=sleeps.append)
    assert len(attempts) == 3
    assert sleeps == [0.5, 1.0]  # exponential backoff


def test_timeout_retried_then_raised(dec_iface):
    attempts = []

    def post(*a, **k):
        attempts.append(1)
        raise TimeoutError("timed out")  # what a socket timeout raises

    cfg = llm.ProviderConfig(provider="http", endpoint="http://x", timeout_s=1)
    with pytest.raises(llm.TimeoutError):
        llm.query(cfg, llm.build_prompt("X", dec_iface, "simple"), post=post, sleep=lambda s: None)
    assert len(attempts) == 3


@pytest.mark.parametrize(
    "error",
    [ConnectionRefusedError(111, "Connection refused"), URLError("name resolution failed"), OSError("reset")],
    ids=["refused", "urlerror", "oserror"],
)
def test_connection_errors_retried_then_transport_error(dec_iface, error):
    attempts = []

    def post(*a, **k):
        attempts.append(1)
        raise error

    cfg = llm.ProviderConfig(provider="http", endpoint="http://x")
    with pytest.raises(llm.TransportError):
        llm.query(cfg, llm.build_prompt("X", dec_iface, "simple"), post=post, sleep=lambda s: None)
    assert len(attempts) == 3


def test_connection_error_then_success(dec_iface):
    outcomes = [URLError("refused"), _Resp(200, {"choices": [{"message": {"content": "ok"}}]})]

    def post(*a, **k):
        outcome = outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    cfg = llm.ProviderConfig(provider="http", endpoint="http://x")
    exchange = llm.query(cfg, llm.build_prompt("X", dec_iface, "simple"), post=post, sleep=lambda s: None)
    assert exchange.response_text == "ok"


def test_transient_500_then_success(dec_iface):
    responses = [_Resp(500), _Resp(200, {"choices": [{"message": {"content": "ok"}}]})]

    def post(*a, **k):
        return responses.pop(0)

    cfg = llm.ProviderConfig(provider="http", endpoint="http://x")
    exchange = llm.query(cfg, llm.build_prompt("X", dec_iface, "simple"), post=post, sleep=lambda s: None)
    assert exchange.response_text == "ok"


def test_auth_http_status_not_retried(dec_iface):
    attempts = []

    def post(*a, **k):
        attempts.append(1)
        return _Resp(401)

    cfg = llm.ProviderConfig(provider="http", endpoint="http://x")
    with pytest.raises(llm.AuthError):
        llm.query(cfg, llm.build_prompt("X", dec_iface, "simple"), post=post, sleep=lambda s: None)
    assert len(attempts) == 1


def test_other_status_is_a_transport_error_at_once(dec_iface):
    attempts = []

    def post(*a, **k):
        attempts.append(1)
        return _Resp(404)

    cfg = llm.ProviderConfig(provider="http", endpoint="http://x")
    with pytest.raises(llm.TransportError, match="unexpected HTTP status 404"):
        llm.query(cfg, llm.build_prompt("X", dec_iface, "simple"), post=post, sleep=lambda s: None)
    assert len(attempts) == 1


def test_null_usage_and_non_json_bodies(dec_iface):
    content = {"choices": [{"message": {"content": "ok"}}]}
    cfg = llm.ProviderConfig(provider="http", endpoint="http://x")
    bundle = llm.build_prompt("X", dec_iface, "simple")
    exchange = llm.query(cfg, bundle, post=lambda *a, **k: _Resp(200, {**content, "usage": None}))
    assert exchange.response_text == "ok" and exchange.prompt_tokens is None

    class NotJson(_Resp):
        def json(self):
            return json.loads("<html>")

    with pytest.raises(llm.TransportError, match="not JSON"):
        llm.query(cfg, bundle, post=lambda *a, **k: NotJson(200))


# the default post, against a chat-completion server on the loopback interface

class _Server:
    """Answers each POST with the next (status, body, delay_s) in `script`
    and records what it was sent."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                server.requests.append((dict(self.headers), json.loads(self.rfile.read(length))))
                status, body, delay = server.script.pop(0)
                time.sleep(delay)
                data = json.dumps(body).encode()
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                except OSError:
                    pass  # the client gave up waiting

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.httpd.daemon_threads = True
        self.url = f"http://127.0.0.1:{self.httpd.server_port}/v1/chat"

    def __enter__(self):
        threading.Thread(target=self.httpd.serve_forever, args=(0.01,), daemon=True).start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()


_OK_BODY = {
    "choices": [{"message": {"content": "csv here"}}],
    "usage": {"prompt_tokens": 5, "completion_tokens": 7},
}


def test_default_post_reads_a_200_response(dec_iface, monkeypatch):
    monkeypatch.setenv("STBENCH_TEST_KEY", "k")
    with _Server([(200, _OK_BODY, 0)]) as server:
        cfg = llm.ProviderConfig(
            provider="http", endpoint=server.url, model="m", api_key_env="STBENCH_TEST_KEY", timeout_s=5
        )
        bundle = llm.build_prompt("X", dec_iface, "simple")
        exchange = llm.query(cfg, bundle, sleep=lambda s: None)
    assert exchange.response_text == "csv here"
    assert (exchange.prompt_tokens, exchange.completion_tokens) == (5, 7)
    [(headers, payload)] = server.requests
    assert headers["Authorization"] == "Bearer k"
    assert headers["Content-Type"] == "application/json"
    assert payload["model"] == "m"
    assert payload["messages"][0]["content"] == bundle.full


def test_default_post_retries_a_503(dec_iface):
    sleeps = []
    with _Server([(503, {}, 0), (200, _OK_BODY, 0)]) as server:
        cfg = llm.ProviderConfig(provider="http", endpoint=server.url, timeout_s=5)
        exchange = llm.query(cfg, llm.build_prompt("X", dec_iface, "simple"), sleep=sleeps.append)
    assert exchange.response_text == "csv here"
    assert len(server.requests) == 2 and sleeps == [0.5]


@pytest.mark.parametrize(
    "status,error", [(401, llm.AuthError), (403, llm.AuthError), (404, llm.TransportError)]
)
def test_default_post_maps_error_statuses(dec_iface, status, error):
    with _Server([(status, {"error": "no"}, 0)]) as server:
        cfg = llm.ProviderConfig(provider="http", endpoint=server.url, timeout_s=5)
        with pytest.raises(error, match=f"HTTP.*{status}"):
            llm.query(cfg, llm.build_prompt("X", dec_iface, "simple"), sleep=lambda s: None)
    assert len(server.requests) == 1


def test_default_post_times_out(dec_iface):
    with _Server([(200, _OK_BODY, 0.5)] * 3) as server:
        cfg = llm.ProviderConfig(provider="http", endpoint=server.url, timeout_s=0.05)
        with pytest.raises(llm.TimeoutError):
            llm.query(cfg, llm.build_prompt("X", dec_iface, "simple"), sleep=lambda s: None)
    assert len(server.requests) == 3


def test_default_post_connection_refused_is_a_transport_error(dec_iface):
    with _Server([]) as server:
        url = server.url
    # the port is closed now
    cfg = llm.ProviderConfig(provider="http", endpoint=url, timeout_s=5)
    with pytest.raises(llm.TransportError):
        llm.query(cfg, llm.build_prompt("X", dec_iface, "simple"), sleep=lambda s: None)


# ---------------------------------------------------------------------------
# CSV extraction
# ---------------------------------------------------------------------------

CSV_BODY = "test_name,state,DE,expect_HEX\ntc1,1,255,'FF'\ntc2,1,0,'0'\n"


def test_extract_fenced_block():
    raw = f"Here are the tests:\n\n```csv\n{CSV_BODY}```\n\nEnjoy!"
    assert llm.extract_csv(raw) == CSV_BODY


def test_extract_prefers_matching_fence():
    raw = f"```python\nprint('hi')\n```\nand the data:\n```\n{CSV_BODY}```\n"
    assert llm.extract_csv(raw) == CSV_BODY


def test_extract_bare_csv_with_leading_prose():
    raw = f"Sure! The test cases are below.\n\n{CSV_BODY}\nLet me know."
    assert llm.extract_csv(raw) == CSV_BODY


def test_extract_picks_longest_bare_run():
    short = "test_name,state,DE\nt,1,2\n"
    raw = f"{short}\nsome prose\n{CSV_BODY}"
    assert llm.extract_csv(raw) == CSV_BODY


def test_extract_pure_prose_raises():
    with pytest.raises(llm.NoCsvFound):
        llm.extract_csv("I am sorry, I cannot help with that request.")


def test_extract_header_without_rows_raises():
    with pytest.raises(llm.NoCsvFound):
        llm.extract_csv("test_name,state,DE\n\nnothing else")


@given(
    st.sampled_from(
        [
            f"```csv\n{CSV_BODY}```",
            f"prose first\n{CSV_BODY}",
            CSV_BODY,
            f"```\n{CSV_BODY}```\ntrailing",
        ]
    )
)
def test_extract_idempotent(raw):
    once = llm.extract_csv(raw)
    assert llm.extract_csv(once) == once


_FUZZ_PIECES = [
    "test_name,state", "test_name,state,DE,expect_HEX", "tc,1,4,'4'", "```", "```csv",
    "\n", "\n\n", ",", " ", "prose", "\r\n", "`", "'",
]


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(_FUZZ_PIECES)).map("".join)))
def test_extract_csv_returns_text_or_raises_no_csv_found(raw):
    try:
        out = llm.extract_csv(raw)
    except llm.NoCsvFound:
        return
    assert isinstance(out, str) and out.endswith("\n")
