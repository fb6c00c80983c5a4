import gc
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))  # timer_reference, oracle_sim, strategies

from stbench import corpus
from stbench.frontend import parse_text, resolve


@pytest.fixture(autouse=True)
def gc_left_enabled():
    """Fail a test that leaves the cyclic garbage collector disabled."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture(scope="session")
def corpus_sources() -> dict[str, str]:
    return {b.name: corpus.block_source(b.name) for b in corpus.BLOCKS}


@pytest.fixture(scope="session")
def corpus_programs(corpus_sources):
    return {name: resolve(parse_text(src, name)) for name, src in corpus_sources.items()}


# one pass/fail line per acceptance criterion, printed after the run
_ACCEPTANCE_RESULTS: dict[str, str] = {}


def record_acceptance(criterion: str, label: str) -> None:
    _ACCEPTANCE_RESULTS[criterion] = label


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker and report.when == "call":
        criterion = marker.args[0]
        label = f"{'PASS' if report.passed else 'FAIL'}  {marker.args[1]}"
        _ACCEPTANCE_RESULTS[criterion] = label


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(_ACCEPTANCE_RESULTS, key=lambda c: int(c)):
        terminalreporter.write_line(f"criterion {criterion}: {_ACCEPTANCE_RESULTS[criterion]}")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(criterion, description): acceptance-gate test"
    )
