"""Seeded workload inputs: the units each workload runs and the CSV suites
they read.

The seed decides which values, orderings and expectations a suite holds,
not how much work it is.  The counts that set the cost of a run are the
same for every seed: cases, the summed dwell cycles and the longest case's
dwell, hence the number of scans, and in suite_large also states and
assertions.  Where the seed draws them, it shuffles a fixed multiset.  Expected values are random, so suites
pass and fail in a seeded mix, as generated suites do.

Each generated case has at least one assertion, so every suite passes
`testspec.validate`.  The program sees only the files written here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLOCKS_DIR = SRC / "stbench" / "corpus" / "blocks"
FIXTURES_DIR = SRC / "stbench" / "corpus" / "fixtures"

# Bundled corpus blocks and their mock responses, in the order the corpus
# lists them.
CORPUS = (
    ("DEC_TO_HEX", "dec_to_hex_response.txt"),
    ("GEN_SIN", "gen_sin_response.txt"),
    ("TRAFFIC_CTRL", "traffic_ctrl_response.txt"),
    ("COUNT_ACC", "count_acc_response.txt"),
    ("PI_CTRL", "pi_ctrl_response.txt"),
    ("DELAY_GATE", "delay_gate_response.txt"),
    ("LOGIC_MUX", "logic_mux_response.txt"),
    ("EDGE_COUNT", "edge_count_response.txt"),
)

WORKLOADS = ("corpus", "suite_large", "long_dwell")


@dataclass(frozen=True)
class Unit:
    """One unit run: a `stbench` command line without its --out flag."""

    label: str
    argv: tuple[str, ...]
    cases: int          # expected cases_total
    assertions: int     # expected assertions_total


@dataclass(frozen=True)
class Workload:
    name: str
    units: tuple[Unit, ...]   # one round
    warmup: Unit              # the untimed run that set-up includes
    trace_rounds: int         # rounds in each pass of a traced run
    digest: str               # sha256 over every input file


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _bool(rng: random.Random) -> str:
    return "TRUE" if rng.random() < 0.5 else "FALSE"


def _real(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.3f}"


def _time(rng: random.Random, lo_ms: int, hi_ms: int) -> str:
    return f"T#{rng.randint(lo_ms, hi_ms)}ms"


# Per block: input columns, output columns, and a random literal for each.
# The long_dwell blocks keep their enable inputs TRUE, so timers and the
# integrator run through every dwell and each scan costs the same whatever
# the seed.
BLOCK_COLUMNS = {
    "TRAFFIC_CTRL": (
        {"B1": _bool, "B2": _bool},
        {"GO": _bool, "YEL": _bool, "RED": _bool, "WALK": _bool},
    ),
    "COUNT_ACC": (
        {
            "X": lambda r: str(r.randint(-50, 150)),
            "EN": lambda r: "TRUE" if r.random() < 0.8 else "FALSE",
            "RST": lambda r: "TRUE" if r.random() < 0.15 else "FALSE",
        },
        {
            "SUM": lambda r: str(r.randint(-100, 400)),
            "CNT": lambda r: str(r.randint(0, 20)),
            "OVER": _bool,
        },
    ),
    "GEN_SIN": (
        {"PT": lambda r: _time(r, 1000, 5000), "AM": lambda r: _real(r, 0.5, 5.0)},
        {"OUT": lambda r: _real(r, -5.0, 5.0)},
    ),
    "PI_CTRL": (
        {
            "EN": lambda r: "TRUE",
            "SP": lambda r: _real(r, -50.0, 50.0),
            "PV": lambda r: _real(r, -50.0, 50.0),
            "KP": lambda r: _real(r, 0.1, 2.0),
            "KI": lambda r: _real(r, 0.0, 0.5),
        },
        {"OUT": lambda r: _real(r, -150.0, 150.0), "ERR": lambda r: _real(r, -100.0, 100.0)},
    ),
    "DELAY_GATE": (
        {"IN": lambda r: "TRUE", "PT": lambda r: _time(r, 1000, 40000)},
        {"Q": _bool, "ET": lambda r: _time(r, 0, 40000)},
    ),
}


def _multiset(values: list[int], n: int) -> list[int]:
    return [values[i % len(values)] for i in range(n)]


def make_suite(block: str, cases: list[list[int]], asserts: list[int],
               rng: random.Random) -> tuple[str, int, int]:
    """Return (csv text, cases, assertions) of a seeded suite for `block`.

    `cases` holds each case's dwell per state; `asserts` is the multiset of
    assertions per state, cycled over all states.
    """
    inputs, outputs = BLOCK_COLUMNS[block]
    cases = list(cases)
    rng.shuffle(cases)
    per_state = _multiset(asserts, sum(len(c) for c in cases))
    rng.shuffle(per_state)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["test_name", "state", "dwell_cycles", *inputs, *("expect_" + o for o in outputs)])
    total_asserts = 0
    for ci, case in enumerate(cases, start=1):
        for si, dwell in enumerate(case, start=1):
            ins = [
                "" if si > 1 and rng.random() < 0.25 else gen(rng)
                for gen in inputs.values()
            ]
            k = min(per_state.pop(), len(outputs))
            checked = set(rng.sample(sorted(outputs), k))
            exp = [gen(rng) if name in checked else "" for name, gen in outputs.items()]
            total_asserts += k
            writer.writerow([f"tc_{ci:03d}", si, dwell, *ins, *exp])
    return buf.getvalue(), len(cases), total_asserts


def _split(total: int, lo: int, hi: int, rng: random.Random) -> list[int]:
    """A random composition of `total` into parts within [lo, hi]."""
    n = rng.randint(-(-total // hi), total // lo)
    parts = [lo] * n
    rest = total - lo * n
    while rest:
        i = rng.randrange(n)
        step = min(rest, hi - parts[i], rng.randint(1, hi - lo))
        parts[i] += step
        rest -= step
    return parts


def long_dwell_cases(rng: random.Random, scale: float) -> list[list[int]]:
    """4 cases whose total dwells are 5000, 6000, 7000 and 8000 cycles, each
    split into states of 1000-3000 cycles; `scale` shrinks them."""
    lo, hi = max(1, round(1000 * scale)), max(1, round(3000 * scale))
    return [_split(max(hi, round(t * scale)), lo, hi, rng) for t in (5000, 6000, 7000, 8000)]


def large_cases(n: int, max_dwell: int, rng: random.Random) -> list[list[int]]:
    """`n` cases of 1-4 states with dwells 1..max_dwell, drawn from shuffled
    multisets; one case has 4 states at max_dwell, which fixes the scans."""
    states = _multiset([1, 2, 3, 4], n - 1)
    dwells = _multiset(list(range(1, max_dwell + 1)), sum(states))
    rng.shuffle(states)
    rng.shuffle(dwells)
    return [[max_dwell] * 4] + [[dwells.pop() for _ in range(k)] for k in states]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def fixture_counts(text: str) -> tuple[int, int]:
    """Cases and assertions of the CSV inside a mock response, counted
    independently of the program's own extractor."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("test_name,state"))
    end = start + 1
    while end < len(lines) and lines[end].strip() and not lines[end].startswith("```"):
        end += 1
    rows = list(csv.reader(lines[start:end]))
    expect = [i for i, name in enumerate(rows[0]) if name.lower().startswith("expect_")]
    names = {row[0] for row in rows[1:]}
    asserts = sum(1 for row in rows[1:] for i in expect if row[i].strip())
    return len(names), asserts


def _corpus_unit(block: str, fixture: str) -> Unit:
    fixture_path = FIXTURES_DIR / fixture
    cases, asserts = fixture_counts(fixture_path.read_text(encoding="utf-8"))
    argv = (
        "pipeline", "--unit", str(BLOCKS_DIR / f"{block}.st"),
        "--provider", "mock", "--fixture", str(fixture_path), "--fixed-clock",
    )
    return Unit(block, argv, cases, asserts)


def _suite_unit(block: str, label: str, dwells: list[list[int]], asserts: list[int],
                rng: random.Random, inputs_dir: Path) -> Unit:
    text, n_cases, n_asserts = make_suite(block, dwells, asserts, rng)
    path = inputs_dir / f"{label}.csv"
    path.write_text(text, encoding="utf-8")
    argv = ("run", "--unit", str(BLOCKS_DIR / f"{block}.st"), "--suite", str(path), "--fixed-clock")
    return Unit(label, argv, n_cases, n_asserts)


def _digest(units: list[Unit]) -> str:
    h = hashlib.sha256()
    for unit in units:
        for arg in unit.argv:
            path = Path(arg)
            if path.is_absolute() and path.is_file():
                h.update(path.read_bytes())
            else:
                h.update(arg.encode())
    return h.hexdigest()[:16]


def build(name: str, seed: int, inputs_dir: Path, tiny: bool = False) -> Workload:
    """Write the inputs of workload `name` for `seed` and describe its runs.

    `tiny` shrinks every suite for the benchmark's own smoke test; goldens
    apply only to full-size inputs.
    """
    inputs_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    if name == "corpus":
        units = [_corpus_unit(b, f) for b, f in CORPUS]
        warmup = units[0]
        trace_rounds = 1 if tiny else 8
    elif name == "suite_large":
        n = 6 if tiny else 200
        units = [
            _suite_unit("TRAFFIC_CTRL", "TRAFFIC_CTRL", large_cases(n, 60, rng), [1, 2, 3, 4], rng, inputs_dir),
            _suite_unit("COUNT_ACC", "COUNT_ACC", large_cases(n, 5, rng), [1, 2, 3, 4], rng, inputs_dir),
        ]
        warmup = _suite_unit("TRAFFIC_CTRL", "warmup", large_cases(4, 10, rng), [1, 2], rng, inputs_dir)
        trace_rounds = 1
    elif name == "long_dwell":
        scale = 0.01 if tiny else 1.0
        units = [
            _suite_unit(b, b, long_dwell_cases(rng, scale), [1, 2], rng, inputs_dir)
            for b in ("GEN_SIN", "PI_CTRL", "DELAY_GATE")
        ]
        warmup = _suite_unit("GEN_SIN", "warmup", long_dwell_cases(rng, 0.01), [1, 2], rng, inputs_dir)
        trace_rounds = 1
    else:
        raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(WORKLOADS)})")
    return Workload(name, tuple(units), warmup, trace_rounds, _digest(units))
