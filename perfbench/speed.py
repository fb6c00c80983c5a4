"""Machine-speed normalisation of measured times.

On a shared machine the speed of the same Python code drifts by a quarter
or more over tens of seconds, far beyond the benchmark's bounds.  So every
time the benchmark reports is normalised: it is multiplied by the speed of
a fixed reference snippet measured at the same moment, relative to the
snippet's nominal duration.  A normalised second is a second on a machine
where `reference()` takes REF_NOMINAL_S.  The reference is benchmark code
that no change to the program touches, so a program change still moves the
normalised times, while most of the machine's drift cancels out: on a
2-vCPU sandbox, a 20-50 % swing in raw run times left 3-10 % across runs.

While a workload runs, SpeedProbe times the reference from a SIGALRM
handler every INTERVAL_S, so speed is known throughout long unit runs; the
handler's own time is subtracted from the runs it interrupts.
"""

from __future__ import annotations

import bisect
import json
import re
import signal
import time

REF_NOMINAL_S = 0.002
INTERVAL_S = 0.05
WINDOW_S = 0.25      # samples this close to a run also describe its speed


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int):
        self.key = key
        self.value = value


_TEXT = " ".join(
    f"IF X_{i} > {i * 7} THEN Y_{i} := Y_{i} + {i}; END_IF;" for i in range(24)
)


_KEY_RE = re.compile(r"k\d+")


def reference() -> int:
    """A fixed mix of interpreter work: arithmetic, calls, attribute access,
    dict updates, sorting, a character-by-character scan like a lexer's, and
    library work in C (JSON round trip, regular expressions)."""
    counts: dict[str, int] = {}
    items = []
    acc = 0
    for i in range(350):
        acc += i * i % 7
        item = _Item(f"k{i % 97}", i)
        items.append(item)
        counts[item.key] = counts.get(item.key, 0) + item.value
        if isinstance(item.value, int) and item.value % 3 == 0:
            items[-1] = _Item(item.key + "x", item.value * 2)
    for i in range(2500):
        acc += i * i % 7
    ordered = sorted(items, key=lambda it: it.value)
    acc += len(counts) + len("".join(it.key for it in ordered[:100]))

    text, i, n, tokens = _TEXT, 0, len(_TEXT), []
    while i < n:
        c = text[i]
        j = i + 1
        if c.isalpha():
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("id", text[i:j].upper()))
        elif c.isdigit():
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", int(text[i:j])))
        i = j
    acc += len(tokens)

    table = {f"k{i}": [i, str(i), {"v": i * 1.5}] for i in range(100)}
    dumped = json.dumps(table, sort_keys=True, indent=1)
    return acc + len(json.loads(dumped)) + len(_KEY_RE.findall(dumped))


def time_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def factor_now(samples: int = 8) -> float:
    """Speed factor (REF_NOMINAL_S / reference time) measured right now."""
    return sum(REF_NOMINAL_S / time_reference() for _ in range(samples)) / samples


class SpeedProbe:
    """Samples the reference periodically while active (a context manager)."""

    def __init__(self):
        self.starts: list[float] = []   # handler start times
        self.ref_s: list[float] = []    # reference duration per sample
        self.busy_s: list[float] = []   # handler duration per sample
        self._in_handler = False

    def _handler(self, _signum, _frame) -> None:
        if self._in_handler:
            return
        self._in_handler = True
        start = time.perf_counter()
        ref = time_reference()
        self.starts.append(start)
        self.ref_s.append(ref)
        self.busy_s.append(time.perf_counter() - start)
        self._in_handler = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, start: float, end: float) -> float:
        """Normalised seconds of the interval [start, end] of raw time."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        net = end - start - sum(self.busy_s[lo:hi])
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi == lo:
            raise RuntimeError("no speed sample near a timed run")
        speed = sum(REF_NOMINAL_S / r for r in self.ref_s[lo:hi]) / (hi - lo)
        return net * speed
