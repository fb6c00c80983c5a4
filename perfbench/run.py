#!/usr/bin/env python3
"""stbench benchmark: end-to-end throughput and a traced per-layer run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, each in a fresh process

One process drives the public CLI (`stbench.cli.main`) as a closed loop
with a single caller and no extra threads.  Workloads (see inputs.py):

* corpus:      the 8 bundled blocks through `pipeline --provider mock`, in
               seed-shuffled rounds; per-run fixed costs dominate.
* suite_large: seeded 200-case suites through `run` for TRAFFIC_CTRL and
               COUNT_ACC; harness generation and the frontend dominate.
* long_dwell:  seeded 4-case suites with dwells of 1000-3000 scans on
               GEN_SIN, PI_CTRL and DELAY_GATE; the interpreter dominates.

With --trace 0 the run sets up several times (fresh processes plus its
own import and warm-up run), then runs whole seed-shuffled rounds until
--seconds have passed and reports the end-to-end metrics.  Their times are
normalised for machine-speed drift (speed.py); the raw figures go to the
detail line.  With --trace 1 it runs a fixed number of rounds, each unit
untraced and then traced, and reports per-layer self times and counters
(spans.py) in raw seconds.  Every run directory is checked (checks.py).
The line before the last holds the details (seed, input digest, Python,
nproc, git commit, a digest of the program's source, run_s.tail,
fail_frac); the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import inputs
import spans
import speed

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = inputs.ROOT / ".perfbench_work"
SETUP_PROBES = 4            # fresh processes timing set-up, besides this one
CHILD_TIMEOUT_S = 170

UNITS = {
    "cases_per_s": "1/s", "run_s.p50": "s", "run_s.tail": "s", "peak_rss_mb": "MB",
    "setup_s": "s", "fail_frac": "ratio",
    "lexer.bytes": "bytes", "lexer.mb_per_s": "MB/s", "parser.lines": "lines",
    "parser.lines_per_s": "lines/s", "harnessgen.lines": "lines", "interp.scans": "count",
    "interp.sites": "count", "interp.sites_per_s": "1/s", "testspec.rows": "count",
    "frontend.parses_per_run": "ratio", "trace_overhead": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "count" if name.endswith(".calls") else "s"


class _Discard(io.TextIOBase):
    """A text sink for the CLI's console output."""

    def write(self, s: str) -> int:
        return len(s)


def run_unit(cli, unit: inputs.Unit, out_dir: Path) -> tuple[int | str, float, float]:
    """One `stbench` invocation; returns (exit code or exception text,
    start, end)."""
    argv = [*unit.argv, "--out", str(out_dir)]
    sink = _Discard()
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv)
    except Exception as exc:  # a unit run that raised is a failed run
        code = f"{type(exc).__name__}: {exc}"
    return code, start, time.perf_counter()


def set_up(warmup: inputs.Unit, work: Path):
    """Import the program and make one untimed warm-up run; returns the CLI
    module and the normalised seconds taken."""
    before = speed.factor_now()
    start = time.perf_counter()
    sys.path.insert(0, str(inputs.SRC))
    from stbench import cli

    code, _, _ = run_unit(cli, warmup, work / "warmup")
    if code not in (0, 1):
        raise SystemExit(f"warm-up run failed: {code}")
    raw = time.perf_counter() - start
    return cli, raw * (before + speed.factor_now()) / 2


def probe_setup(args) -> list[float]:
    """Set-up times of fresh processes, one at a time."""
    samples = []
    for _ in range(2 if args.tiny else SETUP_PROBES):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def rounds(wl: inputs.Workload, rng: random.Random):
    """Endless seed-shuffled rounds over the workload's units."""
    while True:
        order = list(wl.units)
        rng.shuffle(order)
        yield order


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest of these percentiles with at least ten samples beyond it."""
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(samples) * (1 - pct / 100) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            return pct, cut[round(pct * 10) - 1]
    return None


class Session:
    """Runs and checks the units of one workload inside this process."""

    def __init__(self, cli, work: Path, verifier: checks.Verifier):
        self.cli = cli
        self.work = work
        self.verifier = verifier
        self.n = 0

    def run(self, unit: inputs.Unit):
        """Returns (unit, code, start, end, out_dir)."""
        self.n += 1
        out = self.work / "runs" / f"{self.n:05d}"
        return unit, *run_unit(self.cli, unit, out), out

    def run_rounds(self, order_iter, seconds: float):
        """Run whole rounds until `seconds` have passed."""
        done = []
        start = time.perf_counter()
        for order in order_iter:
            done += [self.run(unit) for unit in order]
            if time.perf_counter() - start >= seconds:
                return done
        raise AssertionError("unreachable")

    def run_pairs(self, orders, tracer: spans.Tracer):
        """Run every unit untraced (wrappers installed but disabled) and then
        traced, alternating, so both passes meet the same process state.
        Returns both passes' runs."""
        untraced, traced = [], []
        for order in orders:
            for unit in order:
                untraced.append(self.run(unit))
                tracer.enabled = True
                traced.append(self.run(unit))
                tracer.enabled = False
        return untraced, traced

    def verify(self, done) -> int:
        """Check every run directory, then delete them; returns failures."""
        failed = 0
        for unit, code, _start, _end, out in done:
            failed += not self.verifier.check(unit, code, out)
        shutil.rmtree(self.work / "runs", ignore_errors=True)
        return failed


def measure(args, wl: inputs.Workload, work: Path) -> dict:
    setup_samples = [] if args.trace else probe_setup(args)
    cli, own_setup = set_up(wl.warmup, work)
    setup_samples.append(own_setup)
    golden = None if args.tiny else checks.load_golden(wl.name, args.seed, wl.name == "corpus")
    session = Session(cli, work, checks.Verifier(golden))
    rng = random.Random(f"order:{wl.name}:{args.seed}")
    info = {"setup_samples": setup_samples, "golden": golden is not None}

    if not args.trace:
        with speed.SpeedProbe() as probe:
            done = session.run_rounds(rounds(wl, rng), args.seconds)
        failed = session.verify(done)
        times = [probe.normalise(start, end) for _u, _c, start, end, _o in done]
        cases = sum(u.cases for u, code, _s, _e, _o in done if code in (0, 1))
        metrics = {
            "cases_per_s": cases / sum(times),
            "run_s.p50": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_samples),
        }
        t = tail(times)
        info["run_s.tail"] = None if t is None else {"pct": t[0], "value": t[1], "n": len(times)}
        info["run_s.n"] = len(times)
        by_unit: dict[str, list[float]] = {}
        for (unit, *_rest), secs in zip(done, times):
            by_unit.setdefault(unit.label, []).append(secs)
        info["run_s.p50_by_unit"] = {k: statistics.median(v) for k, v in by_unit.items()}
        info["raw_run_s.p50"] = statistics.median(end - start for _u, _c, start, end, _o in done)
        info["speed_samples"] = len(probe.ref_s)
    else:
        tracer = spans.Tracer()
        tracer.install()
        orders = [next(rounds(wl, rng)) for _ in range(wl.trace_rounds)]
        untraced, traced = session.run_pairs(orders, tracer)
        done = untraced + traced
        failed = session.verify(done)
        untraced_wall = sum(end - start for _u, _c, start, end, _o in untraced)
        traced_wall = sum(end - start for _u, _c, start, end, _o in traced)
        metrics = tracer.metrics(traced_wall, len(traced))
        metrics["trace_overhead"] = traced_wall / untraced_wall - 1
        info["traced_wall_s"] = traced_wall
        info["missing_layers"] = tracer.missing
        info["unbound_targets"] = tracer.unbound
    info["fail_frac"] = failed / len(done)
    return {
        "correct": failed == 0 and not session.verifier.problems,
        "attempted": len(done),
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "problems": session.verifier.problems[:20],
    }


def environment(wl: inputs.Workload, seed: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(inputs.ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=inputs.ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    program = hashlib.sha256()
    for path in sorted((inputs.SRC / "stbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            program.update(path.relative_to(inputs.SRC).as_posix().encode())
            program.update(path.read_bytes())
    return {
        "workload": wl.name, "seed": seed, "input_digest": wl.digest,
        "python": sys.version.split()[0], "nproc": os.cpu_count(), "git_commit": commit,
        "program_digest": program.hexdigest()[:16],
    }


def print_result(env: dict, result: dict) -> None:
    info = result["info"]
    print(f"workload {env['workload']}  seed {env['seed']}  inputs {env['input_digest']}  "
          f"python {env['python']}  nproc {env['nproc']}  commit {env['git_commit']}")
    for name, value in result["metrics"].items():
        print(f"  {name:<24} {value:>14.6g} {unit_of(name)}")
    t = info.get("run_s.tail")
    if "run_s.n" in info:
        print(f"  {'run_s.p50 samples':<24} {info['run_s.n']:>14}")
        tail_text = "n/a (fewer than 10 runs beyond any percentile)" if t is None else \
            f"{t['value']:.6g} s (p{t['pct']:g}, n={t['n']})"
        print(f"  {'run_s.tail':<24} {tail_text}")
    print(f"  {'fail_frac':<24} {info['fail_frac']:>14.6g} ratio "
          f"({result['failed']}/{result['attempted']} unit runs)")
    if info.get("missing_layers"):
        print(f"  missing layers: {', '.join(info['missing_layers'])}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({"detail": {**env, **info}}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in result["metrics"].items()},
    }))


def record_golden(args, wl: inputs.Workload, work: Path) -> None:
    """Store the semantic summaries of one round as this seed's golden."""
    cli, _ = set_up(wl.warmup, work)
    session = Session(cli, work, checks.Verifier(None))
    done = [session.run(unit) for unit in wl.units]
    entry = {}
    for unit, code, _start, _end, out in done:
        problems, record = checks.check_run(unit, code, out)
        if problems:
            raise SystemExit("; ".join(problems))
        entry[unit.label] = checks.summary(record)
    path = checks.golden_path(wl.name)
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data["*" if wl.name == "corpus" else str(args.seed)] = entry
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {wl.name} seed {args.seed} in {path}")


def run_all(args) -> int:
    """Every workload, end to end then traced, each in a fresh process."""
    results = {}
    for name in inputs.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1] if proc.returncode == 0 else lines), flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="stbench benchmark")
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken inputs, for the smoke test")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this seed's semantic results as golden")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (inputs.SRC / "stbench" / "cli.py").is_file():
        print(f"error: the program is missing ({inputs.SRC / 'stbench'})", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        wl = inputs.build(args.workload, args.seed, work / "inputs", tiny=args.tiny)
        if args.setup_probe:
            _cli, seconds = set_up(wl.warmup, work)
            print(repr(seconds))
        elif args.record_golden:
            record_golden(args, wl, work)
        else:
            print_result(environment(wl, args.seed), measure(args, wl, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left if another run still uses it
            WORK_ROOT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
