"""Correctness checks on the run directories the program writes.

Every unit run is checked three ways:

* seed-independent invariants: the exit code is 0 or 1 and agrees with the
  case verdicts, and the case and assertion totals equal the counts the
  inputs were generated with;
* the paper's DEC_TO_HEX result: 100 % statement coverage, with exactly the
  negative-input cases failing;
* a golden semantic record (headline metrics, per-case verdicts, assertion
  actuals, cycles executed and coverage totals), recorded from the program
  for the shipped seeds and compared by digest.  For other seeds, repeated
  runs of one unit must agree with each other.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

DEC_TO_HEX_FAILING = {"tc_int_min", "tc_negative"}


def semantic_record(report: dict) -> dict:
    """The parts of report.json that must not change between versions."""
    return {
        "metrics": report["metrics"],
        "cases": [
            [c["name"], c["verdict"], c["fault"],
             [[a["state"], a["variable"], a["expected"], a["actual"], a["passed"]]
              for a in c["assertions"]]]
            for c in report["cases"]
        ],
        "cycles_executed": report["meta"]["cycles_executed"],
        "coverage": report["coverage"],
    }


def digest(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def summary(record: dict) -> dict:
    """Headline values stored beside a golden digest, for diagnosis."""
    m = record["metrics"]
    return {
        "cases_total": m["cases_total"],
        "assertions_total": m["assertions_total"],
        "assertions_passed": m["assertions_passed"],
        "statement_coverage_pct": m["statement_coverage_pct"],
        "cycles_executed": record["cycles_executed"],
        "digest": digest(record),
    }


def check_run(unit, exit_code: int | str, out_dir: Path) -> tuple[list[str], dict | None]:
    """Problems found in one unit run, and its semantic record.  `exit_code`
    is the text of the exception if the run raised."""
    if exit_code not in (0, 1):
        return [f"{unit.label}: ended with {exit_code}"], None
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{unit.label}: no readable report.json ({exc})"], None
    record = semantic_record(report)
    problems = []
    all_pass = all(c["verdict"] == "pass" for c in report["cases"])
    if exit_code != (0 if all_pass else 1):
        problems.append(f"{unit.label}: exit code {exit_code} disagrees with the verdicts")
    m = report["metrics"]
    if (m["cases_total"], len(report["cases"])) != (unit.cases, unit.cases):
        problems.append(f"{unit.label}: {m['cases_total']} cases, generated {unit.cases}")
    counted = sum(len(c["assertions"]) for c in report["cases"])
    if (m["assertions_total"], counted) != (unit.assertions, unit.assertions):
        problems.append(f"{unit.label}: {m['assertions_total']} assertions, generated {unit.assertions}")
    if unit.label == "DEC_TO_HEX":
        failing = {c["name"] for c in report["cases"] if c["verdict"] != "pass"}
        if m["statement_coverage_pct"] != 100.0 or failing != DEC_TO_HEX_FAILING:
            problems.append(
                f"DEC_TO_HEX: coverage {m['statement_coverage_pct']}%, failing {sorted(failing)}; "
                f"expected 100% with {sorted(DEC_TO_HEX_FAILING)} failing"
            )
    return problems, record


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str, seed: int, seed_free: bool) -> dict | None:
    """Golden summaries by unit label for this seed, or None if not shipped."""
    path = golden_path(workload)
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    return data.get("*" if seed_free else str(seed))


class Verifier:
    """Collects problems across all runs of one benchmark invocation."""

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.seen: dict[str, dict] = {}   # label -> summary of the first run
        self.problems: list[str] = []

    def check(self, unit, exit_code: int | str, out_dir: Path) -> bool:
        problems, record = check_run(unit, exit_code, out_dir)
        if record is not None:
            got = summary(record)
            want = self.seen.setdefault(unit.label, got)
            if got != want:
                problems.append(f"{unit.label}: result differs between runs: {got} vs {want}")
            if self.golden is not None:
                gold = self.golden.get(unit.label)
                if gold != got:
                    problems.append(f"{unit.label}: differs from golden: {got} vs {gold}")
        self.problems.extend(problems)
        return not problems
