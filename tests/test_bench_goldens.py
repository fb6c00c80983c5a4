"""The benchmark's workloads still give their recorded results.

`perfbench/run.py` checks every run directory it makes against
`perfbench/golden`.  This runs one round of each workload's seed-1 units
in-process, with the benchmark's own `inputs.build` and checks, so that a
change that alters a workload's results fails the tests, not only a
benchmark run.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from stbench import cli

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module of a name private to this file, so
    that no other module's import of `name` finds it."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


checks, inputs = _load("checks"), _load("inputs")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_a_round_of_seed_one_matches_the_golden(workload, tmp_path):
    golden = checks.load_golden(workload, 1, workload == "corpus")
    wl = inputs.build(workload, 1, tmp_path / "inputs")
    assert golden is not None and sorted(golden) == sorted([u.label for u in wl.units])
    verifier = checks.Verifier(golden)
    for unit in wl.units:
        out = tmp_path / "runs" / unit.label
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*unit.argv, "--out", str(out)])
        verifier.check(unit, code, out)
    assert verifier.problems == []
