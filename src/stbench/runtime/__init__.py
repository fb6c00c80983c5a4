"""Cyclic scan runtime: values, built-in blocks, interpreter."""

from .interp import (
    ContainedFault,
    FbInstance,
    RunResult,
    RuntimeFault,
    SimClock,
    UnknownPou,
    execute_cycle,
    instantiate,
    run_program,
)
from .values import Value, default, f32, make, render, wrap_int

__all__ = [
    "ContainedFault",
    "FbInstance",
    "RunResult",
    "RuntimeFault",
    "SimClock",
    "UnknownPou",
    "Value",
    "default",
    "execute_cycle",
    "f32",
    "instantiate",
    "make",
    "render",
    "run_program",
    "wrap_int",
]
