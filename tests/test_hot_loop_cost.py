"""Deterministic cost of the simulator's hot loop, in Python bytecodes.

Wall-clock benchmarks on shared hosts swing by tens of percent between
back-to-back runs, so a per-cycle slowdown of a few percent cannot be
seen in them. The number of bytecodes the interpreter executes per
simulated cycle is exact and repeatable for a given CPython minor
version: this test counts it with ``sys.settrace`` opcode events over a
fixed slice of two runs (the unprotected baseline core and an UnSync
pair, both on ``bzip2``) and fails when it grows more than 5% past the
value recorded here.

Bytecode streams differ between CPython minor versions, so the test runs
only on CPython 3.11, the CI interpreter. When a change makes the loop
cheaper, lower the recorded value to the new measurement, printed by::

    PYTHONPATH=src python -m tests.test_hot_loop_cost
"""

from __future__ import annotations

import platform
import sys

import pytest

from repro.schemes import get as get_scheme
from repro.workloads.suites import load_benchmark

#: cycles stepped untraced first (cold caches, first-use decoding), then
#: cycles counted
SLICE = (500, 1000)
BENCHMARK = "bzip2"
#: bytecodes per simulated cycle measured over ``SLICE``
RECORDED = {"baseline": 2414, "unsync": 5025}
TOLERANCE = 1.05


def opcodes_per_cycle(scheme: str) -> float:
    system = get_scheme(scheme).build_system(load_benchmark(BENCHMARK))
    warm, counted = SLICE
    for _ in range(warm):
        system.step()
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return on_opcode

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for _ in range(counted):
            system.step()
    finally:
        sys.settrace(previous)
    assert not system.finished(), "the slice must end before the run does"
    return count / counted


@pytest.mark.skipif(
    platform.python_implementation() != "CPython"
    or sys.version_info[:2] != (3, 11),
    reason="bytecode counts are recorded for CPython 3.11")
@pytest.mark.parametrize("scheme", sorted(RECORDED))
def test_bytecodes_per_cycle_within_recorded_bound(scheme):
    got = opcodes_per_cycle(scheme)
    bound = RECORDED[scheme] * TOLERANCE
    assert got <= bound, (
        f"{scheme}/{BENCHMARK}: {got:.1f} bytecodes per cycle, recorded "
        f"{RECORDED[scheme]} (+{TOLERANCE - 1:.0%} allowed)")


if __name__ == "__main__":
    for name in sorted(RECORDED):
        print(f"{name}: {opcodes_per_cycle(name):.1f}")
