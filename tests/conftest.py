"""Shared fixtures."""

from __future__ import annotations

import pytest

from repro.faults.injector import FaultInjector
from repro.isa import assemble
from repro.workloads import load_kernel


class ScriptedInjector(FaultInjector):
    """Deterministic injector replaying a fixed strike list (in cycle
    order), for directed recovery-path tests."""

    def __init__(self, strikes, inventory=None):
        super().__init__(0.0, inventory=inventory)
        self._script = sorted(strikes, key=lambda s: s.cycle)
        self.recovery_notices = []

    def next_strike(self, now):
        return self._script.pop(0) if self._script else None

    def on_recovery(self, now, duration_cycles):
        self.recovery_notices.append((now, duration_cycles))

    def preempt(self, armed):
        if self._script and (armed is None
                             or self._script[0].cycle <= armed.cycle):
            nxt = self._script.pop(0)
            if armed is not None:
                self._script.append(armed)
                self._script.sort(key=lambda s: s.cycle)
            return nxt
        return armed


SUM_LOOP = """
main:
    li r1, 50
    li r2, 0
    la r6, buf
loop:
    add r2, r2, r1
    mul r3, r1, r1
    sw r3, 0(r6)
    lw r4, 0(r6)
    add r2, r2, r4
    addi r6, r6, 4
    addi r1, r1, -1
    bne r1, r0, loop
    la r5, result
    sw r2, 0(r5)
    halt
.data
result: .word 0
buf: .space 256
"""

TRAP_LOOP = """
main:
    li r1, 30
    li r2, 0
loop:
    add r2, r2, r1
    slli r3, r2, 1
    xor r2, r2, r3
    trap
    addi r1, r1, -1
    bne r1, r0, loop
    la r5, result
    sw r2, 0(r5)
    halt
.data
result: .word 0
"""

STORE_BURST = """
main:
    li r1, 40
    la r6, buf
loop:
    sw r1, 0(r6)
    sw r1, 4(r6)
    sw r1, 8(r6)
    sw r1, 12(r6)
    sw r1, 16(r6)
    sw r1, 20(r6)
    addi r6, r6, 24
    andi r6, r6, 0x3ff
    la r7, buf
    add r6, r6, r0
    addi r1, r1, -1
    bne r1, r0, loop
    halt
.data
buf: .space 2048
"""


@pytest.fixture(scope="session")
def sum_loop():
    """Small mixed kernel with a verifiable result."""
    return assemble(SUM_LOOP, name="sum_loop")


@pytest.fixture(scope="session")
def trap_loop():
    """Kernel with one serializing trap per iteration."""
    return assemble(TRAP_LOOP, name="trap_loop")


@pytest.fixture(scope="session")
def store_burst():
    """Store-dense kernel (CB pressure)."""
    return assemble(STORE_BURST, name="store_burst")


@pytest.fixture(scope="session")
def dot_product():
    return load_kernel("dot_product")


@pytest.fixture(scope="session")
def bubble_sort():
    return load_kernel("bubble_sort")
