"""The shared system chassis: strike delivery and the watchdog, for every
system built on :class:`~repro.redundancy.pair.DualCoreSystem`."""

import pytest

from repro.checkpoint import CheckpointParams, CheckpointSystem
from repro.faults.events import Outcome
from repro.faults.injector import FaultInjector, Strike
from repro.isa import golden
from repro.redundancy.pair import BaselineSystem, SimulationHang
from repro.redundancy.tmr import TMRSystem
from repro.schemes import available, get
from tests.conftest import ScriptedInjector

#: every system class the chassis serves, by name: the registry's
#: schemes plus the two systems outside it
SYSTEMS = {name: get(name).build_system for name in available()}
SYSTEMS.update(tmr=TMRSystem, checkpoint=CheckpointSystem)


@pytest.mark.parametrize("cls,kwargs", [
    (TMRSystem, {}),
    (CheckpointSystem, {"params": CheckpointParams(interval=100)}),
], ids=["tmr", "checkpoint"])
def test_scripted_strike_is_delivered(sum_loop, cls, kwargs):
    # an injector overriding next_strike must reach every system, not
    # only the ones that happened to call it
    strike = Strike(cycle=40, block="rob", bit=3, core=1)
    res = cls(sum_loop, injector=ScriptedInjector([strike]), **kwargs).run()
    [event] = res.fault_events
    assert (event.cycle, event.core_id, event.block, event.bit) \
        == (40, 1, "rob", 3)
    assert event.outcome is Outcome.DETECTED_RECOVERED
    gold = golden.run(sum_loop)
    assert res.state.mem == gold.state.mem


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_watchdog_raises_simulation_hang(sum_loop, name):
    budget = 50
    system = SYSTEMS[name](sum_loop)
    with pytest.raises(SimulationHang) as info:
        system.run(budget)
    assert info.value.cycles == budget


def test_baseline_takes_no_injector(sum_loop):
    with pytest.raises(TypeError):
        BaselineSystem(sum_loop, injector=FaultInjector(0.01, seed=1))
