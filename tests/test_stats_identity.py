"""Statistics-identity lock: fault-free runs reproduce a committed fixture.

A change meant only to make the simulator faster must leave every
simulated statistic exactly as it was. This test re-runs a small grid of
fault-free simulations and compares ``cycles``, ``instructions``, the
full ``RunResult.metrics`` dict and each pipeline's mean ROB occupancy
against ``tests/data/stats_identity.json`` with exact equality (floats
included: JSON round-trips them through ``repr``).

The grid is every registered scheme on ``bzip2`` and ``mcf``, plus two
sweep corners the default configurations never reach: Reunion at
Figure 5's largest (FI 50, latency 60) point and UnSync at Figure 6's
smallest (0.125 KB) Communication Buffer.

The two redundant systems outside the scheme registry, TMR and
checkpointing, are locked on the same benchmarks: fault-free (``cycles``,
``instructions``, ``extra``, ROB occupancy, and ``metrics`` for
checkpointing; TMR reports none) and one fixed-seed injected run each,
whose ``extra`` and ``(cycle, core_id, block, bit, outcome)`` fault-event
list are compared too.

Every registered protected scheme also gets one fixed-seed injected run
per benchmark (``<scheme>-injected/<bench>``), compared on ``cycles``,
``instructions``, ``extra``, ``metrics``, ROB occupancy and the fault-event
list. These lock the flush, freeze and state-adoption paths that
fault-free runs never take.

Regenerate the fixture only when a change is *meant* to move simulated
results::

    PYTHONPATH=src python -m tests.test_stats_identity --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from repro.checkpoint import CheckpointSystem
from repro.faults.injector import BLOCKS, BlockInventory, FaultInjector
from repro.redundancy.tmr import TMRSystem
from repro.reunion.check_stage import ReunionParams
from repro.schemes import available, get as get_scheme, protected_schemes
from repro.unsync.comm_buffer import ENTRY_BYTES
from repro.unsync.system import UnSyncConfig
from repro.workloads.suites import load_benchmark

FIXTURE = Path(__file__).parent / "data" / "stats_identity.json"
BENCHMARKS = ("bzip2", "mcf")
#: systems outside the registry, by case-id prefix
UNREGISTERED = {"tmr": TMRSystem, "checkpoint": CheckpointSystem}
#: the fixed-seed injector of every injected run
INJECTED_SER = 1 / 800
INJECTED_SEED = 3
#: checkpointing strikes skip the SECDED L1s, so its run reaches both
#: rollback and SDC rather than only in-place corrections
INJECTED_INVENTORY = {"checkpoint": BlockInventory(
    [b for b in BLOCKS if not b.name.startswith("l1")])}


def _cases() -> List[Tuple[str, str, str, Dict[str, Any]]]:
    """(case id, scheme, benchmark, build_system kwargs)."""
    cases = [(f"{scheme}/{bench}", scheme, bench, {})
             for scheme in available() for bench in BENCHMARKS]
    for bench in BENCHMARKS:
        cases.append((f"reunion-fi50-lat60/{bench}", "reunion", bench,
                      {"params": ReunionParams(fingerprint_interval=50,
                                               comparison_latency=60)}))
        entries = max(1, int(0.125 * 1024 // ENTRY_BYTES))
        cases.append((f"unsync-cb0.125kb/{bench}", "unsync", bench,
                      {"unsync": UnSyncConfig(cb_entries=entries)}))
    return cases


def _unregistered_cases() -> List[Tuple[str, str, str, bool]]:
    """(case id, system, benchmark, injected)."""
    return [(f"{name}{'-injected' if injected else ''}/{bench}", name,
             bench, injected)
            for name in UNREGISTERED for bench in BENCHMARKS
            for injected in (False, True)]


def _injected_cases() -> List[Tuple[str, str, str]]:
    """(case id, protected scheme, benchmark)."""
    return [(f"{scheme}-injected/{bench}", scheme, bench)
            for scheme in protected_schemes() for bench in BENCHMARKS]


def _fault_events(res) -> List[List[Any]]:
    return [[e.cycle, e.core_id, e.block, e.bit,
             e.outcome.value if e.outcome is not None else None]
            for e in res.fault_events]


def _measure(scheme: str, bench: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    system = get_scheme(scheme).build_system(load_benchmark(bench), **kwargs)
    res = system.run()
    return {
        "cycles": res.cycles,
        "instructions": res.instructions,
        "metrics": dict(sorted(res.metrics.items())),
        "rob_mean_occupancy": [p.mean_occupancy(p.rob)
                               for p in system.pipelines],
    }


def _measure_unregistered(name: str, bench: str,
                          injected: bool) -> Dict[str, Any]:
    injector = (FaultInjector(INJECTED_SER, seed=INJECTED_SEED,
                              inventory=INJECTED_INVENTORY.get(name))
                if injected else None)
    system = UNREGISTERED[name](load_benchmark(bench), injector=injector)
    res = system.run()
    got = {
        "cycles": res.cycles,
        "instructions": res.instructions,
        "extra": dict(sorted(res.extra.items())),
        "rob_mean_occupancy": [p.mean_occupancy(p.rob)
                               for p in system.pipelines],
    }
    if name == "checkpoint":
        got["metrics"] = dict(sorted(res.metrics.items()))
    if injected:
        got["fault_events"] = _fault_events(res)
    return got


def _measure_injected(scheme: str, bench: str) -> Dict[str, Any]:
    system = get_scheme(scheme).build_system(
        load_benchmark(bench),
        injector=FaultInjector(INJECTED_SER, seed=INJECTED_SEED))
    res = system.run()
    return {
        "cycles": res.cycles,
        "instructions": res.instructions,
        "extra": dict(sorted(res.extra.items())),
        "metrics": dict(sorted(res.metrics.items())),
        "rob_mean_occupancy": [p.mean_occupancy(p.rob)
                               for p in system.pipelines],
        "fault_events": _fault_events(res),
    }


def _expected() -> Dict[str, Any]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case,scheme,bench,kwargs", _cases(),
                         ids=[c[0] for c in _cases()])
def test_fault_free_statistics_unchanged(case, scheme, bench, kwargs):
    expected = _expected()
    assert case in expected, f"{case} missing from {FIXTURE.name}"
    got = _measure(scheme, bench, kwargs)
    want = expected[case]
    assert got["cycles"] == want["cycles"]
    assert got["instructions"] == want["instructions"]
    assert got["rob_mean_occupancy"] == want["rob_mean_occupancy"]
    assert got["metrics"] == want["metrics"]


@pytest.mark.parametrize("case,name,bench,injected", _unregistered_cases(),
                         ids=[c[0] for c in _unregistered_cases()])
def test_unregistered_system_statistics_unchanged(case, name, bench,
                                                   injected):
    expected = _expected()
    assert case in expected, f"{case} missing from {FIXTURE.name}"
    assert _measure_unregistered(name, bench, injected) == expected[case]


@pytest.mark.parametrize("case,scheme,bench", _injected_cases(),
                         ids=[c[0] for c in _injected_cases()])
def test_injected_scheme_statistics_unchanged(case, scheme, bench):
    expected = _expected()
    assert case in expected, f"{case} missing from {FIXTURE.name}"
    assert _measure_injected(scheme, bench) == expected[case]


def test_fixture_covers_every_registered_scheme():
    assert set(_expected()) == {c[0] for c in _cases()} \
        | {c[0] for c in _unregistered_cases()} \
        | {c[0] for c in _injected_cases()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_stats_identity --write")
    data = {case: _measure(scheme, bench, kwargs)
            for case, scheme, bench, kwargs in _cases()}
    data.update({case: _measure_unregistered(name, bench, injected)
                 for case, name, bench, injected in _unregistered_cases()})
    data.update({case: _measure_injected(scheme, bench)
                 for case, scheme, bench in _injected_cases()})
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {FIXTURE}")
