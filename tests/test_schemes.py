"""Tests for the pluggable resilience-scheme registry and the two new
backends it hosts: RepTFD (delayed-replay comparison) and MEEK (cheap
in-order checker core).

The load-bearing guarantee of the registry port is that it changed
*nothing* for the existing schemes: the golden-fixture tests pin the
fixed-seed campaign JSONL of UnSync/Reunion byte-for-byte against stores
captured before `repro.schemes` existed.
"""

import hashlib
import os

import pytest

import repro.schemes as schemes
from repro.campaign import (
    CampaignError, CampaignSpec, run_campaign,
)
from repro.faults.events import Outcome
from repro.faults.injector import Strike
from repro.harness.runner import run_scheme
from repro.isa import assemble
from repro.schemes import (
    ResilienceScheme, UnknownSchemeError, available, get, protected_schemes,
    register, unregister,
)
from repro.schemes.meek import MEEKParams, MEEKSystem
from repro.schemes.reptfd import RepTFDParams, RepTFDSystem
from tests.conftest import ScriptedInjector

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

LOOP = """
main:
    li r1, 400
    li r2, 0
    la r6, buf
loop:
    add r2, r2, r1
    mul r3, r1, r1
    sw r3, 0(r6)
    lw r4, 0(r6)
    add r2, r2, r4
    addi r1, r1, -1
    bne r1, r0, loop
    la r5, result
    sw r2, 0(r5)
    halt
.data
result: .word 0
buf: .space 64
"""


@pytest.fixture(scope="module")
def loop():
    return assemble(LOOP, name="schemes_loop")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_available_order_and_protection():
    # registration order is the canonical presentation order: the two
    # ported schemes first (the historical PROTECTED_SCHEMES prefix),
    # then the new backends, then the unprotected baseline
    assert available() == ("unsync", "reunion", "reptfd", "meek", "baseline")
    assert protected_schemes() == ("unsync", "reunion", "reptfd", "meek")
    assert not get("baseline").protected


def test_get_unknown_is_a_valueerror_listing_choices():
    with pytest.raises(UnknownSchemeError) as exc:
        get("tmr")
    assert isinstance(exc.value, ValueError)
    msg = str(exc.value)
    assert "tmr" in msg
    for name in available():
        assert name in msg


def test_register_roundtrip_and_live_protected_view():
    class Dummy(ResilienceScheme):
        name = "dummy"
        protected = True
        description = "test-only"

        def build_system(self, program, config=None, **kwargs):
            raise NotImplementedError

    try:
        register(Dummy())
        assert "dummy" in available()
        assert isinstance(get("dummy"), Dummy)
        # the campaign layer sees new registrations immediately — both
        # module attributes are PEP 562 live views, not snapshots
        from repro.campaign import spec as spec_mod
        assert "dummy" in spec_mod.PROTECTED_SCHEMES
        import repro.campaign as campaign_mod
        assert "dummy" in campaign_mod.PROTECTED_SCHEMES
        CampaignSpec(schemes=("dummy",), workloads=("fibonacci",),
                     sers=(0.001,), trials=1)
    finally:
        unregister("dummy")
    assert "dummy" not in available()
    with pytest.raises(CampaignError):
        CampaignSpec(schemes=("dummy",), workloads=("fibonacci",),
                     sers=(0.001,), trials=1)


def test_reregistering_a_name_wins_and_keeps_position():
    original = get("unsync")

    class Impostor(ResilienceScheme):
        name = "unsync"
        description = "test-only override"

        def build_system(self, program, config=None, **kwargs):
            raise NotImplementedError

    try:
        register(Impostor())
        assert isinstance(get("unsync"), Impostor)
        assert available()[0] == "unsync"
    finally:
        register(original)
    assert get("unsync") is original


def test_recovery_cycles_default_matches_legacy_sum():
    # the exact arithmetic run_trial used before the port — byte-identity
    # of old stores depends on it
    scheme = get("unsync")
    assert scheme.recovery_cycles(
        {"recovery_cycles": 5, "rollback_cycles": 7, "other": 99}) == 12
    assert scheme.recovery_cycles({}) == 0


def test_campaign_spec_accepts_all_protected_schemes():
    spec = CampaignSpec(schemes=protected_schemes(),
                        workloads=("fibonacci",), sers=(0.001,), trials=1)
    assert spec.schemes == protected_schemes()
    with pytest.raises(CampaignError):
        CampaignSpec(schemes=("baseline",), workloads=("fibonacci",),
                     sers=(0.001,), trials=1)


def test_run_scheme_resolves_through_registry(loop):
    for name in ("reptfd", "meek"):
        res = run_scheme(name, loop)
        assert res.scheme == name
        assert res.instructions > 0
    with pytest.raises(ValueError):
        run_scheme("no-such-scheme", loop)


# ---------------------------------------------------------------------------
# golden byte-identity: the port changed nothing for UnSync/Reunion
# ---------------------------------------------------------------------------
GOLDEN = [
    ("golden_unsync_reunion_standard.jsonl",
     dict(schemes=("unsync", "reunion"), workloads=("fibonacci", "checksum"),
          sers=(0.002,), trials=6, batch=3)),
    ("golden_unsync_reunion_adversarial.jsonl",
     dict(schemes=("unsync", "reunion"), workloads=("fibonacci", "checksum"),
          sers=(0.003,), trials=6, batch=3, fault_model="adversarial",
          watchdog_cycles=2_000_000)),
]


@pytest.mark.parametrize("fixture,spec_kwargs",
                         GOLDEN, ids=["standard", "adversarial"])
def test_fixed_seed_store_matches_pre_refactor_fixture(tmp_path, fixture,
                                                       spec_kwargs):
    spec = CampaignSpec(**spec_kwargs)
    store = tmp_path / fixture
    run_campaign(spec, store, workers=1, ticker_enabled=False)
    got = store.read_bytes()
    want = open(os.path.join(DATA_DIR, fixture), "rb").read()
    assert hashlib.sha256(got).hexdigest() == \
        hashlib.sha256(want).hexdigest(), \
        f"campaign JSONL diverged from the pre-refactor fixture {fixture}"


# ---------------------------------------------------------------------------
# per-scheme campaign determinism (the new backends)
# ---------------------------------------------------------------------------
def test_new_schemes_serial_equals_parallel(tmp_path):
    spec = CampaignSpec(schemes=("reptfd", "meek"), workloads=("fibonacci",),
                        sers=(0.002,), trials=8, batch=4)
    serial = run_campaign(spec, tmp_path / "serial.jsonl", workers=1,
                          ticker_enabled=False)
    pooled = run_campaign(spec, tmp_path / "pooled.jsonl", workers=2,
                          ticker_enabled=False)
    assert serial.stats_dict() == pooled.stats_dict()


def test_adversarial_campaign_covers_new_schemes(tmp_path):
    spec = CampaignSpec(schemes=("reptfd", "meek"), workloads=("fibonacci",),
                        sers=(0.003,), trials=6, batch=3,
                        fault_model="adversarial",
                        watchdog_cycles=2_000_000)
    summary = run_campaign(spec, tmp_path / "adv.jsonl", workers=1,
                           ticker_enabled=False)
    assert summary.totals["trials"] == 12
    assert set(summary.hwcost) == {"reptfd", "meek"}


def test_adversarial_injector_uses_scheme_uncore_blocks():
    from repro.faults.adversarial import adversarial_injector
    names = {"reptfd": "replay_queue", "meek": "check_queue"}
    for scheme, block in names.items():
        inj = adversarial_injector(scheme, 0.01, seed=3)
        assert block in {b.name for b in inj.inventory}
    # unknown schemes get the bare core inventory, not an error
    inj = adversarial_injector("not-registered", 0.01, seed=3)
    assert "replay_queue" not in {b.name for b in inj.inventory}


# ---------------------------------------------------------------------------
# RepTFD directed tests
# ---------------------------------------------------------------------------
def test_reptfd_detects_with_latency_at_least_replay_lag(loop):
    params = RepTFDParams(replay_lag=32)
    system = RepTFDSystem(loop, params=params, injector=ScriptedInjector(
        [Strike(cycle=60, block="regfile", bit=4, core=0)]))
    res = system.run()
    [event] = res.fault_events
    assert event.outcome is Outcome.DETECTED_RECOVERED
    # the trailer cannot compare the struck instruction before the
    # leader's record has aged the full replay lag
    assert event.detection_latency >= params.replay_lag
    assert system.rollbacks == 1
    assert res.extra["rollback_cycles"] >= params.rollback_penalty


def test_reptfd_detection_latency_scales_with_replay_lag(loop):
    def latency(lag):
        system = RepTFDSystem(
            loop, params=RepTFDParams(replay_lag=lag),
            injector=ScriptedInjector(
                [Strike(cycle=60, block="regfile", bit=4, core=0)]))
        res = system.run()
        return res.fault_events[0].detection_latency

    assert latency(96) > latency(16)


def test_reptfd_full_value_compare_has_no_multibit_blind_spot(loop):
    # an even-sized cluster defeats parity; RepTFD's full-value compare
    # detects it exactly like a single flip
    system = RepTFDSystem(loop, injector=ScriptedInjector(
        [Strike(cycle=60, block="regfile", bit=4, flipped_bits=2, core=0)]))
    res = system.run()
    [event] = res.fault_events
    assert event.outcome is Outcome.DETECTED_RECOVERED


def test_reptfd_queue_backpressure_stalls_leader(loop):
    params = RepTFDParams(replay_lag=48, queue_entries=4)
    system = RepTFDSystem(loop, params=params)
    res = system.run()
    assert system.queue_full_stalls > 0
    assert res.extra["replay_queue_full_stalls"] > 0
    assert system.queue_max_occupancy <= params.queue_entries
    # backpressure costs cycles but not correctness
    roomy = RepTFDSystem(loop, params=RepTFDParams(replay_lag=48)).run()
    assert res.instructions == roomy.instructions
    assert res.cycles > roomy.cycles


def test_reptfd_fault_free_matches_baseline_architecturally(loop):
    res = run_scheme("reptfd", loop)
    base = run_scheme("baseline", loop)
    assert res.instructions == base.instructions
    # every retirement (including the halt) flows through the compare
    assert res.extra["replay_compares"] >= base.instructions
    assert res.metrics["reptfd.replay.divergences"] == 0


def test_reptfd_retry_budget_exhaustion_is_due(loop):
    # first strike triggers a rollback; two more land inside the window
    # and burn the retry budget; the fourth degrades to DUE
    params = RepTFDParams(replay_lag=16, rollback_penalty=200,
                          rollback_retry_budget=2)
    first = Strike(cycle=60, block="regfile", bit=4, core=0)
    chasers = [Strike(cycle=60 + 40 * (i + 1), block="rob", bit=2, core=1)
               for i in range(3)]
    system = RepTFDSystem(loop, params=params,
                          injector=ScriptedInjector([first] + chasers))
    res = system.run()
    outcomes = [e.outcome for e in res.fault_events]
    assert outcomes.count(Outcome.DETECTED_UNRECOVERABLE) == 1
    assert system.due_count == 1


# ---------------------------------------------------------------------------
# MEEK directed tests
# ---------------------------------------------------------------------------
def test_meek_check_queue_backpressure(loop):
    # a throttled checker (1/cycle, long maturity, tiny queue) cannot keep
    # up with the 4-wide leader: commit must stall on the full queue
    params = MEEKParams(queue_entries=4, check_width=1, check_latency=12)
    system = MEEKSystem(loop, params=params)
    res = system.run()
    assert system.checkq_full_stalls > 0
    assert res.extra["checkq_full_stalls"] > 0
    assert system.checkq_max_occupancy <= params.queue_entries
    roomy = MEEKSystem(loop).run()
    assert res.instructions == roomy.instructions
    assert res.cycles > roomy.cycles


def test_meek_fault_free_overhead_is_small(loop):
    base = run_scheme("baseline", loop)
    res = run_scheme("meek", loop)
    assert res.instructions == base.instructions
    # every retirement (including the halt) flows through the checker
    assert res.extra["checks"] >= base.instructions
    # the sized-to-width checker keeps steady-state slowdown modest
    assert res.cycles <= base.cycles * 1.25


def test_meek_covered_strike_detected_with_check_latency(loop):
    params = MEEKParams(check_latency=8)
    system = MEEKSystem(loop, params=params, injector=ScriptedInjector(
        [Strike(cycle=60, block="regfile", bit=4, core=0)]))
    res = system.run()
    [event] = res.fault_events
    assert event.outcome is Outcome.DETECTED_RECOVERED
    assert event.detection_latency >= params.check_latency
    assert system.rechecks == 1


def test_meek_uncovered_blocks_are_sdc(loop):
    # forwarded load values are never re-verified: L1/TLB corruption is
    # the scheme's designed coverage hole
    for block in ("l1d_data", "itlb"):
        system = MEEKSystem(loop, injector=ScriptedInjector(
            [Strike(cycle=60, block=block, bit=4, core=0)]))
        res = system.run()
        [event] = res.fault_events
        assert event.outcome is Outcome.SDC, block


def test_meek_empty_check_queue_strike_is_masked(loop):
    # cycle 0: nothing has committed yet, the queue holds no record
    system = MEEKSystem(loop, injector=ScriptedInjector(
        [Strike(cycle=0, block="check_queue", bit=0, core=0)]))
    res = system.run()
    [event] = res.fault_events
    assert event.outcome is Outcome.MASKED


# ---------------------------------------------------------------------------
# hwcost + CLI integration
# ---------------------------------------------------------------------------
def test_hwcost_entries_reflect_scheme_structure():
    from repro.hwcost.redundancy_cost import (
        meek_pair_cost, reptfd_pair_cost, unprotected_cost, unsync_pair_cost,
    )
    base = unprotected_cost()
    reptfd = reptfd_pair_cost()
    meek = meek_pair_cost()
    # RepTFD pays two full cores plus a FIFO — a bit over 2x
    assert reptfd.total_area_um2 > 2 * base.total_area_um2
    # MEEK's fractional checker is the sub-2x replication point
    assert base.total_area_um2 < meek.total_area_um2 \
        < 2 * base.total_area_um2
    assert meek.total_area_um2 < unsync_pair_cost().total_area_um2


def test_registry_system_cost_matches_hwcost_library():
    from repro.hwcost.redundancy_cost import meek_pair_cost
    cost = get("meek").system_cost()
    assert cost.scheme == "meek"
    assert cost.total_area_um2 == meek_pair_cost().total_area_um2
    assert get("baseline").system_cost().n_cores == 1


def test_campaign_summary_hwcost_section(tmp_path):
    spec = CampaignSpec(schemes=("unsync", "meek"), workloads=("fibonacci",),
                        sers=(0.002,), trials=2, batch=2)
    summary = run_campaign(spec, tmp_path / "c.jsonl", workers=1,
                           ticker_enabled=False)
    assert list(summary.hwcost) == ["unsync", "meek"]
    for entry in summary.hwcost.values():
        assert entry["n_cores"] == 2
        assert entry["area_overhead"] > 0
    assert summary.hwcost["meek"]["area_overhead"] \
        < summary.hwcost["unsync"]["area_overhead"]
    # the section is part of the deterministic stats, reproduced by a
    # summarize-only pass
    from repro.campaign import summarize_store
    assert summarize_store(tmp_path / "c.jsonl").stats_dict() \
        == summary.stats_dict()


def test_cli_choices_come_from_registry():
    from repro.cli import build_parser
    parser = build_parser()
    args = parser.parse_args(["run", "fibonacci", "--scheme", "reptfd"])
    assert args.scheme == "reptfd"
    args = parser.parse_args(
        ["campaign", "run", "--store", "x.jsonl", "--workloads", "fibonacci",
         "--schemes", "unsync", "reunion", "reptfd", "meek"])
    assert args.schemes == ["unsync", "reunion", "reptfd", "meek"]
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "fibonacci", "--scheme", "tmr"])
    with pytest.raises(SystemExit):
        parser.parse_args(
            ["campaign", "run", "--store", "x.jsonl", "--workloads", "f",
             "--schemes", "baseline"])
