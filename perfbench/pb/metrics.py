"""The metric catalogue: every name the benchmark prints, with its unit.

``BENCHMARK.json`` lists the same names; ``tests/test_contract.py``
keeps the two in step.
"""

from __future__ import annotations

#: untraced runs print these, on every workload
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_instr_per_s", "1/s"),
    ("trials_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: layers that have spans around calls into them
SPAN_LAYERS = ("harness", "core", "unsync", "reunion", "schemes", "faults",
               "campaign", "checkpoint", "service")

#: traced runs print these, on every workload (0 where the workload does
#: not reach the layer)
PER_LAYER = (
    ("isa.golden_instr_per_s", "1/s"),
    ("core.us_per_cycle_l1_resident", "us"),
    ("core.us_per_cycle_l1_spill", "us"),
    ("unsync.us_per_cycle", "us"),
    ("reunion.us_per_cycle", "us"),
    ("reptfd.us_per_cycle", "us"),
    ("meek.us_per_cycle", "us"),
    ("sim.runs", "count"),
    ("sim.cycles", "count"),
    ("sim.instructions", "count"),
    ("faults.strikes", "count"),
    ("faults.recovered_trials", "count"),
    ("faults.sdc_trials", "count"),
    ("faults.due_trials", "count"),
    ("faults.hang_trials", "count"),
    ("campaign.trial_ms_p50", "ms"),
    ("campaign.trial_ms_tail", "ms"),
    ("campaign.engine_us_per_trial", "us"),
    ("campaign.store_append_us", "us"),
    ("campaign.store_load_ms", "ms"),
    ("campaign.prefix_build_s", "s"),
    ("campaign.served_trials", "count"),
    ("campaign.replayed_trials", "count"),
    ("campaign.served_instr", "count"),
    ("campaign.full_us_per_cycle", "us"),
    ("campaign.replay_us_per_cycle", "us"),
    ("checkpoint.capture_ms", "ms"),
    ("checkpoint.restore_ms", "ms"),
    ("checkpoint.snapshot_kb", "KB"),
    ("service.submit_ms", "ms"),
    ("service.status_ms", "ms"),
    ("service.results_ms", "ms"),
    ("service.queue_s", "s"),
    ("service.run_s", "s"),
    ("service.leases_granted", "count"),
    ("service.leases_requeued", "count"),
    ("service.leases_expired", "count"),
) + tuple((f"{layer}.self_s", "s") for layer in SPAN_LAYERS) + (
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)
