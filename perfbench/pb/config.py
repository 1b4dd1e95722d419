"""Workload parameters, shared by ``run.py`` (which never imports the
simulator) and the child processes that run it."""

from __future__ import annotations

from typing import Dict

WORKLOADS = ("paper-sweep", "campaign-full", "campaign-differential",
             "serve-e2e")

#: the workload seed the committed digests were made with
DEFAULT_SEED = 1

#: the four protected schemes (RepTFD, arXiv:1206.2132; MEEK,
#: arXiv:2504.01347)
SCHEMES = ("unsync", "reunion", "reptfd", "meek")
#: bzip2 (24 KB working set) fits the 32 KB L1; mcf (96 KB) spills it
CAMPAIGN_KERNELS = ("bzip2", "mcf")
FULL_SER = 5e-4
FULL_TRIALS = 4
#: paper-scale rate (nearly every trial served from the prefix verdict)
#: and a rate where about half the trials restore an epoch and replay
DIFF_SERS = (1e-6, 2e-4)
DIFF_TRIALS = 4
#: fault-free runs of these kernels take 3.0k-4.7k cycles; a livelocked
#: recovery otherwise runs to the 4M-cycle default budget (12-26 s)
WATCHDOG_CYCLES = 20_000
#: typical fault-free run length of the campaign kernels, in cycles; the
#: horizon over which campaign-full's strike count is held fixed
HORIZON_CYCLES = 3500
#: no fault-free cell run ends before EARLY_CYCLES, and all have ended by
#: LATE_CYCLES; campaign-differential's struck trials are struck before
#: the first, its served ones not before the second
EARLY_CYCLES = 3000
LATE_CYCLES = 5000
#: the differential prefix cache's snapshot interval
#: (``repro.campaign.snapshot.DEFAULT_INTERVAL``)
EPOCH_CYCLES = 1024
#: Fig 4's list gains two kernels whose working sets exceed the L1
FIG4_EXTRA = ("mcf", "art")

SERVE_KERNEL = "fibonacci"
SERVE_SER = 0.01
SERVE_TRIALS = 4


def campaign_trials(workload: str) -> int:
    """Trials one repetition of a campaign workload runs."""
    if workload == "campaign-full":
        return len(SCHEMES) * len(CAMPAIGN_KERNELS) * FULL_TRIALS
    return len(SCHEMES) * len(CAMPAIGN_KERNELS) * len(DIFF_SERS) \
        * DIFF_TRIALS


def serve_submission(seed: int, index: int) -> Dict:
    """Job ``index`` of a served session: one scheme, a tiny kernel, a
    few trials, and seeds no other job of the session uses."""
    return {"schemes": [SCHEMES[index % len(SCHEMES)]],
            "workloads": [SERVE_KERNEL], "sers": [SERVE_SER],
            "trials": SERVE_TRIALS,
            "seed_base": seed * 100_000 + index * SERVE_TRIALS,
            "watchdog_cycles": WATCHDOG_CYCLES}
