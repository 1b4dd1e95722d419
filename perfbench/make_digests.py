#!/usr/bin/env python3
"""Regenerate ``perfbench/digests.json`` for the default workload seed.

Run from the root of a checkout::

    python3 perfbench/make_digests.py

Only a change that is meant to move simulation results may commit new
digests. The ``campaign-differential`` digest comes from a *full-mode*
run of the same spec, so a differential run matching it also proves the
two modes byte-identical; ``serve-e2e`` digests come from direct serial
runs of each job's grid.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from pb import ops  # noqa: E402
from pb.config import DEFAULT_SEED, serve_submission  # noqa: E402
from pb.digest import digest, records_digest  # noqa: E402
from pb.serve import local_results  # noqa: E402

#: served jobs and campaign repetitions with a committed digest (a run
#: completes far fewer)
SERVE_JOBS = 128
CAMPAIGN_REPS = 8


def campaign_digest(workload: str, rep: int, tmp: str) -> str:
    from repro.campaign import ResultStore, run_campaign
    path = os.path.join(tmp, f"{workload}-{rep}.jsonl")
    run_campaign(ops.campaign_spec(workload, DEFAULT_SEED, rep), path,
                 exec_mode="full", ticker_enabled=False)
    return records_digest(ResultStore(path).iter_trials())


def main() -> int:
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        out = {
            "seed": DEFAULT_SEED,
            "paper-sweep": ops.paper_sweep()["digests"],
            "campaign-full": [campaign_digest("campaign-full", rep, tmp)
                              for rep in range(CAMPAIGN_REPS)],
            "campaign-differential": [
                campaign_digest("campaign-differential", rep, tmp)
                for rep in range(CAMPAIGN_REPS)],
            "serve-e2e": [
                digest(json.loads(json.dumps(local_results(
                    serve_submission(DEFAULT_SEED, i), tmp)["summary"])))
                for i in range(SERVE_JOBS)],
        }
    with open(os.path.join(HERE, "digests.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
