"""One repetition of a workload in a fresh process.

Spawned by ``perfbench/run.py`` as::

    python3 perfbench/pb/child.py '<json request>'

The request names the checkout ``root``, the ``kind`` (``setup``,
``op`` or ``probes``), the ``workload``, ``seed``, repetition ``rep``,
``trace`` flag, ``spot`` (trials to re-check in full mode) and a
scratch ``tmp`` directory. The child prints one JSON object on its
last stdout line; ``ready`` is the :func:`time.perf_counter` reading
(system-wide monotonic clock) when imports and workload assembly were
done, so the parent can time set-up from its own spawn stamp.
"""

from __future__ import annotations

import json
import os
import sys


def _bootstrap(root: str) -> None:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {src}")


def main() -> int:
    import time
    request = json.loads(sys.argv[1])
    _bootstrap(request["root"])

    from pb import ops
    from pb.tracing import Tracer

    kind, workload = request["kind"], request["workload"]
    seed, tmp = request["seed"], request["tmp"]
    if kind == "probes":
        print(json.dumps(ops.probes(tmp)))
        return 0
    if workload == "paper-sweep":
        ops.paper_sweep_setup()
    else:
        spec = ops.campaign_setup(workload, seed, request.get("rep", 0))
    out = {"ready": time.perf_counter()}
    if kind == "op":
        tracer = Tracer(f"{workload}:{seed}:{os.getpid()}") \
            if request["trace"] else None
        if workload == "paper-sweep":
            out.update(ops.paper_sweep(tracer))
        else:
            store = os.path.join(tmp, f"store-{os.getpid()}.jsonl")
            out.update(ops.campaign(workload, spec, store,
                                    request.get("spot", 0), tracer))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
