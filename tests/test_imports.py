"""The runtime package imports nothing outside the standard library.

Every ``repro`` process (CLI, ``repro serve``, campaign pool workers)
pays for what ``import repro`` loads; SciPy and NumPy alone cost about
a second and 80 MB. The check runs in a fresh interpreter in which
both names are blocked, so any import of them raises.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PROBE = """
import sys
sys.modules["scipy"] = None
sys.modules["numpy"] = None
import repro
import repro.campaign
import repro.cli
import repro.harness.experiments
import repro.service.server
import repro.service.workers
from repro.harness.statistics import required_trials, wilson_interval
wilson_interval(3, 10)
required_trials(0.01)
for name in ("scipy", "numpy"):
    assert sys.modules[name] is None, name
    leaked = [m for m in sys.modules if m.startswith(name + ".")]
    assert not leaked, leaked
print("ok")
"""


def test_runtime_imports_without_scipy_or_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
