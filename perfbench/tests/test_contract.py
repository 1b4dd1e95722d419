"""BENCHMARK.json and the benchmark's own catalogue stay in step."""

import json
import os
import re

from pb.config import WORKLOADS
from pb.metrics import END_TO_END, PER_LAYER

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_workloads_match():
    doc = load()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metrics_match_the_catalogue():
    doc = load()
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] \
        == list(PER_LAYER)


def test_shapes_and_limits():
    doc = load()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("higher", "lower")
        assert UNIT.match(m["unit"])
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert isinstance(doc["run_seconds"], int) \
        and 1 <= doc["run_seconds"] <= 60
