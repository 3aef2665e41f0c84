"""BENCHMARK.json must describe exactly what the benchmark prints."""

import json
import re
from pathlib import Path

from perfbench.run import WORKLOADS
from perfbench.workloads import per_layer_names

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_per_layer_metrics_match_the_traced_output():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == per_layer_names()


def test_workloads_match_the_runner():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


def test_names_units_and_bounds_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
