"""Metric names, units and BENCHMARK.json agree with the code."""

import json
import re

from bench.common import END_TO_END, PER_LAYER, ROOT, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_every_metric_has_a_valid_name_and_unit():
    assert not set(END_TO_END) & set(PER_LAYER)
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)


def test_benchmark_json_lists_the_same_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
