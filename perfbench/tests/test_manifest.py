"""BENCHMARK.json is generated from the manifest and stays within its limits."""

import json
import os
import re

from perfbench import manifest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_manifest():
    with open(manifest.manifest_path(ROOT), encoding="utf-8") as handle:
        assert json.load(handle) == manifest.manifest()


def test_manifest_limits():
    doc = manifest.manifest()
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(doc["per_layer"]) <= 128 and len(doc["end_to_end"]) <= 16


def test_every_layer_has_a_self_time_metric():
    per_layer = {m.name for m in manifest.PER_LAYER}
    assert {f"{layer}.self_s" for layer in manifest.LAYERS} <= per_layer
