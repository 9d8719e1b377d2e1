"""The benchmark's own tests, on tiny workload sizes.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from harness import (REFERENCE_NS, HostSpeed, Recorder, block_size,
                     percentile)
from tracing import LAYERS
from workloads import WORKLOADS, make

ROOT = Path(__file__).resolve().parent.parent
NAMES = tuple(WORKLOADS)


def _inputs_hash(name: str, seed: int) -> str:
    return hashlib.sha256(
        repr(make(name, tiny=True).inputs(seed, rounds=2)).encode()
    ).hexdigest()


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_op_sequence(name):
    assert _inputs_hash(name, 7) == _inputs_hash(name, 7)


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_other_sequence_same_metric_names(name):
    assert _inputs_hash(name, 7) != _inputs_hash(name, 8)
    first = run.run_untraced(make(name, tiny=True), 7, 0.0)
    second = run.run_untraced(make(name, tiny=True), 8, 0.0)
    assert first["digest"] != second["digest"]
    assert list(first["values"]) == list(second["values"]) \
        == [metric for metric, _ in run.END_TO_END]
    for result in (first, second):
        assert result["world"].rec.failed == 0, result["world"].rec.errors


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_virtual_outcome(name):
    assert (run.run_untraced(make(name, tiny=True), 3, 0.0)["digest"]
            == run.run_untraced(make(name, tiny=True), 3, 0.0)["digest"])


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    for name, _ in end_to_end + per_layer:
        assert pattern.fullmatch(name), name


@pytest.mark.parametrize("name", NAMES)
def test_traced_split_closes_and_matches_untraced(name):
    result = run.run_traced(make(name, tiny=True), 5, 0.0)
    assert result["problems"] == []
    assert result["correct"]
    tracer = result["tracer"]
    assert tracer.closure_errors() == []
    assert sum(tracer.self_ns[:len(LAYERS)]) + tracer.unattributed_ns \
        == tracer.wall_ns
    values = result["values"]
    plain, traced = result["trace_digest"]
    assert plain == traced
    # set-ups timed before the rounds leave the measured machine untouched
    assert result["digest"] == run.run_untraced(
        make(name, tiny=True), 5, 0.0)["digest"]
    assert set(values) == {metric for metric, _ in run.per_layer_names()}


def test_scan_exercises_the_vectorised_path():
    values = run.run_traced(make("scan", tiny=True), 5, 0.0)["values"]
    assert 0.0 < values["devices.batched_page_share"] < 1.0
    assert values["sim.events_fired"] == 0


def test_percentiles_keep_ten_samples_beyond():
    ordered = list(range(1000))
    assert percentile(ordered, 50) == 499
    assert percentile(ordered, 99) == 989  # ten samples above it
    assert block_size(99) == 1000 and block_size(50) == 20


def test_host_speed_scales_each_stretch_by_its_probes():
    rec = Recorder()
    speed = HostSpeed(rec)
    # three probes, the middle one at a third of the reference speed
    speed.probes = [(0, 10, REFERENCE_NS, (0, 0, 0, 0)),
                    (110, 120, 3 * REFERENCE_NS, (2, 0, 0, 0)),
                    (220, 230, REFERENCE_NS, (3, 0, 0, 0))]
    rec.ns["read"] += [100, 200, 400]
    assert speed.phase() == (200, 100.0)
    assert speed.samples()["read"] == [50.0, 100.0, 200.0]


def test_fails_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(ROOT / "perfbench", bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
