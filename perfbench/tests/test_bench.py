"""A whole benchmark run on tiny inputs reports every metric and checks outputs."""

import os
import shutil
import subprocess
import sys

from perfbench import manifest
from perfbench.manifest import Workload
from perfbench.workloads import Bench

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY = Workload(
    name="tiny",
    why="test",
    kinds=("normal-steady",),
    stacks=("gm",),
    n=3,
    throughputs=(200.0,),
    messages=200,
    points=2,
)
TINY_CAMPAIGN = Workload(
    name="campaign",
    why="test",
    kinds=("normal-steady", "suspicion-steady"),
    stacks=("fd", "gm"),
    n=3,
    throughputs=(200.0,),
    messages=60,
    points=1,
)
SIMULATED = {m.name for m in manifest.END_TO_END} - {"setup_s", "peak_rss_mib"}


def test_timed_simulation_run(tmp_path):
    outcome = Bench(TINY, 1, 0.2, str(tmp_path)).timed()
    assert outcome.correct, outcome.problems
    assert set(outcome.metrics) == SIMULATED
    assert all(value > 0 for value in outcome.metrics.values())
    assert outcome.attempted >= 400 and outcome.failed == 0


def test_timed_campaign_matches_its_serial_reference(tmp_path):
    outcome = Bench(TINY_CAMPAIGN, 1, 0.2, str(tmp_path)).timed()
    assert outcome.correct, outcome.problems
    assert set(outcome.metrics) == SIMULATED
    again = Bench(TINY_CAMPAIGN, 1, 0.2, str(tmp_path)).timed()
    assert again.digest == outcome.digest


def test_traced_run_reports_every_layer_metric(tmp_path):
    outcome = Bench(TINY_CAMPAIGN, 1, 0.2, str(tmp_path)).traced()
    assert outcome.correct, outcome.problems
    assert set(outcome.metrics) == {m.name for m in manifest.PER_LAYER}
    assert outcome.metrics["trace.overhead_ratio"] > 0
    assert outcome.metrics["consensus.instances"] > 0
    assert outcome.details["top_functions"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady-gm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
