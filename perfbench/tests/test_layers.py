"""Module-to-layer attribution of profiler self time."""

import cProfile
import pstats

import pytest

from perfbench.layers import UNATTRIBUTED, layer_of, self_time_by_layer
from perfbench.manifest import LAYERS
from perfbench.points import run_point
from repro.campaigns.spec import PointSpec

SRC = "/checkout/src/repro/"


@pytest.mark.parametrize(
    "path, layer",
    [
        ("sim/engine.py", "kernel"),
        ("sim/resources.py", "network"),
        ("sim/messages.py", "network"),
        ("failure_detectors/qos.py", "fd"),
        ("core/reliable_broadcast.py", "rb"),
        ("core/consensus.py", "consensus"),
        ("core/fd_broadcast.py", "abcast_fd"),
        ("core/sequencer_broadcast.py", "sequencer"),
        ("core/group_membership.py", "membership"),
        ("workload/generator.py", "scenarios"),
        ("metrics/latency.py", "scenarios"),
        ("scenarios/runner.py", "scenarios"),
        ("campaigns/pool.py", "dispatch"),
        ("campaigns/columnar.py", "store"),
        ("campaigns/aggregate.py", "aggregate"),
        ("system.py", UNATTRIBUTED),
        ("core/types.py", UNATTRIBUTED),
        ("load/batching.py", UNATTRIBUTED),
    ],
)
def test_repository_modules_map_to_layers(path, layer):
    assert layer_of(SRC + path) == layer


def test_benchmark_and_library_files():
    assert layer_of("/checkout/perfbench/workloads.py") == UNATTRIBUTED
    assert layer_of("/usr/lib/python3.11/random.py") is None
    assert layer_of("~") is None


def test_library_time_is_charged_to_calling_layers():
    engine = (SRC + "sim/engine.py", 10, "run")
    consensus = (SRC + "core/consensus.py", 20, "propose")
    generator = (SRC + "workload/generator.py", 30, "schedule")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    expovariate = ("/usr/lib/python3.11/random.py", 40, "expovariate")
    log = ("~", 0, "<built-in method math.log>")
    bench = ("/checkout/perfbench/run.py", 1, "main")
    stats = {
        engine: (1, 1, 1.0, 3.0, {}),
        consensus: (1, 1, 0.5, 1.0, {}),
        generator: (1, 1, 0.1, 0.5, {}),
        heappush: (3, 3, 0.6, 0.6, {engine: (2, 2, 0.4, 0.4), consensus: (1, 1, 0.2, 0.2)}),
        expovariate: (1, 1, 0.3, 0.4, {generator: (1, 1, 0.3, 0.4)}),
        log: (1, 1, 0.1, 0.1, {expovariate: (1, 1, 0.1, 0.1)}),
        bench: (1, 1, 0.05, 5.0, {}),
    }
    totals = self_time_by_layer(stats)
    assert set(totals) == set(LAYERS) | {UNATTRIBUTED}
    assert totals["kernel"] == pytest.approx(1.4)
    assert totals["consensus"] == pytest.approx(0.7)
    assert totals["scenarios"] == pytest.approx(0.5)
    assert totals[UNATTRIBUTED] == pytest.approx(0.05)
    assert sum(totals.values()) == pytest.approx(sum(entry[2] for entry in stats.values()))


def test_profiled_fd_run_spends_nothing_in_gm_layers():
    point = PointSpec(kind="normal-steady", stack="fd", n=3, seed=5, throughput=100.0, num_messages=20)
    profile = cProfile.Profile()
    profile.enable()
    run = run_point(point)
    profile.disable()
    assert run.problems == []
    totals = self_time_by_layer(pstats.Stats(profile).stats)
    assert totals["sequencer"] == 0.0
    assert totals["membership"] == 0.0
    for layer in ("kernel", "network", "consensus", "abcast_fd"):
        assert totals[layer] > 0.0
