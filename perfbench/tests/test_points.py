"""Benchmark inputs: seeded points, and in-process runs equal to the runner's."""

import pytest

from perfbench.manifest import WORKLOADS
from perfbench.points import build_campaign, point_seeds, run_point
from repro.campaigns.runner import execute_point
from repro.campaigns.spec import PointSpec


def test_points_are_a_function_of_the_seed():
    workload = WORKLOADS["campaign"]
    keys = [point.key() for point in build_campaign(workload, 7).points()]
    assert keys == [point.key() for point in build_campaign(workload, 7).points()]
    assert keys != [point.key() for point in build_campaign(workload, 8).points()]
    expected = len(workload.kinds) * len(workload.stacks) * len(workload.throughputs)
    assert len(keys) == len(set(keys)) == expected * workload.points
    assert len(set(point_seeds(workload, 7))) == workload.points


@pytest.mark.parametrize(
    "point",
    [
        PointSpec(kind="normal-steady", stack="gm", n=3, seed=11, throughput=200.0, num_messages=15),
        PointSpec(
            kind="suspicion-steady",
            stack="fd",
            n=3,
            seed=12,
            throughput=100.0,
            num_messages=15,
            mistake_recurrence_time=200.0,
            mistake_duration=5.0,
        ),
    ],
)
def test_in_process_run_matches_the_campaign_runner(point):
    run = run_point(point)
    assert run.problems == []
    assert run.key == point.key()
    assert run.record == execute_point(point)
    assert run.delivered == point.num_messages


def test_instrumented_run_counts_without_changing_outputs():
    point = PointSpec(
        kind="suspicion-steady",
        stack="gm",
        n=3,
        seed=3,
        throughput=100.0,
        num_messages=15,
        mistake_recurrence_time=100.0,
        mistake_duration=5.0,
    )
    plain = run_point(point)
    counted = run_point(point, instrument=True)
    assert counted.key == plain.key
    assert {k: v for k, v in counted.record.items() if k != "metrics"} == plain.record
    assert counted.counters["fd.suspicions"] > 0
    assert counted.consensus_instances > 0
