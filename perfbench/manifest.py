"""What the benchmark measures: workloads, metrics, units and bounds.

This module is the single definition; ``BENCHMARK.json`` at the repository
root is generated from it (``python3 perfbench/run.py --write-manifest``) and
a test keeps the two equal.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

#: Seconds one run measures (``--seconds`` default and ``run_seconds``).
RUN_SECONDS = 20

#: Campaign worker processes (the target box has ``nproc`` = 2).
CAMPAIGN_JOBS = 2


@dataclass(frozen=True)
class Workload:
    """One named input set.

    A simulation workload is a batch of ``points`` independent runs of one
    scenario (each with its own seed drawn from the benchmark seed) and
    ``messages`` measured A-broadcasts per run.  The campaign workload is a
    grid over ``kinds`` x ``stacks`` x ``throughputs`` x ``points`` seeds.
    """

    name: str
    why: str
    kinds: Tuple[str, ...]
    stacks: Tuple[str, ...]
    n: int
    throughputs: Tuple[float, ...]
    messages: int
    points: int
    mistake_recurrence_time: float = 1000.0
    mistake_duration: float = 5.0

    @property
    def is_campaign(self) -> bool:
        return self.name == "campaign"

    def params(self) -> Dict[str, Any]:
        """The workload parameters, as stamped into every result."""
        params = {
            "kinds": list(self.kinds),
            "stacks": list(self.stacks),
            "n": self.n,
            "throughputs": list(self.throughputs),
            "messages_per_point": self.messages,
            "points": self.points,
        }
        if "suspicion-steady" in self.kinds:
            params["mistake_recurrence_time_ms"] = self.mistake_recurrence_time
            params["mistake_duration_ms"] = self.mistake_duration
        if self.is_campaign:
            params["jobs"] = CAMPAIGN_JOBS
        return params


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady-gm",
            why="gm normal-steady n=15 at 300 msg/s, near saturation: sequencer-bound, "
            "no suspicions, so every failure-detector change is bypassed",
            kinds=("normal-steady",),
            stacks=("gm",),
            n=15,
            throughputs=(300.0,),
            messages=1000,
            points=22,
        ),
        Workload(
            name="suspicion-fd",
            why="fd suspicion-steady n=31 at 20 msg/s, T_MR=1000 ms, T_M=5 ms: kernel, "
            "network, fd and consensus share the cost; sequencer and membership idle",
            kinds=("suspicion-steady",),
            stacks=("fd",),
            n=31,
            throughputs=(20.0,),
            messages=100,
            points=24,
        ),
        Workload(
            name="suspicion-gm",
            why="the suspicion-fd inputs on the gm stack: the view-change, exclusion "
            "and rejoin path of group membership does most of the work",
            kinds=("suspicion-steady",),
            stacks=("gm",),
            n=31,
            throughputs=(20.0,),
            messages=100,
            points=10,
        ),
        Workload(
            name="campaign",
            why="many tiny n=3 points of both stacks through CampaignRunner(jobs=2): "
            "the dispatch, store write, cache read and aggregation query paths",
            kinds=("normal-steady", "suspicion-steady"),
            stacks=("fd", "gm"),
            n=3,
            throughputs=(100.0, 200.0, 400.0, 600.0),
            messages=20,
            points=16,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0


#: Reported with ``--trace 0``.  Bounds are shares of the parent's median.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("abcast_per_s", "1/s", "higher", 0.25),
    Metric("points_per_s", "1/s", "higher", 0.25),
    Metric("sim_latency_ms_p50", "ms", "lower", 0.2),
    Metric("sim_latency_ms_p95", "ms", "lower", 0.2),
    Metric("peak_rss_mib", "MiB", "lower", 0.1),
    Metric("cached_points_per_s", "1/s", "higher", 0.25),
    Metric("query_s", "s", "lower", 0.25),
]

#: Source layers, named after this repository's modules (see layers.py).
LAYERS: Tuple[str, ...] = (
    "kernel",
    "network",
    "fd",
    "rb",
    "consensus",
    "abcast_fd",
    "sequencer",
    "membership",
    "scenarios",
    "dispatch",
    "store",
    "aggregate",
)

#: Reported with ``--trace 1``, from the traced run.
PER_LAYER: List[Metric] = (
    [Metric(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        Metric("unattributed.self_s", "s", "lower"),
        Metric("trace.overhead_ratio", "ratio", "lower"),
        Metric("kernel.events_per_abcast", "count", "lower"),
        Metric("network.messages_per_abcast", "count", "lower"),
        Metric("network.deliveries_per_abcast", "count", "lower"),
        Metric("fd.transitions", "count", "lower"),
        Metric("consensus.instances", "count", "lower"),
        Metric("consensus.rounds_per_instance", "count", "lower"),
        Metric("membership.view_changes", "count", "lower"),
        Metric("dispatch.overhead_s", "s", "lower"),
        Metric("store.put_s", "s", "lower"),
        Metric("store.load_s", "s", "lower"),
        Metric("aggregate.load_table_s", "s", "lower"),
        Metric("aggregate.query_s", "s", "lower"),
    ]
)


def manifest() -> Dict[str, Any]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


def manifest_path(root: str) -> str:
    return os.path.join(root, "BENCHMARK.json")
