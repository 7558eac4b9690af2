"""Benchmark inputs as campaign points, and the oracle-checked in-process run.

Every workload is a list of :class:`repro.campaigns.spec.PointSpec` drawn
from the benchmark seed, so the simulation workloads and the campaign
workload share one input format and one cache-key scheme.  :func:`run_point`
simulates a point exactly as ``repro.campaigns.runner.execute_point`` does
(a test pins the records equal) but keeps the system, so the run's delivery
sequences can be checked.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from repro.campaigns.records import result_to_record
from repro.campaigns.spec import CampaignSpec, PointSpec, SeriesPointSpec, SeriesSpec, grid
from repro.failure_detectors.qos import QoSConfig
from repro.scenarios.runner import ScenarioRunner, SteadyStateSpec
from repro.system import build_system

from perfbench.manifest import Workload
from perfbench.oracle import check_record, check_run, failed_messages


def point_seeds(workload: Workload, seed: int) -> List[int]:
    """``workload.points`` distinct simulation seeds derived from ``seed``."""
    rng = random.Random(f"perfbench/{workload.name}/{seed}")
    seeds: List[int] = []
    while len(seeds) < workload.points:
        candidate = rng.randrange(1, 2**31)
        if candidate not in seeds:
            seeds.append(candidate)
    return seeds


def build_campaign(workload: Workload, seed: int) -> CampaignSpec:
    """The workload's points, as one campaign (declaration order is stable)."""
    campaign = CampaignSpec(name=f"perfbench-{workload.name}")
    for kind in workload.kinds:
        campaign.series.extend(
            grid(
                kind,
                stacks=workload.stacks,
                n_values=(workload.n,),
                throughputs=workload.throughputs,
                seeds=point_seeds(workload, seed),
                num_messages=workload.messages,
                mistake_recurrence_time=workload.mistake_recurrence_time,
                mistake_duration=workload.mistake_duration,
            ).series
        )
    return campaign


def campaign_of(name: str, points: List[PointSpec]) -> CampaignSpec:
    """A campaign of exactly ``points`` (a subset of a workload's)."""
    return CampaignSpec(
        name=name, series=[SeriesSpec(label=name, points=[SeriesPointSpec(x=0.0, points=points)])]
    )


def steady_spec(point: PointSpec) -> SteadyStateSpec:
    """The scenario spec ``execute_point`` runs for a steady-state point."""
    config = point.config()
    if point.kind == "normal-steady":
        return SteadyStateSpec(
            scenario="normal-steady",
            config=replace(config, fd=QoSConfig()),
            throughput=point.throughput,
            num_messages=point.num_messages,
        )
    if point.kind == "suspicion-steady":
        fd = QoSConfig(
            detection_time=0.0,
            mistake_recurrence_time=point.mistake_recurrence_time,
            mistake_duration=point.mistake_duration,
        )
        return SteadyStateSpec(
            scenario="suspicion-steady",
            config=replace(config, fd=fd),
            throughput=point.throughput,
            num_messages=point.num_messages,
            params={
                "mistake_recurrence_time": point.mistake_recurrence_time,
                "mistake_duration": point.mistake_duration,
            },
        )
    raise ValueError(f"the benchmark runs steady-state kinds only, not {point.kind!r}")


@dataclass
class PointRun:
    """One simulated point: its record, its check result and its host cost."""

    key: str
    record: Dict[str, Any]
    problems: List[str]
    #: CPU seconds of the simulating thread (see :func:`run_point`).
    cpu_s: float
    events: int
    messages_sent: int
    deliveries: int
    #: Instrumentation counters (instrumented runs only).
    counters: Optional[Dict[str, int]] = None
    #: Distinct consensus instances decided (instrumented runs only).
    consensus_instances: int = 0

    @property
    def delivered(self) -> int:
        """Measured A-broadcasts delivered."""
        return len(self.record["latencies"])

    @property
    def failed(self) -> int:
        return failed_messages(self.record, self.problems)


def run_point(point: PointSpec, instrument: bool = False) -> PointRun:
    """Simulate ``point`` in this process and check its outputs.

    ``cpu_s`` covers building the system and running it, as a campaign
    point does; attaching the checking listeners is excluded.  It is the
    thread's CPU time, not wall time: the point runs on this one thread, and
    on a shared host CPU time leaves out the time the processor served
    others.
    """
    key = point.key()
    if instrument:
        point = replace(point, instrument=True)
    spec = steady_spec(point)
    started = time.thread_time()
    system = build_system(spec.config)
    built = time.thread_time()
    broadcasts: List[Any] = []
    for abcast in system.abcasts:
        abcast.add_broadcast_listener(lambda bid, _payload: broadcasts.append(bid))
    decided: set = set()
    if system.obs is not None:
        system.obs.subscribe("consensus_decided", lambda _t, _pid, cid: decided.add(cid))
    resumed = time.thread_time()
    result = ScenarioRunner().run_steady_on(system, spec)
    cpu = built - started + time.thread_time() - resumed
    record = result_to_record(result)
    problems = check_record(record) + check_run(
        system.delivery_sequences(), broadcasts, point.num_messages
    )
    stats = system.network.stats
    return PointRun(
        key=key,
        record=record,
        problems=problems,
        cpu_s=cpu,
        events=system.sim.events_processed,
        messages_sent=stats.messages_sent,
        deliveries=stats.deliveries,
        counters=dict(result.metrics["counters"]) if result.metrics else None,
        consensus_instances=len(decided),
    )
