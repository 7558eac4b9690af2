"""The measured phases of one benchmark run.

Every workload simulates its points (the fresh phase) and reads their
records back through the campaign engine (the read phases):

* **fresh** -- a simulation workload runs its points one after another in
  this process (one thread).  The first goes into a ``ResultStore``; the
  rest run between read bursts, and once every point has run, points
  repeat until ``--seconds`` is spent, each repeat reproducing its first
  run exactly.  The campaign workload first runs every point in-process
  (the serial reference, which the oracle checks), then runs the whole
  grid through ``CampaignRunner(jobs=2)`` into a fresh ``ResultStore`` per
  repetition; every repetition must return the reference records.
* **cached** -- reopen a store and re-run its campaign: every point is a
  cache hit, and the records read back must equal the fresh ones.
* **query** -- ``cross_campaign_summary`` with latency percentiles over the
  stores, checked against the records.

``--trace 1`` instead runs every phase once untraced, once under
``cProfile`` and once more with ``instrument=True`` for the protocol
counters.
"""

from __future__ import annotations

import cProfile
import math
import os
import pstats
import shutil
import time
from statistics import median
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.campaigns.aggregate import cross_campaign_summary, load_store_table
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore

from perfbench import layers
from perfbench.calibrate import HostGauge
from perfbench.manifest import CAMPAIGN_JOBS, Workload
from perfbench.oracle import records_digest, without_metrics
from perfbench.points import PointRun, build_campaign, campaign_of, run_point
from perfbench.stats import highest_supported_tail, percentile, supports

#: Seconds of cached re-runs, and again of queries, per second of fresh work
#: once the read store exists.
READ_WEIGHT = 0.25
#: Minimum read samples, so each median has a sample.
MIN_READ_SAMPLES = 5
#: Shortest timed batch of cache re-runs or queries behind one sample.
READ_BATCH_S = 0.02
#: Fresh campaign stores the cross-campaign query reads.
QUERY_STORES = 3
#: Latency quantiles asked of the aggregation query.
QUERY_PERCENTILES = (0.5, 0.95)
#: Host-timed end-to-end metrics and the power of the host slowdown that
#: normalises each: rates are multiplied by it, times divided.
HOST_TIMED = {"abcast_per_s": 1, "points_per_s": 1, "cached_points_per_s": 1, "query_s": -1}


class Spans:
    """Named wall-clock intervals with their parent, kept in memory."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]``.
        self.records: List[List[Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else -1
        index = len(self.records)
        self.records.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.records[index][2] = time.perf_counter()
            self._open.pop()

    def total(self, *names: str, under: Optional[str] = None, inside: bool = True) -> float:
        """Summed duration of the outermost spans among ``names``.

        With ``under``, only spans nested in a span of that name count
        (``inside``), or only spans not nested in one (``not inside``).
        """
        chosen = set(names)

        def nested(parent: int) -> bool:
            while parent >= 0:
                if self.records[parent][0] == under:
                    return True
                parent = self.records[parent][3]
            return False

        return sum(
            end - start
            for name, start, end, parent in self.records
            if name in chosen
            and end is not None
            and (parent < 0 or self.records[parent][0] not in chosen)
            and (under is None or nested(parent) == inside)
        )

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per name: count, total and self seconds (minus child spans)."""
        child_time = [0.0] * len(self.records)
        for name, start, end, parent in self.records:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.records):
            if end is None:
                continue
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out


class SpannedStore(ResultStore):
    """A ``ResultStore`` whose load, put, flush and close are recorded as spans."""

    def __init__(self, directory: str, spans: Spans) -> None:
        self._spans = spans
        with spans.span("ResultStore.load"):
            super().__init__(directory)

    def put(self, *args: Any, **kwargs: Any) -> None:
        with self._spans.span("ResultStore.put"):
            super().put(*args, **kwargs)

    def flush(self) -> None:
        with self._spans.span("ResultStore.flush"):
            super().flush()

    def close(self) -> None:
        with self._spans.span("ResultStore.close"):
            super().close()


def open_store(directory: str, spans: Optional[Spans]) -> ResultStore:
    return ResultStore(directory) if spans is None else SpannedStore(directory, spans)


@contextmanager
def maybe_span(spans: Optional[Spans], name: str) -> Iterator[None]:
    if spans is None:
        yield
    else:
        with spans.span(name):
            yield


@dataclass
class Outcome:
    """What one benchmark run found."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digest: str = ""
    notes: List[str] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def account(self, run: PointRun) -> None:
        self.attempted += int(run.record["measured"])
        self.failed += run.failed
        self.problems.extend(f"{run.key[:12]}: {problem}" for problem in run.problems)


@dataclass
class ReadSet:
    """Stores written by the fresh phase and what reading them must return."""

    directories: List[str]
    campaign: CampaignSpec
    runs: List[PointRun]
    digest: str


class Bench:
    """One benchmark run of one workload on one seed."""

    def __init__(
        self, workload: Workload, seed: int, seconds: float, workdir: str, share: float = 1.0
    ) -> None:
        """``share`` < 1 keeps only the first part of the workload's points."""
        self.workload = workload
        self.seconds = seconds
        self.workdir = workdir
        points = build_campaign(workload, seed).points()
        self.points = points[: max(1, math.ceil(share * len(points)))]
        self.campaign: CampaignSpec = campaign_of(f"perfbench-{workload.name}", self.points)
        self.outcome = Outcome()
        self._dirs = 0

    # ------------------------------------------------------------------ helpers

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.workdir, f"store-{self._dirs}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def check_records(self, what: str, records: Dict[str, Dict[str, Any]], digest: str) -> None:
        if records_digest(records) != digest:
            self.outcome.problems.append(f"{what}: records differ from the reference run")

    def run(self, point, instrument: bool = False, spans: Optional[Spans] = None) -> PointRun:
        with maybe_span(spans, "run_point"):
            run = run_point(point, instrument=instrument)
        self.outcome.account(run)
        return run

    def write_store(self, runs: List[PointRun], spans: Optional[Spans] = None) -> ReadSet:
        """Persist serially simulated runs as the campaign runner would."""
        points = self.points[: len(runs)]
        directory = self.fresh_dir()
        store = open_store(directory, spans)
        try:
            for point, run in zip(points, runs):
                store.put(run.key, run.record, point=point.as_dict())
        finally:
            store.close()
        return ReadSet(
            [directory],
            campaign_of(self.campaign.name, points),
            runs,
            records_digest({run.key: run.record for run in runs}),
        )

    def fresh_campaign(
        self, runner: CampaignRunner, digest: str, spans: Optional[Spans] = None
    ) -> Tuple[float, str]:
        """One fresh jobs=2 campaign into a new store: (seconds, directory)."""
        directory = self.fresh_dir()
        started = time.perf_counter()
        with maybe_span(spans, "CampaignRunner.run"):
            store = open_store(directory, spans)
            runner.store = store
            try:
                run = runner.run(self.campaign)
            finally:
                store.close()
                runner.store = None
        elapsed = time.perf_counter() - started
        if run.executed != len(self.points):
            self.outcome.problems.append(
                f"fresh campaign executed {run.executed} of {len(self.points)} points"
            )
        self.check_records("jobs=2 campaign", run.records, digest)
        return elapsed, directory

    def cached_rerun(self, reads: ReadSet, spans: Optional[Spans] = None) -> float:
        started = time.thread_time()
        with maybe_span(spans, "CampaignRunner.run.cached"):
            store = open_store(reads.directories[0], spans)
            try:
                run = CampaignRunner(store=store).run(reads.campaign)
            finally:
                store.close()
        elapsed = time.thread_time() - started
        if run.cache_hits != len(reads.runs) or run.executed:
            self.outcome.problems.append(
                f"cached re-run: {run.cache_hits} hits, {run.executed} executed"
            )
        self.check_records("cached re-run", run.records, reads.digest)
        return elapsed

    def query(self, reads: ReadSet, spans: Optional[Spans] = None) -> float:
        if spans is not None:
            with spans.span("load_store_table"):
                for directory in reads.directories:
                    load_store_table(directory)
        started = time.thread_time()
        with maybe_span(spans, "cross_campaign_summary"):
            summary = cross_campaign_summary(reads.directories, percentiles=QUERY_PERCENTILES)
        elapsed = time.thread_time() - started
        copies = len(reads.directories)
        delivered = sum(run.delivered for run in reads.runs) * copies
        counted = sum(group["latency_count"] for group in summary)
        records = sum(group["records"] for group in summary)
        if counted != delivered or records != len(reads.runs) * copies:
            self.outcome.problems.append(
                f"query pooled {counted} latencies over {records} records, "
                f"expected {delivered} over {len(reads.runs) * copies}"
            )
        return elapsed

    def latency_metrics(self, runs: List[PointRun]) -> None:
        latencies = sorted(x for run in runs for x in run.record["latencies"])
        tail = highest_supported_tail(len(latencies))
        if not supports(len(latencies), 0.95):
            self.outcome.problems.append(
                f"{len(latencies)} latency samples cannot support p95 (10 beyond it)"
            )
            return
        self.outcome.metrics["sim_latency_ms_p50"] = percentile(latencies, 0.5)
        self.outcome.metrics["sim_latency_ms_p95"] = percentile(latencies, 0.95)
        self.outcome.notes.append(
            f"simulated latency from {len(latencies)} delivered measured messages; "
            f"highest tail with >=10 samples beyond it: p{tail * 100:g}"
        )

    # ------------------------------------------------------------------ timed run

    def timed(self, gauge: Optional[HostGauge] = None) -> Outcome:
        """Measure the end-to-end metrics (``--trace 0``).

        The host-timed metrics are normalised to the nominal host by the
        calibration readings ``gauge`` holds and takes during the run (see
        calibrate.py).
        """
        gauge = gauge or HostGauge()
        if self.workload.is_campaign:
            self._timed_campaign(gauge)
        else:
            self._timed_simulation(gauge)
        slowdown = gauge.slowdown()
        metrics = self.outcome.metrics
        raw = {name: metrics[name] for name in HOST_TIMED if name in metrics}
        for name, power in HOST_TIMED.items():
            if name in metrics:
                metrics[name] *= slowdown**power
        self.outcome.details["host_slowdown"] = slowdown
        self.outcome.details["raw_host_timed"] = raw
        self.outcome.notes.append(
            f"host slowdown {slowdown:.4f} (median of {len(gauge.readings)} calibration "
            f"readings); before normalising: "
            + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
        )
        return self.outcome

    def _timed_simulation(self, gauge: HostGauge) -> None:
        deadline = time.perf_counter() + self.seconds
        count = len(self.points)
        # Only the first point is stored for the read phases, so that they
        # start early and sample nearly the whole window.
        runs = [self.run(self.points[0])]
        reads = self.write_store(list(runs))

        def fresh_unit() -> float:
            index = len(runs) % count
            run = self.run(self.points[index])
            if len(runs) >= count and run.record != runs[index].record:
                self.outcome.problems.append(
                    f"{run.key[:12]}: a repeat run differs from the first run"
                )
            runs.append(run)
            return run.cpu_s

        self._interleave(
            deadline, fresh_unit, lambda: len(runs) < count, runs[-1].cpu_s, reads, gauge
        )
        reference = runs[:count]
        self.outcome.digest = records_digest({run.key: run.record for run in reference})
        self.latency_metrics(reference)
        self.outcome.metrics["abcast_per_s"] = median(run.delivered / run.cpu_s for run in runs)
        self.outcome.metrics["points_per_s"] = 1.0 / median(run.cpu_s for run in runs)
        self.outcome.notes.append(
            f"fresh: {len(runs)} point runs ({count} distinct) in "
            f"{sum(run.cpu_s for run in runs):.3f} CPU s"
        )

    def _timed_campaign(self, gauge: HostGauge) -> None:
        reference = [self.run(point) for point in self.points]
        digest = records_digest({run.key: run.record for run in reference})
        self.outcome.digest = digest
        self.latency_metrics(reference)
        directories: List[str] = []
        times: List[float] = []
        with CampaignRunner(jobs=CAMPAIGN_JOBS) as runner:
            warm_pool(runner)
            deadline = time.perf_counter() + self.seconds

            def fresh_unit() -> float:
                # The fresh work runs in the workers: gauge them too.
                gauge.read_in(runner.pool.executor(), CAMPAIGN_JOBS)
                elapsed, directory = self.fresh_campaign(runner, digest)
                directories.append(directory)
                times.append(elapsed)
                return elapsed

            for _ in range(QUERY_STORES):
                fresh_unit()
            reads = ReadSet(directories[:QUERY_STORES], self.campaign, reference, digest)
            self._interleave(deadline, fresh_unit, lambda: False, times[-1], reads, gauge)
        delivered = sum(run.delivered for run in reference)
        self.outcome.metrics["points_per_s"] = len(self.points) / median(times)
        self.outcome.metrics["abcast_per_s"] = delivered / median(times)
        self.outcome.notes.append(
            f"fresh: {len(times)} jobs={CAMPAIGN_JOBS} campaigns of {len(self.points)} points"
        )

    def _interleave(
        self,
        deadline: float,
        fresh_unit: Callable[[], float],
        pending: Callable[[], bool],
        unit_s: float,
        reads: ReadSet,
        gauge: HostGauge,
    ) -> None:
        """Alternate read bursts with fresh units until ``deadline``.

        After each fresh unit of ``unit_s`` seconds come READ_WEIGHT x
        ``unit_s`` seconds of cached re-runs and as many of queries, so the
        read metrics sample most of the window, not one interval; the
        machine's speed drifts over seconds.  ``gauge`` reads the host's
        speed between every two of these phases.  Fresh units continue past
        the deadline while ``pending()`` says required work remains.
        """
        cached: List[float] = []
        queries: List[float] = []
        while True:
            burst = READ_WEIGHT * unit_s
            gauge.read()
            cached += repeat(lambda: self.cached_rerun(reads), burst, READ_BATCH_S)
            gauge.read()
            queries += repeat(lambda: self.query(reads), burst, READ_BATCH_S)
            gauge.read()
            if (
                time.perf_counter() >= deadline
                and len(cached) >= MIN_READ_SAMPLES
                and not pending()
            ):
                break
            unit_s = fresh_unit()
        self.outcome.metrics["cached_points_per_s"] = len(reads.runs) / median(cached)
        self.outcome.metrics["query_s"] = median(queries)
        self.outcome.notes.append(
            f"reads: {len(cached)} cached re-run and {len(queries)} query samples over "
            f"{len(reads.directories)} store(s) of {len(reads.runs)} records"
        )

    # ------------------------------------------------------------------ traced run

    def one_pass(self, spans: Spans, runner: Optional[CampaignRunner]) -> List[PointRun]:
        """Every phase once: points, store write or jobs=2 campaign, reads."""
        reference = [self.run(point, spans=spans) for point in self.points]
        if runner is None:
            reads = self.write_store(reference, spans)
        else:
            digest = records_digest({run.key: run.record for run in reference})
            _elapsed, directory = self.fresh_campaign(runner, digest, spans)
            reads = ReadSet([directory], self.campaign, reference, digest)
        self.cached_rerun(reads, spans)
        self.query(reads, spans)
        return reference

    def traced(self) -> Outcome:
        """Measure the per-layer metrics (``--trace 1``)."""
        runner = CampaignRunner(jobs=CAMPAIGN_JOBS) if self.workload.is_campaign else None
        try:
            if runner is not None:
                warm_pool(runner)
            plain = Spans()
            started = time.perf_counter()
            reference = self.one_pass(plain, runner)
            untraced_wall = time.perf_counter() - started

            profile = cProfile.Profile()
            started = time.perf_counter()
            profile.enable()
            try:
                self.one_pass(Spans(), runner)
            finally:
                profile.disable()
            traced_wall = time.perf_counter() - started
        finally:
            if runner is not None:
                runner.close()
        counted = [self.run(point, instrument=True) for point in self.points]
        for run, plain_run in zip(counted, reference):
            if without_metrics(run.record) != without_metrics(plain_run.record):
                self.outcome.problems.append(
                    f"{run.key[:12]}: instrumented run differs from the plain run"
                )
        self.outcome.digest = records_digest({run.key: run.record for run in reference})

        stats = pstats.Stats(profile).stats
        metrics = self.outcome.metrics
        for layer, seconds in layers.self_time_by_layer(stats).items():
            metrics[f"{layer}.self_s"] = seconds
        metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
        delivered = sum(run.delivered for run in reference) or 1
        metrics["kernel.events_per_abcast"] = sum(r.events for r in reference) / delivered
        metrics["network.messages_per_abcast"] = (
            sum(r.messages_sent for r in reference) / delivered
        )
        metrics["network.deliveries_per_abcast"] = (
            sum(r.deliveries for r in reference) / delivered
        )
        counters: Dict[str, int] = {}
        for run in counted:
            for name, value in (run.counters or {}).items():
                counters[name] = counters.get(name, 0) + value
        metrics["fd.transitions"] = counters.get("fd.suspicions", 0) + counters.get(
            "fd.trusts", 0
        )
        metrics["consensus.instances"] = sum(run.consensus_instances for run in counted)
        proposals = counters.get("consensus.proposals", 0)
        metrics["consensus.rounds_per_instance"] = (
            counters.get("consensus.rounds", 0) / proposals if proposals else 0.0
        )
        metrics["membership.view_changes"] = counters.get("gm.view_changes", 0)
        metrics["dispatch.overhead_s"] = (
            plain.total("CampaignRunner.run") - plain.total("run_point") / CAMPAIGN_JOBS
            if runner is not None
            else 0.0
        )
        store_writes = ("ResultStore.put", "ResultStore.flush", "ResultStore.close")
        cached = "CampaignRunner.run.cached"
        metrics["store.put_s"] = plain.total(*store_writes, under=cached, inside=False)
        metrics["store.load_s"] = plain.total("ResultStore.load", under=cached)
        metrics["aggregate.load_table_s"] = plain.total("load_store_table")
        metrics["aggregate.query_s"] = plain.total("cross_campaign_summary")
        self.outcome.details["spans"] = plain.summary()
        self.outcome.details["top_functions"] = layers.top_functions(stats)
        self.outcome.details["untraced_wall_s"] = untraced_wall
        self.outcome.details["traced_wall_s"] = traced_wall
        return self.outcome


def repeat(action: Callable[[], float], budget: float, batch: float) -> List[float]:
    """Samples of ``action``'s seconds until ``budget`` seconds pass (at least one).

    Each sample is the mean over consecutive calls lasting at least
    ``batch`` seconds, which smooths timer and scheduler jitter on
    sub-millisecond actions.
    """
    samples: List[float] = []
    deadline = time.perf_counter() + budget
    while not samples or time.perf_counter() < deadline:
        spent, calls = 0.0, 0
        while calls == 0 or spent < batch:
            spent += action()
            calls += 1
        samples.append(spent / calls)
    return samples


def warm_pool(runner: CampaignRunner) -> None:
    """Spin every worker of the runner's pool up before anything is timed."""
    executor = runner.pool.executor()
    for future in [executor.submit(os.getpid) for _ in range(runner.jobs)]:
        future.result()
