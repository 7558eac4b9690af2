"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload steady-gm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload campaign --seed 1 --trace 1
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when
any output check fails.  Each run also writes its provenance-stamped
summary to ``.perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Cold set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 3
SETUP_PROBE_TIMEOUT_S = 60
#: Calibration readings between two set-ups (see calibrate.py).
GAUGE_READS = 3
#: Share of a simulation workload's points the traced run covers; it runs
#: them three times (plain, profiled, instrumented), the profiled pass
#: several times slower.
TRACE_SHARE = 1 / 3


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from perfbench.manifest import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-manifest", action="store_true", help="write BENCHMARK.json and exit"
    )
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_revision() -> Optional[str]:
    """The checkout's git revision, read from ``.git``; ``None`` without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head or None
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip() or None
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def provenance(args: argparse.Namespace, workload) -> Dict[str, Any]:
    return {
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
        "started_unix": time.time(),
    }


def measure_setup(workload_name: str, seed: int, gauge) -> List[float]:
    """Seconds of each cold set-up, each in its own interpreter.

    ``gauge`` reads the host's speed before each set-up and after the last;
    the run's later readings join these, and ``setup_s`` is normalised by
    the slowdown over all of them.
    """
    probe = os.path.join(ROOT, "perfbench", "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        for _ in range(GAUGE_READS):
            gauge.read()
        completed = subprocess.run(
            [sys.executable, probe, workload_name, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_PROBE_TIMEOUT_S,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{completed.stderr}")
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
    for _ in range(GAUGE_READS):
        gauge.read()
    return samples


def peak_rss_mib(include_children: bool) -> float:
    """Peak resident set of this process (plus its largest child), in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import manifest

    args = parse_args(argv)
    if args.write_manifest:
        with open(manifest.manifest_path(ROOT), "w", encoding="utf-8") as handle:
            handle.write(manifest.manifest_text())
        return 0

    import repro
    from perfbench.calibrate import HostGauge
    from perfbench.stats import failed_ratio
    from perfbench.workloads import Bench

    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"error: imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2

    workload = manifest.WORKLOADS[args.workload]
    stamp = provenance(args, workload)
    workdir = os.path.join(ROOT, ".perfbench", "work", f"{workload.name}-{os.getpid()}")
    setup_samples: List[float] = []
    setup_slowdown = 1.0
    try:
        if args.trace:
            share = 1.0 if workload.is_campaign else TRACE_SHARE
            outcome = Bench(workload, args.seed, args.seconds, workdir, share).traced()
            wanted = manifest.PER_LAYER
        else:
            gauge = HostGauge()
            setup_samples = measure_setup(workload.name, args.seed, gauge)
            outcome = Bench(workload, args.seed, args.seconds, workdir).timed(gauge)
            setup_slowdown = gauge.slowdown()
            outcome.metrics["setup_s"] = statistics.median(setup_samples) / setup_slowdown
            outcome.metrics["peak_rss_mib"] = peak_rss_mib(workload.is_campaign)
            wanted = manifest.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [metric.name for metric in wanted if metric.name not in outcome.metrics]
    if missing:
        outcome.problems.append(f"metrics not measured: {', '.join(missing)}")
    metrics = {
        metric.name: {"value": outcome.metrics[metric.name], "unit": metric.unit}
        for metric in wanted
        if metric.name in outcome.metrics
    }
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(stamp, sort_keys=True))
    for note in outcome.notes:
        print(f"  {note}")
    if setup_samples:
        print(
            f"  setup samples (s, before normalising by the host slowdown "
            f"{setup_slowdown:.4f}): {', '.join(f'{s:.4f}' for s in setup_samples)}"
        )
    print(f"  output digest {outcome.digest}")
    print(
        f"  failed_ratio {failed_ratio(outcome.failed, outcome.attempted):g} "
        f"({outcome.failed}/{outcome.attempted} measured messages)"
    )
    for name, entry in metrics.items():
        print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}")
    top = outcome.details.get("top_functions")
    if top:
        print(f"  top self time under the profiler ({workload.name}):")
        for row in top:
            print(
                f"    {row['self_s']:9.3f} s {row['share'] * 100:5.1f}%  "
                f"{row['layer']:<12} {row['function']}"
            )
    for problem in outcome.problems[:20]:
        print(f"  CHECK FAILED: {problem}")

    out_dir = os.path.join(ROOT, ".perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(
        out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "provenance": stamp,
                "result": result,
                "digest": outcome.digest,
                "setup_samples_s": setup_samples,
                "notes": outcome.notes,
                "problems": outcome.problems,
                **outcome.details,
            },
            handle,
            indent=2,
            sort_keys=True,
        )
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
