"""Time one cold set-up in a fresh interpreter and print the seconds.

Set-up is what a run pays before its first point: importing the program
and building the first point's system (simulation workloads), or importing
it and spinning the ``jobs=2`` worker pool up (campaign).  ``run.py`` calls
this script several times per run and reports the median::

    python3 perfbench/setup_probe.py <workload> <seed>
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    workload_name, seed = argv[1], int(argv[2])
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    started = time.perf_counter()
    from repro.campaigns.runner import CampaignRunner
    from repro.system import build_system

    from perfbench import workloads
    from perfbench.manifest import CAMPAIGN_JOBS, WORKLOADS
    from perfbench.points import build_campaign, steady_spec

    workload = WORKLOADS[workload_name]
    runner = None
    if workload.is_campaign:
        runner = CampaignRunner(jobs=CAMPAIGN_JOBS)
        workloads.warm_pool(runner)
    else:
        build_system(steady_spec(build_campaign(workload, seed).points()[0]).config)
    elapsed = time.perf_counter() - started
    if runner is not None:
        runner.close()
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
