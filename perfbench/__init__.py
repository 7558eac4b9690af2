"""The repository benchmark: named workloads, end-to-end and per-layer metrics.

Run it from the repository root::

    python3 perfbench/run.py --workload steady-gm --seed 1 --seconds 10 --trace 0

``perfbench/WORKLOADS.md`` explains why each workload exists and which
layer metric is predicted to move which end-to-end metric.
"""
