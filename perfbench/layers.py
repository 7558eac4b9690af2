"""Attribute profiler self time to this repository's layers by source module.

A function defined under ``src/repro/`` belongs to the layer of its module
(``LAYER_MODULES``), or to ``unattributed`` when no layer lists it (for
example ``system.py``, ``core/types.py``, ``sim/rng.py``, ``obs/``).  The
benchmark's own files are ``unattributed`` too.  Everything else -- the
standard library and built-ins such as ``heapq.heappush`` -- does work on
behalf of its callers, so its self time is charged to them in proportion to
the time each caller spent in it, following callers until a repository or
benchmark function is reached.
"""

from __future__ import annotations

import os
from typing import Dict, List, Mapping, Optional, Tuple

from perfbench.manifest import LAYERS

UNATTRIBUTED = "unattributed"

#: Path prefixes below ``src/`` of each layer.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "kernel": ("repro/sim/engine.py",),
    "network": (
        "repro/sim/network.py",
        "repro/sim/resources.py",
        "repro/sim/process.py",
        "repro/sim/messages.py",
    ),
    "fd": ("repro/failure_detectors/",),
    "rb": ("repro/core/reliable_broadcast.py",),
    "consensus": ("repro/core/consensus.py",),
    "abcast_fd": ("repro/core/fd_broadcast.py",),
    "sequencer": ("repro/core/sequencer_broadcast.py",),
    "membership": ("repro/core/group_membership.py",),
    "scenarios": ("repro/scenarios/", "repro/workload/", "repro/metrics/"),
    "dispatch": ("repro/campaigns/runner.py", "repro/campaigns/pool.py"),
    "store": (
        "repro/campaigns/store.py",
        "repro/campaigns/columnar.py",
        "repro/campaigns/catalog.py",
    ),
    "aggregate": ("repro/campaigns/aggregate.py",),
}

#: pstats function key: (filename, line, function name).
Func = Tuple[str, int, str]


def repo_module(filename: str) -> Optional[str]:
    """``repro/...`` path of a repository source file, else ``None``."""
    path = filename.replace("\\", "/")
    index = path.rfind("/src/repro/")
    return path[index + len("/src/"):] if index >= 0 else None


def is_benchmark_file(filename: str) -> bool:
    return "/perfbench/" in filename.replace("\\", "/")


def layer_of(filename: str) -> Optional[str]:
    """The owning layer of a file; ``None`` for foreign (library) code."""
    module = repo_module(filename)
    if module is None:
        return UNATTRIBUTED if is_benchmark_file(filename) else None
    for layer, prefixes in LAYER_MODULES.items():
        if module.startswith(prefixes):
            return layer
    return UNATTRIBUTED


def _shares(func: Func, stats: Mapping, memo: Dict, active: set) -> Dict[str, float]:
    """Which layers a function's own time belongs to, as fractions summing to 1."""
    if func in memo:
        return memo[func]
    layer = layer_of(func[0])
    if layer is not None:
        memo[func] = {layer: 1.0}
        return memo[func]
    callers = stats[func][4] if func in stats else {}
    # Weight callers by the cumulative time they spent in ``func``.
    weights = {caller: entry[3] for caller, entry in callers.items() if entry[3] > 0}
    total = sum(weights.values())
    if func in active or total <= 0:
        return {UNATTRIBUTED: 1.0}
    active.add(func)
    shares: Dict[str, float] = {}
    for caller, weight in weights.items():
        for owner, fraction in _shares(caller, stats, memo, active).items():
            shares[owner] = shares.get(owner, 0.0) + fraction * weight / total
    active.discard(func)
    memo[func] = shares
    return shares


def self_time_by_layer(stats: Mapping) -> Dict[str, float]:
    """Seconds of self time per layer (every layer and ``unattributed`` present).

    ``stats`` is ``pstats.Stats(...).stats``: ``func -> (cc, nc, tt, ct,
    callers)`` with ``callers[caller] = (cc, nc, tt, ct)``.  A foreign
    function's self time is split over its callers by the self time each
    caller's calls produced (``callers[caller][2]``).
    """
    totals = {layer: 0.0 for layer in LAYERS}
    totals[UNATTRIBUTED] = 0.0
    memo: Dict = {}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if layer_of(func[0]) is not None:
            totals[layer_of(func[0])] += tt
            continue
        by_caller = {caller: entry[2] for caller, entry in callers.items() if entry[2] > 0}
        spread = sum(by_caller.values())
        if spread <= 0:
            totals[UNATTRIBUTED] += tt
            continue
        for caller, part in by_caller.items():
            for owner, fraction in _shares(caller, stats, memo, set()).items():
                totals[owner] += tt * (part / spread) * fraction
    return totals


def describe(func: Func) -> str:
    filename, line, name = func
    module = repo_module(filename)
    if module is not None:
        return f"{module}:{line}({name})"
    if filename == "~":
        return name
    return f"{os.path.basename(filename)}:{line}({name})"


def top_functions(stats: Mapping, count: int = 15) -> List[Dict[str, object]]:
    """The ``count`` functions with the most self time, largest first."""
    total = sum(entry[2] for entry in stats.values()) or 1.0
    ranked = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)[:count]
    return [
        {
            "function": describe(func),
            "layer": layer_of(func[0]) or "library",
            "self_s": entry[2],
            "share": entry[2] / total,
            "calls": entry[1],
        }
        for func, entry in ranked
    ]
