"""Per-run output checks and output digests.

The checks work on what a finished run exposes publicly: the A-delivery
sequence of every process (``BroadcastSystem.delivery_sequences()``), the
A-broadcast identifiers in issue order, and the scenario record.  A steady
run stops as soon as every measured message has been A-delivered somewhere,
so slower processes may lag; that is why agreement is checked as "every
sequence is a prefix of one common order" rather than as equal sets.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Sequence


def check_run(
    sequences: Mapping[int, Sequence[Any]],
    broadcasts: Sequence[Any],
    measured: int,
) -> List[str]:
    """Violations of one run (empty when the run is correct).

    ``broadcasts`` lists every A-broadcast identifier in issue order; the
    last ``measured`` of them are the measured messages (the warm-up comes
    first).  Checked: no duplication, integrity (only broadcast messages are
    delivered), total order and agreement (all sequences are prefixes of the
    longest one), and liveness (every measured message was delivered).
    """
    problems: List[str] = []
    issued = set(broadcasts)
    if len(issued) != len(broadcasts):
        problems.append("an A-broadcast identifier was issued twice")
    for pid, sequence in sequences.items():
        if len(set(sequence)) != len(sequence):
            problems.append(f"p{pid} delivered a message twice")
        stray = [bid for bid in sequence if bid not in issued]
        if stray:
            problems.append(f"p{pid} delivered {len(stray)} never-broadcast message(s)")
    longest = max(sequences.values(), key=len, default=[])
    for pid, sequence in sequences.items():
        if list(sequence) != list(longest[: len(sequence)]):
            first = next(
                i for i, (a, b) in enumerate(zip(sequence, longest)) if a != b
            )
            problems.append(
                f"total order violated: p{pid} diverges from the longest "
                f"sequence at position {first}"
            )
    if len(broadcasts) < measured:
        problems.append(f"only {len(broadcasts)} of {measured} measured messages issued")
    delivered = set()
    for sequence in sequences.values():
        delivered.update(sequence)
    lost = [bid for bid in broadcasts[len(broadcasts) - measured:] if bid not in delivered]
    if lost:
        problems.append(f"{len(lost)} measured message(s) never delivered")
    return problems


def check_record(record: Mapping[str, Any]) -> List[str]:
    """Violations visible in a scenario record alone."""
    problems = []
    if record["undelivered"]:
        problems.append(f"{record['undelivered']} measured message(s) undelivered")
    if record.get("params", {}).get("run_exhausted"):
        problems.append("run hit the event budget")
    if len(record["latencies"]) + record["undelivered"] != record["measured"]:
        problems.append("delivered plus undelivered differs from the measured count")
    return problems


def failed_messages(record: Mapping[str, Any], problems: Sequence[str]) -> int:
    """Measured messages a run loses: all of them if the run failed a check."""
    if problems:
        return int(record["measured"])
    return int(record.get("undelivered", 0))


def without_metrics(record: Mapping[str, Any]) -> Dict[str, Any]:
    """The record minus the instrumentation snapshot (compared across modes)."""
    return {key: value for key, value in record.items() if key != "metrics"}


def records_digest(records: Mapping[str, Mapping[str, Any]]) -> str:
    """SHA-256 over every ``(point key, record)`` pair, order-independent."""
    payload = json.dumps(
        sorted((key, without_metrics(record)) for key, record in records.items()),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
