"""The per-run output checks catch what they claim to catch."""

from perfbench.oracle import (
    check_record,
    check_run,
    failed_messages,
    records_digest,
)

A, B, C, D = (0, 1), (1, 1), (2, 1), (0, 2)


def test_consistent_run_with_lagging_process_passes():
    sequences = {0: [A, B, C], 1: [A, B], 2: [A, B, C]}
    assert check_run(sequences, [A, B, C], measured=2) == []


def test_planted_order_violation_is_caught():
    sequences = {0: [A, B, C], 1: [B, A, C]}
    problems = check_run(sequences, [A, B, C], measured=3)
    assert any("total order violated: p1" in problem for problem in problems)


def test_planted_undelivered_message_is_caught():
    sequences = {0: [A, B, C], 1: [A, B, C]}
    problems = check_run(sequences, [A, B, C, D], measured=2)
    assert problems == ["1 measured message(s) never delivered"]


def test_undelivered_warm_up_message_is_not_a_liveness_failure():
    sequences = {0: [B, C, D]}
    assert check_run(sequences, [A, B, C, D], measured=3) == []


def test_duplicate_and_stray_deliveries_are_caught():
    problems = check_run({0: [A, A], 1: [A, (9, 9)]}, [A], measured=1)
    assert "p0 delivered a message twice" in problems
    assert "p1 delivered 1 never-broadcast message(s)" in problems


def test_record_checks_and_failed_message_count():
    good = {"measured": 3, "undelivered": 0, "latencies": [1.0, 2.0, 3.0], "params": {}}
    lossy = {"measured": 3, "undelivered": 1, "latencies": [1.0, 2.0], "params": {}}
    exhausted = dict(good, params={"run_exhausted": True})
    assert check_record(good) == []
    assert check_record(lossy) == ["1 measured message(s) undelivered"]
    assert check_record(exhausted) == ["run hit the event budget"]
    assert failed_messages(good, []) == 0
    assert failed_messages(lossy, check_record(lossy)) == 3
    assert failed_messages(good, ["total order violated"]) == 3


def test_digest_ignores_order_and_metrics_but_not_outputs():
    one = {"k1": {"latencies": [1.0]}, "k2": {"latencies": [2.0]}}
    reordered = {"k2": {"latencies": [2.0]}, "k1": {"latencies": [1.0], "metrics": {"x": 1}}}
    changed = {"k1": {"latencies": [1.0]}, "k2": {"latencies": [2.5]}}
    assert records_digest(one) == records_digest(reordered)
    assert records_digest(one) != records_digest(changed)
