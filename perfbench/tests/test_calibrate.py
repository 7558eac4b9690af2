"""The calibration kernel and the normalisation of host-timed metrics."""

import pytest

from perfbench import calibrate
from perfbench.calibrate import HostGauge, NOMINAL_S
from perfbench.workloads import HOST_TIMED, Bench
from perfbench.tests.test_bench import TINY, TINY_CAMPAIGN


def test_kernel_is_deterministic():
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.timed_kernel() > 0


def test_slowdown_is_the_median_reading_over_nominal():
    gauge = HostGauge()
    with pytest.raises(RuntimeError):
        gauge.slowdown()
    gauge.readings = [NOMINAL_S * 3, NOMINAL_S, NOMINAL_S * 2]
    assert gauge.slowdown() == pytest.approx(2.0)


@pytest.mark.parametrize("workload", [TINY, TINY_CAMPAIGN], ids=lambda w: w.name)
def test_rates_are_multiplied_and_times_divided_by_the_slowdown(tmp_path, workload):
    outcome = Bench(workload, 1, 0.2, str(tmp_path)).timed()
    assert outcome.correct, outcome.problems
    slowdown = outcome.details["host_slowdown"]
    raw = outcome.details["raw_host_timed"]
    assert slowdown > 0 and set(raw) == set(HOST_TIMED)
    assert outcome.metrics["abcast_per_s"] == pytest.approx(raw["abcast_per_s"] * slowdown)
    assert outcome.metrics["query_s"] == pytest.approx(raw["query_s"] / slowdown)
