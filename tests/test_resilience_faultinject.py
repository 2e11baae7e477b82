"""The deterministic fault-injection harness itself."""

from __future__ import annotations

import pytest

from repro.estimators import DensityBasedEstimator
from repro.geometry import Point
from repro.resilience.errors import EstimationError, StaleCatalogError
from repro.resilience.faultinject import (
    FaultInjectingSelectEstimator,
    FaultSchedule,
    FaultSpec,
)


@pytest.fixture()
def wrapped(osm_count_index):
    def make(*schedules):
        return FaultInjectingSelectEstimator(
            DensityBasedEstimator(osm_count_index), list(schedules)
        )

    return make


Q = Point(0.4, 0.6)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="explode")


class TestFaultSchedule:
    def test_exactly_one_mode_required(self):
        with pytest.raises(ValueError):
            FaultSchedule(FaultSpec.raising())
        with pytest.raises(ValueError):
            FaultSchedule(FaultSpec.raising(), calls=[0], every=1)

    def test_explicit_calls_mode(self):
        schedule = FaultSchedule(FaultSpec.raising(), calls=[1, 3])
        assert [schedule.fires(i) for i in range(5)] == [False, True, False, True, False]

    def test_every_mode_with_offset(self):
        schedule = FaultSchedule(FaultSpec.raising(), every=2, after=3)
        assert [schedule.fires(i) for i in range(8)] == [
            False, False, False, True, False, True, False, True,
        ]

    def test_probability_mode_is_deterministic(self):
        a = FaultSchedule(FaultSpec.raising(), probability=0.5, seed=7)
        b = FaultSchedule(FaultSpec.raising(), probability=0.5, seed=7)
        pattern = [a.fires(i) for i in range(200)]
        assert pattern == [b.fires(i) for i in range(200)]
        assert any(pattern) and not all(pattern)

    def test_probability_extremes(self):
        never = FaultSchedule(FaultSpec.raising(), probability=0.0)
        always = FaultSchedule(FaultSpec.raising(), probability=1.0)
        assert not any(never.fires(i) for i in range(50))
        assert all(always.fires(i) for i in range(50))


class TestInjection:
    def test_raise_fault_uses_configured_error(self, wrapped):
        est = wrapped(
            FaultSchedule(FaultSpec.raising(StaleCatalogError, "boom"), calls=[0])
        )
        with pytest.raises(StaleCatalogError, match="boom"):
            est.estimate(Q, 5)
        # Call 1 is clean: the schedule targeted call 0 only.
        assert est.estimate(Q, 5) == est.inner.estimate(Q, 5)
        assert est.calls == 2 and est.faults_fired == 1

    def test_corrupt_fault_replaces_value(self, wrapped):
        est = wrapped(FaultSchedule(FaultSpec.corrupting(-42.0), every=1))
        assert est.estimate(Q, 5) == -42.0

    def test_clean_calls_are_transparent(self, wrapped):
        est = wrapped(FaultSchedule(FaultSpec.raising(), calls=[]))
        for k in (1, 5, 50):
            assert est.estimate(Q, k) == est.inner.estimate(Q, k)
        assert est.faults_fired == 0

    def test_default_error_is_estimation_error(self, wrapped):
        est = wrapped(FaultSchedule(FaultSpec.raising(), every=1))
        with pytest.raises(EstimationError):
            est.estimate(Q, 5)
