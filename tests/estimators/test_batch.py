"""Differential tests: the batch estimator API matches the scalar API.

One matrix of trial prefixes, every registered estimator: the batch result
must reproduce the per-trial scalar result within the repo's 1e-9
numerical-equivalence policy (most kernels are in fact bitwise-identical;
CLT's one-pass prefix standard deviation is the documented exception).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, EstimationError
from repro.estimators.base import BatchEstimate, validate_batch_request
from repro.estimators.dispatch import (
    estimate_batch,
    mean_estimator_registry,
    quantile_estimator_registry,
    variance_estimator_registry,
)
from repro.interventions import InterventionPlan
from repro.query import Aggregate, AggregateQuery
from repro.stats.prefix_moments import PrefixMoments

TRIALS = 7
MAX_SIZE = 120
UNIVERSE = 900
DELTA = 0.05
RTOL = 1e-9
ATOL = 1e-12


@pytest.fixture(scope="module")
def matrix() -> np.ndarray:
    return np.random.default_rng(21).gamma(2.0, 1.5, size=(TRIALS, MAX_SIZE))


#: Every prefix length the tests below read.
SIZES = (1, 2, 10, 17, 20, 30, 40, MAX_SIZE)


@pytest.fixture(scope="module")
def moments(matrix) -> PrefixMoments:
    return PrefixMoments(matrix, SIZES)


def batch_vs_scalar(estimator, moments, matrix, n, value_range=None):
    batch = estimator.estimate_batch(
        moments, n, UNIVERSE, DELTA, value_range=value_range
    )
    for t in range(moments.trials):
        scalar = estimator.estimate(
            matrix[t, :n], UNIVERSE, DELTA, value_range=value_range
        )
        assert batch.values[t] == pytest.approx(scalar.value, rel=RTOL, abs=ATOL)
        assert batch.error_bounds[t] == pytest.approx(
            scalar.error_bound, rel=RTOL, abs=ATOL
        )
    assert batch.method == estimator.name
    assert batch.n == n
    assert batch.universe_size == UNIVERSE


class TestMeanEstimators:
    @pytest.mark.parametrize("method", sorted(mean_estimator_registry()))
    @pytest.mark.parametrize("n", [2, 17, MAX_SIZE])
    def test_batch_matches_scalar(self, moments, matrix, method, n):
        batch_vs_scalar(mean_estimator_registry()[method], moments, matrix, n)

    @pytest.mark.parametrize("method", sorted(mean_estimator_registry()))
    def test_known_range_is_honoured(self, moments, matrix, method):
        batch_vs_scalar(
            mean_estimator_registry()[method], moments, matrix, 20,
            value_range=25.0,
        )

    @pytest.mark.parametrize("method", ["smokescreen", "hoeffding", "ebgs"])
    def test_constant_trials(self, method):
        constant = np.full((3, 30), 2.5)
        batch_vs_scalar(
            mean_estimator_registry()[method], PrefixMoments(constant, (30,)),
            constant, 30,
        )

    def test_single_sample_prefix(self, moments, matrix):
        # n=1 exercises the degenerate edges: zero sample range for the
        # Hoeffding family, infinite nominal bound for CLT.
        for method in ("smokescreen", "hoeffding", "hoeffding-serfling", "clt"):
            batch_vs_scalar(
                mean_estimator_registry()[method], moments, matrix, 1
            )


class TestVarianceAndQuantileFallbacks:
    def test_variance_estimators(self, moments, matrix):
        for estimator in variance_estimator_registry().values():
            batch = estimator.estimate_batch(moments, 40, UNIVERSE, DELTA)
            for t in range(TRIALS):
                scalar = estimator.estimate(matrix[t, :40], UNIVERSE, DELTA)
                assert batch.values[t] == pytest.approx(scalar.value)
                assert batch.error_bounds[t] == pytest.approx(scalar.error_bound)

    def test_quantile_estimators(self, moments, matrix):
        counts = PrefixMoments(np.floor(matrix), (40,))
        for estimator in quantile_estimator_registry().values():
            batch = estimator.estimate_batch(
                counts, 40, UNIVERSE, 0.99, DELTA, Aggregate.MAX
            )
            for t in range(TRIALS):
                scalar = estimator.estimate(
                    np.floor(matrix[t, :40]), UNIVERSE, 0.99, DELTA, Aggregate.MAX
                )
                assert batch.values[t] == pytest.approx(scalar.value)
                assert batch.error_bounds[t] == pytest.approx(scalar.error_bound)


class TestDispatch:
    def query(self, dataset, model, aggregate):
        return AggregateQuery(dataset, model, aggregate)

    def test_avg_routes_unscaled(self, detrac_dataset, yolo_car, moments):
        query = self.query(detrac_dataset, yolo_car, Aggregate.AVG)
        batch = estimate_batch(
            query, moments, 30, UNIVERSE, detrac_dataset.frame_count
        )
        assert batch.method == "smokescreen"
        assert np.all(batch.values < 100)

    def test_sum_scaled_to_population(self, detrac_dataset, yolo_car, moments):
        avg = estimate_batch(
            self.query(detrac_dataset, yolo_car, Aggregate.AVG),
            moments, 30, UNIVERSE, detrac_dataset.frame_count,
        )
        total = estimate_batch(
            self.query(detrac_dataset, yolo_car, Aggregate.SUM),
            moments, 30, UNIVERSE, detrac_dataset.frame_count,
        )
        np.testing.assert_allclose(
            total.values, avg.values * detrac_dataset.frame_count
        )
        np.testing.assert_array_equal(total.error_bounds, avg.error_bounds)

    def test_unknown_method_rejected(self, detrac_dataset, yolo_car, moments):
        with pytest.raises(ConfigurationError):
            estimate_batch(
                self.query(detrac_dataset, yolo_car, Aggregate.AVG),
                moments, 30, UNIVERSE, detrac_dataset.frame_count,
                method="nope",
            )

    def test_matches_scalar_dispatch_on_executions(
        self, processor, detrac_dataset, yolo_car, rng
    ):
        from repro.estimators.dispatch import estimate_query

        query = self.query(detrac_dataset, yolo_car, Aggregate.AVG)
        plan = InterventionPlan.from_knobs(f=0.05)
        executions = [processor.execute(query, plan, rng) for _ in range(4)]
        n = executions[0].values.size
        moments = PrefixMoments(np.stack([e.values for e in executions]), (n,))
        for method in mean_estimator_registry():
            batch = estimate_batch(
                query, moments, n, executions[0].universe_size,
                executions[0].population_size, method,
            )
            for t, execution in enumerate(executions):
                scalar = estimate_query(query, execution, method)
                assert batch.values[t] == pytest.approx(
                    scalar.value, rel=RTOL, abs=ATOL
                )
                assert batch.error_bounds[t] == pytest.approx(
                    scalar.error_bound, rel=RTOL, abs=ATOL
                )


class TestBatchEstimateContainer:
    def test_trial_view(self, moments):
        batch = mean_estimator_registry()["smokescreen"].estimate_batch(
            moments, 10, UNIVERSE, DELTA
        )
        one = batch.trial(3)
        assert one.value == float(batch.values[3])
        assert one.error_bound == float(batch.error_bounds[3])
        assert one.n == 10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EstimationError):
            BatchEstimate(
                values=np.zeros(3), error_bounds=np.zeros(2),
                method="m", n=1, universe_size=10,
            )

    def test_negative_bounds_rejected(self):
        with pytest.raises(EstimationError):
            BatchEstimate(
                values=np.zeros(2), error_bounds=np.array([0.1, -0.2]),
                method="m", n=1, universe_size=10,
            )

    @pytest.mark.parametrize(
        "n,universe", [(0, UNIVERSE), (MAX_SIZE + 1, UNIVERSE), (50, 10)]
    )
    def test_request_validation(self, moments, n, universe):
        with pytest.raises(EstimationError):
            validate_batch_request(moments, n, universe)
