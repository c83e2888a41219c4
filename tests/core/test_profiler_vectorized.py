"""The profiler's batch kernels vs the scalar per-trial oracle.

The kernels carry the determinism contract: they draw the samples the
seed contract prescribes, record the ledger totals trial-by-trial
accounting gives, keep the same early-stop selections, and agree on every
value and bound with the scalar estimators within 1e-9. The reference is
:mod:`tests.scalar_oracle`, which re-derives each result one trial at a
time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.candidates import CandidateGrid
from repro.core.correction import determine_correction_set
from repro.core.profiler import DegradationProfiler
from repro.interventions import InterventionPlan
from repro.query import Aggregate, AggregateQuery
from repro.system.costs import InvocationLedger
from repro.system.executor import child_rng
from repro.video.frame import ObjectClass
from repro.video.geometry import Resolution, resolution_grid
from tests import scalar_oracle as oracle

RTOL = 1e-9
ATOL = 1e-12

FRACTIONS = (0.02, 0.05, 0.1, 0.2)


@pytest.fixture
def avg_query(detrac_dataset, yolo_car):
    return AggregateQuery(detrac_dataset, yolo_car, Aggregate.AVG)


@pytest.fixture
def max_query(detrac_dataset, yolo_car):
    return AggregateQuery(detrac_dataset, yolo_car, Aggregate.MAX)


def assert_profile_matches(profile, expected):
    """A kernel profile against oracle ``(fraction, value, bound, n)``."""
    assert profile.knob_values() == [point[0] for point in expected]
    np.testing.assert_allclose(
        profile.error_bounds(), [point[2] for point in expected],
        rtol=RTOL, atol=ATOL,
    )
    np.testing.assert_allclose(
        [point.value for point in profile.points],
        [point[1] for point in expected],
        rtol=RTOL, atol=ATOL,
    )
    assert [point.n for point in profile.points] == [p[3] for p in expected]


def assert_point_matches(point, expected):
    value, bound, n = expected
    assert point.value == pytest.approx(value, rel=RTOL, abs=ATOL)
    assert point.error_bound == pytest.approx(bound, rel=RTOL, abs=ATOL)
    assert point.n == n


class TestHypercubeDifferential:
    def test_bounds_ledger_and_nan_mask_agree(self, processor, avg_query):
        grid = CandidateGrid(
            fractions=FRACTIONS,
            resolutions=tuple(
                resolution_grid(avg_query.dataset.native_resolution, 3)
            ),
            removals=((),),
        )
        ledger = InvocationLedger()
        profiler = DegradationProfiler(processor, trials=3, ledger=ledger)
        cube = profiler.generate_hypercube_seeded(
            avg_query, grid, root=5, early_stop_tolerance=0.05
        )
        bounds, values, invocations = oracle.hypercube(
            processor, avg_query, grid, trials=3, root=5,
            early_stop_tolerance=0.05,
        )
        # Identical early-stop decisions: the NaN masks match exactly.
        np.testing.assert_array_equal(np.isnan(cube.bounds), np.isnan(bounds))
        assert np.isnan(bounds).any()
        np.testing.assert_allclose(cube.bounds, bounds, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(cube.values, values, rtol=RTOL, atol=ATOL)
        # Identical samples drawn: the ledger folds to the per-trial counts.
        assert ledger.by_resolution() == invocations
        assert ledger.total == sum(invocations.values())

    def test_early_stop_compares_consecutive_fractions(self, processor, avg_query):
        # At 0.08 the 320/608 sweeps stop at the third fraction, after a
        # non-degenerate first step: the rule compares each mean bound with
        # the previous fraction's, not with the first.
        grid = CandidateGrid(
            fractions=FRACTIONS + (0.4,),
            resolutions=tuple(
                resolution_grid(avg_query.dataset.native_resolution, 3)
            ),
            removals=((),),
        )
        profiler = DegradationProfiler(processor, trials=3)
        cube = profiler.generate_hypercube_seeded(
            avg_query, grid, root=5, early_stop_tolerance=0.08
        )
        bounds, values, _ = oracle.hypercube(
            processor, avg_query, grid, trials=3, root=5,
            early_stop_tolerance=0.08,
        )
        np.testing.assert_array_equal(np.isnan(cube.bounds), np.isnan(bounds))
        assert not np.isnan(bounds[2, 1:, 0]).any()
        assert np.isnan(bounds[3:, 1:, 0]).all()
        np.testing.assert_allclose(cube.bounds, bounds, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(cube.values, values, rtol=RTOL, atol=ATOL)

    def test_max_aggregate_uses_quantile_fallback(self, processor, max_query):
        profiler = DegradationProfiler(processor, trials=2)
        profile = profiler.profile_sampling_seeded(max_query, FRACTIONS, root=3)
        assert_profile_matches(
            profile,
            oracle.sampling_profile(processor, max_query, FRACTIONS, 2, root=3),
        )


class TestSamplingSweepDifferential:
    def test_with_correction_set(self, processor, avg_query, rng):
        correction = determine_correction_set(processor, avg_query, rng)
        profiler = DegradationProfiler(processor, trials=3)
        profile = profiler.profile_sampling_seeded(
            avg_query, FRACTIONS, root=11,
            resolution=Resolution(160), correction=correction,
        )
        assert_profile_matches(
            profile,
            oracle.sampling_profile(
                processor, avg_query, FRACTIONS, 3, root=11,
                resolution=Resolution(160), correction=correction,
            ),
        )

    def test_early_stop_keeps_same_points(self, processor, avg_query):
        profiler = DegradationProfiler(processor, trials=2)
        fractions = (0.05, 0.1, 0.2, 0.4, 0.8)
        profile = profiler.profile_sampling_seeded(
            avg_query, fractions, root=2, early_stop_tolerance=0.5
        )
        expected = oracle.sampling_profile(
            processor, avg_query, fractions, 2, root=2, early_stop_tolerance=0.5
        )
        assert_profile_matches(profile, expected)
        assert len(profile.points) < len(fractions)


class TestPointEstimates:
    @pytest.mark.parametrize("aggregate", [Aggregate.AVG, Aggregate.SUM])
    def test_estimate_plan_matches_loop(
        self, processor, detrac_dataset, yolo_car, aggregate
    ):
        query = AggregateQuery(detrac_dataset, yolo_car, aggregate)
        plan = InterventionPlan.from_knobs(f=0.1)
        profiler = DegradationProfiler(processor, trials=3)
        point = profiler.estimate_plan_seeded(query, plan, root=9, unit_index=0)
        assert_point_matches(
            point, oracle.plan_point(processor, query, plan, 3, root=9, unit=0)
        )

    def test_estimate_plan_seeded_matches_loop(self, processor, avg_query):
        plan = InterventionPlan.from_knobs(f=0.08, p=160)
        profiler = DegradationProfiler(processor, trials=4)
        point = profiler.estimate_plan_seeded(avg_query, plan, root=17, unit_index=2)
        assert_point_matches(
            point, oracle.plan_point(processor, avg_query, plan, 4, root=17, unit=2)
        )

    @pytest.mark.parametrize("aggregate", [Aggregate.AVG, Aggregate.MAX])
    def test_estimate_plan_with_correction_matches_oracle(
        self, processor, detrac_dataset, yolo_car, aggregate
    ):
        # A removal plan is non-random: the corrected bound alone applies.
        query = AggregateQuery(detrac_dataset, yolo_car, aggregate)
        correction = determine_correction_set(
            processor, query, np.random.default_rng(8)
        )
        plan = InterventionPlan.from_knobs(f=0.2, c=(ObjectClass.PERSON,))
        profiler = DegradationProfiler(processor, trials=3)
        point = profiler.estimate_plan_seeded(query, plan, 21, 1, correction)
        assert_point_matches(
            point,
            oracle.plan_point(processor, query, plan, 3, 21, 1, correction),
        )

    def test_n_is_max_across_trials(self, processor, avg_query):
        # Every trial samples the same count here, so n must equal it —
        # the regression was reporting only the *last* trial's n.
        profiler = DegradationProfiler(processor, trials=3)
        plan = InterventionPlan.from_knobs(f=0.1)
        point = profiler.estimate_plan_seeded(avg_query, plan, root=1, unit_index=0)
        assert point.n == round(avg_query.dataset.frame_count * 0.1)

    def test_trial_varying_samples_take_scalar_path(self, processor, avg_query):
        # Samples of differing sizes cannot stack into one prefix matrix:
        # the per-trial scalar path prices them and n is the maximum.
        profiler = DegradationProfiler(processor, trials=3)
        plans = [InterventionPlan.from_knobs(f=f) for f in (0.05, 0.2, 0.1)]
        samples = [
            plan.draw(avg_query.dataset, child_rng(4, 0, t), processor.suite)
            for t, plan in enumerate(plans)
        ]
        point = profiler._point_from_samples(avg_query, samples, True, None)
        expected = [
            oracle.scalar_estimate(
                avg_query,
                processor.values_for_sample(avg_query, sample),
                sample.universe_size,
                True,
                None,
            )
            for sample in samples
        ]
        assert_point_matches(
            point,
            (
                float(np.mean([e[0] for e in expected])),
                float(np.mean([e[1] for e in expected])),
                max(e[2] for e in expected),
            ),
        )
        assert point.n == max(sample.size for sample in samples)
