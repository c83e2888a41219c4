"""End-to-end integration tests across subsystem boundaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Aggregate,
    InterventionPlan,
    ObjectClass,
    PublicPreferences,
    Smokescreen,
    estimate_query,
    ua_detrac,
    yolo_v4_like,
)
from repro.core.tradeoff import choose_tradeoff
from repro.experiments.metrics import true_error
from repro.query import AggregateQuery, QueryProcessor


@pytest.fixture(scope="module")
def system():
    return Smokescreen(ua_detrac(frame_count=2500), yolo_v4_like(), trials=3, seed=5)


class TestAdministrationProcedure:
    """The §3.1 flow: profile -> choose -> estimate, for each aggregate."""

    @pytest.mark.parametrize(
        "aggregate", [Aggregate.AVG, Aggregate.SUM, Aggregate.COUNT, Aggregate.MAX]
    )
    def test_profile_choose_estimate(self, system, aggregate):
        query = system.query(aggregate)
        profile = system.profiler.profile_sampling_seeded(
            query, (0.05, 0.1, 0.2, 0.4, 0.8), root=1
        )
        max_error = float(profile.error_bounds().max()) + 0.01
        choice = choose_tradeoff(profile, PublicPreferences(max_error=max_error))
        assert choice.point.plan.fraction == 0.05  # loosest target: max degradation

        estimate = system.estimate(query, choice.point.plan)
        assert np.isfinite(estimate.value)
        assert estimate.error_bound >= 0

    def test_stricter_target_means_less_degradation(self, system):
        query = system.query(Aggregate.AVG)
        profile = system.profiler.profile_sampling_seeded(
            query, (0.05, 0.1, 0.2, 0.4, 0.8), root=2
        )
        bounds = profile.error_bounds()
        strict = choose_tradeoff(
            profile, PublicPreferences(max_error=float(bounds.min()) + 1e-6)
        )
        loose = choose_tradeoff(
            profile, PublicPreferences(max_error=float(bounds.max()) + 1e-6)
        )
        assert strict.degradation_level >= loose.degradation_level


class TestBoundValidityEndToEnd:
    """The system-level §5 guarantee: bounds cover true errors."""

    def test_random_plan_coverage_through_full_stack(self, system):
        query = system.query(Aggregate.AVG)
        processor = system.processor
        rng = np.random.default_rng(3)
        violations = 0
        trials = 100
        for _ in range(trials):
            execution = processor.execute(
                query, InterventionPlan.from_knobs(f=0.05), rng
            )
            estimate = estimate_query(query, execution)
            if true_error(processor, query, estimate.value) > estimate.error_bound:
                violations += 1
        assert violations / trials <= 0.05

    def test_repair_coverage_under_removal(self, system):
        """Removal biases the universe; the repaired profile bound covers
        the per-trial errors."""
        from repro.experiments.trials import run_repair_trials_seeded

        query = system.query(Aggregate.AVG)
        processor = system.processor
        correction = system.build_correction_set(query)
        plan = InterventionPlan.from_knobs(f=0.3, c=(ObjectClass.PERSON,))
        summary = run_repair_trials_seeded(
            processor, query, plan, correction.values, 30, root=4
        )
        assert summary.corrected_bound >= summary.true_error


class TestCrossDatasetConsistency:
    def test_same_estimator_contract_on_both_corpora(self, processor, rng):
        from repro.experiments.workloads import load_dataset, model_for

        for name in ("night-street", "ua-detrac"):
            dataset = load_dataset(name, 1500)
            query = AggregateQuery(dataset, model_for(name), Aggregate.AVG)
            local_processor = QueryProcessor()
            execution = local_processor.execute(
                query, InterventionPlan.from_knobs(f=0.1), rng
            )
            estimate = estimate_query(query, execution)
            assert 0.0 <= estimate.error_bound <= 1.0
            assert estimate.universe_size == dataset.frame_count


class TestExtensionInterventions:
    def test_noise_plan_biases_outputs_and_repair_covers(self, system):
        from repro.experiments.trials import run_repair_trials_seeded
        from repro.interventions import FrameSampling, NoiseAddition

        query = system.query(Aggregate.AVG)
        processor = system.processor
        plan = InterventionPlan(
            sampling=FrameSampling(0.5), extras=(NoiseAddition(0.4),)
        )
        assert not plan.is_random_for(query.dataset)
        correction = system.build_correction_set(query)
        summary = run_repair_trials_seeded(
            processor, query, plan, correction.values, 20, root=6
        )
        # Noise suppresses detections systematically...
        assert summary.true_error > 0.05
        # ...and the corrected bound still covers the error.
        assert summary.corrected_bound >= summary.true_error
