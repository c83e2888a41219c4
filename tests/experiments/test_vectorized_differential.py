"""The seeded experiment drivers vs the scalar per-trial oracle.

The acceptance contract for the batch-trial kernels: every seeded driver
produces the series that :mod:`tests.scalar_oracle` re-derives one trial
at a time within 1e-9 — same samples drawn, same decisions, only the
arithmetic pipeline differs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.candidates import CandidateGrid, fraction_candidates
from repro.experiments.fig4_bound_comparison import (
    MEAN_METHODS,
    QUANTILE_METHODS,
    run_fig4,
)
from repro.experiments.fig6_profile_repair import (
    CORRECTION_FRACTIONS,
    _knob_grid,
    _plan_for,
    build_correction,
    run_fig6,
)
from repro.experiments.timing import run_timing
from repro.experiments.trials import (
    run_method_trials_seeded,
    run_repair_trials_seeded,
)
from repro.experiments.workloads import Workload, shared_suite
from repro.interventions.plan import InterventionPlan
from repro.query.aggregates import Aggregate
from repro.query.processor import QueryProcessor
from repro.system.costs import InvocationLedger
from repro.system.executor import child_rng
from repro.video.frame import ObjectClass
from repro.video.geometry import resolution_grid
from tests import scalar_oracle as oracle

FRAMES = 2500
RTOL = 1e-9
ATOL = 1e-12


def assert_series_close(result, expected):
    assert set(result.series) == set(expected)
    for name, values in result.series.items():
        np.testing.assert_allclose(
            np.asarray(values, dtype=float),
            np.asarray(expected[name], dtype=float),
            rtol=RTOL, atol=ATOL, err_msg=name,
        )


class TestFig4Differential:
    @pytest.mark.parametrize("aggregate", [Aggregate.AVG, Aggregate.MAX])
    def test_panel_matches_loop(self, aggregate):
        result = run_fig4(
            "ua-detrac", aggregate, trials=6, frame_count=FRAMES,
            grid_points=3, seed=7,
        )
        query = Workload("ua-detrac", aggregate, FRAMES).query()
        processor = QueryProcessor(shared_suite())
        methods = MEAN_METHODS if aggregate.is_mean_family else QUANTILE_METHODS
        expected: dict[str, list[float]] = {}
        for setting_index, fraction in enumerate(result.knobs):
            per_method = oracle.method_trial_arrays(
                processor, query, InterventionPlan.from_knobs(f=fraction),
                methods, 6, 7, setting_index,
            )
            for method, (bounds, errors) in per_method.items():
                finite = bounds[np.isfinite(bounds)]
                expected.setdefault(f"{method}_bound", []).append(
                    finite.mean() if finite.size else np.inf
                )
                expected.setdefault(f"{method}_err", []).append(errors.mean())
        assert_series_close(result, expected)


class TestFig6Differential:
    @pytest.mark.parametrize("axis", ["sampling", "resolution"])
    def test_row_matches_loop(self, axis):
        result = run_fig6(
            "ua-detrac", Aggregate.AVG, axis, trials=6, frame_count=FRAMES,
            seed=3,
        )
        workload = Workload("ua-detrac", Aggregate.AVG, FRAMES)
        query = workload.query()
        processor = QueryProcessor(shared_suite())
        correction = build_correction(
            processor, workload,
            CORRECTION_FRACTIONS[("ua-detrac", Aggregate.AVG)],
            np.random.default_rng(3),
        )
        expected: dict[str, list[float]] = {
            "bound_no_correction": [], "bound_with_correction": [],
            "true_error": [],
        }
        for knob in _knob_grid(axis, workload, FRAMES):
            uncorrected, corrected, error = oracle.repair_trial_arrays(
                processor, query, _plan_for(axis, knob, 0.5),
                correction.values, 6, 4, 0,
            )
            expected["bound_no_correction"].append(uncorrected.mean())
            expected["bound_with_correction"].append(corrected.mean())
            expected["true_error"].append(error.mean())
        assert_series_close(result, expected)


class TestTimingDifferential:
    def test_sweep_matches_loop_and_ledger(self):
        ledger = InvocationLedger()
        result = run_timing(frame_count=FRAMES, trials=3, ledger=ledger)
        query = Workload("ua-detrac", Aggregate.AVG, FRAMES).query()
        grid = CandidateGrid(
            fractions=fraction_candidates(step=0.01, maximum=0.04),
            resolutions=tuple(
                resolution_grid(query.dataset.native_resolution, 10)
            ),
            removals=((),),
        )
        _, _, invocations = oracle.hypercube(
            QueryProcessor(shared_suite()), query, grid, trials=3, root=0
        )
        # Identical samples drawn: the invocation accounting folds equal.
        assert ledger.by_resolution() == invocations
        assert ledger.total == sum(invocations.values())
        assert result.knobs == [float(side) for side in sorted(invocations)]
        assert result.series["invocations"] == [
            float(invocations[side]) for side in sorted(invocations)
        ]


class _TrialVaryingProcessor(QueryProcessor):
    """Doubles the sampled fraction on about half of the trials."""

    def execute(self, query, plan, rng):
        if rng.integers(2):
            plan = InterventionPlan.from_knobs(f=2 * plan.fraction)
        return super().execute(query, plan, rng)


class TestScalarFallbacks:
    """Inputs without a batch form take the per-trial scalar path."""

    def test_method_trials_with_trial_varying_sizes(self):
        processor = _TrialVaryingProcessor(shared_suite())
        query = Workload("ua-detrac", Aggregate.AVG, FRAMES).query()
        plan = InterventionPlan.from_knobs(f=0.05)
        methods = ("smokescreen", "hoeffding")
        sizes = {
            processor.execute(query, plan, child_rng(7, 0, t)).size
            for t in range(6)
        }
        assert len(sizes) == 2
        summaries = run_method_trials_seeded(
            processor, query, plan, methods, 6, 7
        )
        expected = oracle.method_trial_arrays(
            processor, query, plan, methods, 6, 7, 0
        )
        for method, (bounds, errors) in expected.items():
            assert summaries[method].mean_bound == pytest.approx(
                bounds.mean(), rel=RTOL, abs=ATOL
            )
            assert summaries[method].mean_true_error == pytest.approx(
                errors.mean(), rel=RTOL, abs=ATOL
            )

    def test_max_repair_trials_use_quantile_terms(self):
        workload = Workload("ua-detrac", Aggregate.MAX, FRAMES)
        query = workload.query()
        processor = QueryProcessor(shared_suite())
        correction = build_correction(
            processor, workload, 0.02, np.random.default_rng(5)
        )
        plan = InterventionPlan.from_knobs(f=0.3, c=(ObjectClass.PERSON,))
        summary = run_repair_trials_seeded(
            processor, query, plan, correction.values, 6, 5, setting_index=2
        )
        uncorrected, corrected, error = oracle.repair_trial_arrays(
            processor, query, plan, correction.values, 6, 5, 2
        )
        assert summary.uncorrected_bound == pytest.approx(
            uncorrected.mean(), rel=RTOL, abs=ATOL
        )
        assert summary.corrected_bound == pytest.approx(
            corrected.mean(), rel=RTOL, abs=ATOL
        )
        assert summary.true_error == pytest.approx(
            error.mean(), rel=RTOL, abs=ATOL
        )
