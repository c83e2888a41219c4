"""Scalar, trial-by-trial reference for the batch kernels.

The profiler and the trial drivers price all trials of a setting at once
on :class:`~repro.stats.prefix_moments.PrefixMoments`. This module
re-derives the same numbers one trial at a time from public pieces only —
the same recipe as ``layerbench/profile_put.py:scalar_cell``:

- the spawn-key seed contract ``child_rng(root, unit, trial)``;
- the nested :class:`~repro.stats.sampling.ProgressiveSampler` sample (or
  ``plan.draw`` for single settings);
- the scalar estimators and the :class:`ProfileRepair` Eq. 12/13 terms.

Tests pin the kernels to these results within the repo's 1e-9
numerical-equivalence policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.correction import CorrectionSet
from repro.estimators.dispatch import estimate_query
from repro.estimators.quantile import SmokescreenQuantileEstimator
from repro.estimators.repair import ProfileRepair
from repro.estimators.smokescreen import SmokescreenMeanEstimator
from repro.estimators.variance import SmokescreenVarianceEstimator
from repro.experiments.metrics import true_error
from repro.experiments.trials import BOUND_DISPLAY_CAP
from repro.interventions.plan import InterventionPlan
from repro.query.processor import QueryProcessor
from repro.query.query import AggregateQuery
from repro.stats.sampling import ProgressiveSampler, SampleDesign
from repro.system.executor import child_rng


def plan_is_random(query: AggregateQuery, plan: InterventionPlan) -> bool:
    """The profiler's randomness classification (sequence models never)."""
    if getattr(query.model, "requires_sequence", False):
        return False
    return plan.is_random_for(query.dataset)


def scalar_estimate(
    query: AggregateQuery,
    values: np.ndarray,
    universe: int,
    is_random: bool,
    correction: CorrectionSet | None,
) -> tuple[float, float, int]:
    """One trial's ``(value, bound, n)`` under the correction-set policy."""
    population = query.dataset.frame_count
    aggregate = query.aggregate
    if aggregate.is_mean_family or aggregate.is_variance:
        estimator = (
            SmokescreenVarianceEstimator()
            if aggregate.is_variance
            else SmokescreenMeanEstimator()
        )
        basic = estimator.estimate(
            values, universe, query.delta, value_range=query.known_value_range
        )
        scale = population if aggregate.name in ("SUM", "COUNT") else 1.0
        basic = basic.scaled(scale)
        bound = basic.error_bound
        if correction is not None:
            reference = estimator.estimate(
                correction.values, population, query.delta,
                value_range=query.known_value_range,
            ).scaled(scale)
            corrected = ProfileRepair.corrected_mean_bound(basic.value, reference)
            bound = min(bound, corrected) if is_random else corrected
        return basic.value, bound, basic.n
    estimator = SmokescreenQuantileEstimator()
    q = query.effective_quantile
    basic = estimator.estimate(values, universe, q, query.delta, aggregate)
    bound = basic.error_bound
    if correction is not None:
        reference = estimator.estimate(
            correction.values, population, q, query.delta, aggregate
        )
        corrected = ProfileRepair.corrected_quantile_bound(
            basic.value, reference.value, correction.values, q, reference
        )
        bound = min(bound, corrected) if is_random else corrected
    return basic.value, bound, basic.n


@dataclass
class OracleSweep:
    """One ``(resolution, removal)`` fraction sweep, re-derived.

    Attributes:
        fractions: The evaluated fractions (early-stopped ones absent).
        values: Per-fraction per-trial values, ``(fractions, trials)``.
        bounds: Per-fraction per-trial bounds, ``(fractions, trials)``.
        sizes: Per-fraction sample sizes.
        invocations: Frames newly sampled per resolution side.
    """

    fractions: list[float]
    values: np.ndarray
    bounds: np.ndarray
    sizes: list[int]
    invocations: dict[int, int]


def sweep(
    processor: QueryProcessor,
    query: AggregateQuery,
    fractions: tuple[float, ...],
    resolution,
    removal: tuple,
    correction: CorrectionSet | None,
    root,
    unit: int,
    trials: int,
    early_stop_tolerance: float | None = None,
) -> OracleSweep:
    """A nested ascending sweep, one trial and one fraction at a time."""
    base = InterventionPlan.from_knobs(p=resolution, c=removal)
    eligible = base.eligible_indices(query.dataset, processor.suite)
    universe = int(eligible.size)
    effective = base.effective_resolution(query.dataset)
    full = processor.frame_values(query, effective, base.quality)
    is_random = plan_is_random(
        query, InterventionPlan.from_knobs(f=fractions[0], p=resolution, c=removal)
    )
    top = SampleDesign(universe, max(fractions)).size
    samplers = [
        ProgressiveSampler(universe, child_rng(root, unit, t), max_size=top)
        for t in range(trials)
    ]
    kept, values, bounds, sizes = [], [], [], []
    processed = [0] * trials
    invocations = 0
    previous: float | None = None
    for fraction in fractions:
        size = SampleDesign(universe, fraction).size
        row_values, row_bounds = [], []
        for t, sampler in enumerate(samplers):
            invocations += max(0, size - processed[t])
            processed[t] = max(processed[t], size)
            sample = full[eligible[sampler.prefix(size)]]
            value, bound, _ = scalar_estimate(
                query, sample, universe, is_random, correction
            )
            row_values.append(value)
            row_bounds.append(bound)
        kept.append(fraction)
        values.append(row_values)
        bounds.append(row_bounds)
        sizes.append(size)
        mean_bound = sum(row_bounds) / trials
        if (
            early_stop_tolerance is not None
            and previous is not None
            and abs(previous - mean_bound) < early_stop_tolerance
        ):
            break
        previous = mean_bound
    return OracleSweep(
        fractions=kept,
        values=np.array(values),
        bounds=np.array(bounds),
        sizes=sizes,
        invocations={effective.side: invocations} if invocations else {},
    )


def hypercube(
    processor: QueryProcessor,
    query: AggregateQuery,
    candidates,
    trials: int,
    root,
    correction: CorrectionSet | None = None,
    early_stop_tolerance: float | None = None,
) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """``(bounds, values, invocations)`` of the seeded hypercube.

    Unit ``ci * R + ri`` sweeps removal ``ci`` at resolution ``ri``; cells
    skipped by early stopping are NaN.
    """
    shape = (
        len(candidates.fractions),
        len(candidates.resolutions),
        len(candidates.removals),
    )
    bounds = np.full(shape, np.nan)
    values = np.full(shape, np.nan)
    invocations: dict[int, int] = {}
    for ci, removal in enumerate(candidates.removals):
        for ri, resolution in enumerate(candidates.resolutions):
            unit = ci * len(candidates.resolutions) + ri
            swept = sweep(
                processor, query, tuple(candidates.fractions), resolution,
                tuple(removal), correction, root, unit, trials,
                early_stop_tolerance,
            )
            for fi, _ in enumerate(swept.fractions):
                bounds[fi, ri, ci] = swept.bounds[fi].mean()
                values[fi, ri, ci] = swept.values[fi].mean()
            for side, count in swept.invocations.items():
                invocations[side] = invocations.get(side, 0) + count
    return bounds, values, invocations


def sampling_profile(
    processor: QueryProcessor,
    query: AggregateQuery,
    fractions: tuple[float, ...],
    trials: int,
    root,
    resolution=None,
    removal: tuple = (),
    correction: CorrectionSet | None = None,
    early_stop_tolerance: float | None = None,
) -> list[tuple[float, float, float, int]]:
    """``(fraction, value, bound, n)`` points of the seeded sampling axis.

    All trials share unit 0; early stopping truncates on the all-trials
    mean bound.
    """
    swept = sweep(
        processor, query, fractions, resolution, removal, correction, root,
        0, trials, early_stop_tolerance,
    )
    return [
        (fraction, float(swept.values[i].mean()), float(swept.bounds[i].mean()),
         swept.sizes[i])
        for i, fraction in enumerate(swept.fractions)
    ]


def plan_point(
    processor: QueryProcessor,
    query: AggregateQuery,
    plan: InterventionPlan,
    trials: int,
    root,
    unit: int,
    correction: CorrectionSet | None = None,
) -> tuple[float, float, int]:
    """``(value, bound, n)`` of one seeded setting; ``n`` is the max."""
    is_random = plan_is_random(query, plan)
    values, bounds, n = [], [], 0
    for t in range(trials):
        sample = plan.draw(query.dataset, child_rng(root, unit, t), processor.suite)
        value, bound, size = scalar_estimate(
            query,
            processor.values_for_sample(query, sample),
            sample.universe_size,
            is_random,
            correction,
        )
        values.append(value)
        bounds.append(bound)
        n = max(n, size)
    return float(np.mean(values)), float(np.mean(bounds)), n


def method_trial_arrays(
    processor: QueryProcessor,
    query: AggregateQuery,
    plan: InterventionPlan,
    methods: tuple[str, ...],
    trials: int,
    root,
    setting_index: int,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-method ``(bounds, true errors)`` over seeded shared trials."""
    bounds: dict[str, list[float]] = {method: [] for method in methods}
    errors: dict[str, list[float]] = {method: [] for method in methods}
    for t in range(trials):
        execution = processor.execute(
            query, plan, child_rng(root, setting_index, t)
        )
        for method in methods:
            estimate = estimate_query(query, execution, method)
            bounds[method].append(estimate.error_bound)
            errors[method].append(true_error(processor, query, estimate.value))
    return {
        method: (np.array(bounds[method]), np.array(errors[method]))
        for method in methods
    }


def repair_trial_arrays(
    processor: QueryProcessor,
    query: AggregateQuery,
    plan: InterventionPlan,
    correction_values: np.ndarray,
    trials: int,
    root,
    setting_index: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial capped ``(uncorrected, corrected, true error)`` arrays."""
    correction = CorrectionSet(
        frame_indices=np.arange(correction_values.size),
        values=correction_values,
        error_bound=float("nan"),
        trace=(),
    )
    is_random = plan.is_random_for(query.dataset)
    uncorrected, corrected, error = [], [], []
    for t in range(trials):
        sample = plan.draw(
            query.dataset, child_rng(root, setting_index, t), processor.suite
        )
        values = processor.values_for_sample(query, sample)
        value, basic_bound, _ = scalar_estimate(
            query, values, sample.universe_size, is_random, None
        )
        _, repaired, _ = scalar_estimate(
            query, values, sample.universe_size, is_random, correction
        )
        uncorrected.append(min(basic_bound, BOUND_DISPLAY_CAP))
        corrected.append(min(repaired, BOUND_DISPLAY_CAP))
        error.append(true_error(processor, query, value))
    return np.array(uncorrected), np.array(corrected), np.array(error)
