"""Shared trial machinery for the figure experiments.

Every §5 experiment repeats its workload over independent sampling trials
(100 in the paper) and averages. The helpers here draw one degraded sample
per trial and feed the *same* sample to every method, which is both faster
(model outputs are cached) and a fairer comparison (methods differ only in
their estimation, not their luck).

Every trial has its own :func:`~repro.system.executor.child_rng` stream
keyed on ``(setting_index, trial)``, which makes the summaries a pure
function of the root seed — independent of trial order and therefore safe
to fan out over a :class:`~repro.system.executor.ParallelExecutor` in
contiguous trial chunks (workers return per-trial arrays; the reduction
always runs over the full concatenated array, so chunk boundaries are
invisible). Trials that stack into one prefix matrix are priced together
by the batch kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.estimators.base import Estimate
from repro.estimators.dispatch import estimate_batch, estimate_query
from repro.experiments.metrics import true_error
from repro.interventions.plan import InterventionPlan
from repro.query.processor import QueryProcessor
from repro.query.query import AggregateQuery
from repro.stats.prefix_moments import PrefixMoments
from repro.system.executor import (
    ParallelExecutor,
    RootSeed,
    child_rng,
    normalize_root,
    trial_chunks,
)


@dataclass(frozen=True)
class TrialSummary:
    """Per-method summary of one degradation setting over many trials.

    Attributes:
        mean_bound: Mean (finite) error bound across trials.
        mean_true_error: Mean true error of the method's estimates.
        violation_rate: Fraction of trials with bound below true error.
    """

    mean_bound: float
    mean_true_error: float
    violation_rate: float


def _method_trial_arrays(
    processor: QueryProcessor,
    query: AggregateQuery,
    plan: InterventionPlan,
    methods: tuple[str, ...],
    rngs: list[np.random.Generator],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-trial (bounds, errors) arrays per method, one trial per rng.

    The trial executions stack into one prefix-moment matrix and each
    method is priced once across all trials by
    :func:`repro.estimators.dispatch.estimate_batch`. Trials whose
    executions differ in shape — a plan with trial-varying eligible sets —
    or are empty take the per-trial scalar path.
    """
    executions = [processor.execute(query, plan, rng) for rng in rngs]
    sizes = {execution.values.size for execution in executions}
    universes = {execution.universe_size for execution in executions}
    populations = {execution.population_size for execution in executions}
    if len(sizes) == len(universes) == len(populations) == 1 and 0 not in sizes:
        n = next(iter(sizes))
        moments = PrefixMoments(
            np.stack([execution.values for execution in executions]), (n,)
        )
        per_method: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for method in methods:
            batch = estimate_batch(
                query,
                moments,
                n,
                next(iter(universes)),
                next(iter(populations)),
                method,
            )
            per_method[method] = (
                batch.error_bounds,
                np.array(
                    [
                        true_error(processor, query, float(value))
                        for value in batch.values
                    ]
                ),
            )
        return per_method
    bounds: dict[str, list[float]] = {method: [] for method in methods}
    errors: dict[str, list[float]] = {method: [] for method in methods}
    for execution in executions:
        for method in methods:
            estimate: Estimate = estimate_query(query, execution, method)
            bounds[method].append(estimate.error_bound)
            errors[method].append(true_error(processor, query, estimate.value))
    return {
        method: (np.array(bounds[method]), np.array(errors[method]))
        for method in methods
    }


def _summarize_method_trials(
    methods: tuple[str, ...],
    per_method: dict[str, tuple[np.ndarray, np.ndarray]],
) -> dict[str, TrialSummary]:
    """Reduce per-trial arrays to the per-method summaries."""
    summaries: dict[str, TrialSummary] = {}
    for method in methods:
        method_bounds, method_errors = per_method[method]
        finite = method_bounds[np.isfinite(method_bounds)]
        summaries[method] = TrialSummary(
            mean_bound=float(finite.mean()) if finite.size else float("inf"),
            mean_true_error=float(method_errors.mean()),
            violation_rate=float(np.mean(method_bounds < method_errors)),
        )
    return summaries


@dataclass(frozen=True)
class MethodTrialsChunk:
    """Picklable work unit: a contiguous run of seeded method trials.

    Attributes:
        processor: The query processor.
        query: The query.
        plan: The degradation setting.
        methods: Estimator names to score.
        root: Root entropy of the seed stream.
        setting_index: First spawn-key coordinate of the setting.
        trial_indices: The trial coordinates this chunk evaluates.
    """

    processor: QueryProcessor
    query: AggregateQuery
    plan: InterventionPlan
    methods: tuple[str, ...]
    root: tuple[int, ...]
    setting_index: int
    trial_indices: tuple[int, ...]


def run_method_trials_chunk(
    chunk: MethodTrialsChunk,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Execute one chunk of seeded method trials (worker entry point)."""
    rngs = [
        child_rng(chunk.root, chunk.setting_index, t) for t in chunk.trial_indices
    ]
    return _method_trial_arrays(
        chunk.processor,
        chunk.query,
        chunk.plan,
        chunk.methods,
        rngs,
    )


def run_method_trials_seeded(
    processor: QueryProcessor,
    query: AggregateQuery,
    plan: InterventionPlan,
    methods: tuple[str, ...],
    trials: int,
    root: RootSeed,
    setting_index: int = 0,
    executor: ParallelExecutor | None = None,
) -> dict[str, TrialSummary]:
    """Run one degradation setting for several methods over shared trials.

    Trial ``t`` draws its sample from ``child_rng(root, setting_index,
    t)``, so summaries are bit-identical for any worker count.

    Args:
        processor: The query processor.
        query: The query.
        plan: The degradation setting.
        methods: Estimator names to score (all must fit the aggregate).
        trials: Number of independent sampling trials.
        root: Root entropy of the seed stream.
        setting_index: Distinguishes settings sharing one root (e.g. the
            fractions of a Figure 4 curve).
        executor: Execution substrate; defaults to serial.

    Returns:
        Per-method trial summaries.
    """
    executor = executor or ParallelExecutor()
    methods = tuple(methods)
    root_t = normalize_root(root)
    payloads = [
        MethodTrialsChunk(
            processor=processor,
            query=query,
            plan=plan,
            methods=methods,
            root=root_t,
            setting_index=setting_index,
            trial_indices=tuple(chunk),
        )
        for chunk in trial_chunks(trials, executor.worker_count(trials))
    ]
    results = executor.map(run_method_trials_chunk, payloads)
    merged = {
        method: (
            np.concatenate([result[method][0] for result in results]),
            np.concatenate([result[method][1] for result in results]),
        )
        for method in methods
    }
    return _summarize_method_trials(methods, merged)


@dataclass(frozen=True)
class RepairTrialSummary:
    """Averages of one degradation setting's repair comparison.

    Attributes:
        uncorrected_bound: Mean basic bound (possibly invalid under
            non-random interventions).
        corrected_bound: Mean Algorithm 3 bound.
        true_error: Mean per-trial true error of the degraded estimates.
    """

    uncorrected_bound: float
    corrected_bound: float
    true_error: float


def _repair_trial_arrays(
    processor: QueryProcessor,
    query: AggregateQuery,
    plan: InterventionPlan,
    correction_values: np.ndarray,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (capped uncorrected, capped corrected, error) arrays.

    Per trial: draw the degraded sample, compute the basic Smokescreen
    estimate and the Algorithm 3 corrected bound against a *fixed*
    correction set, and score the estimate's per-trial true error. When
    the plan is effectively random, the corrected bound reported is the
    tighter of the two (the §5.2.2 policy).

    Mean-family and variance settings stack the trial samples into a
    prefix matrix, price every trial's basic estimate with one batch call,
    and broadcast the Equation (12) correction over the per-trial answers.
    Quantile settings (their estimator and Equation (13) have no batch
    form) and trials of differing shape take the per-trial scalar path.
    """
    from repro.estimators.quantile import SmokescreenQuantileEstimator
    from repro.estimators.repair import ProfileRepair
    from repro.estimators.smokescreen import SmokescreenMeanEstimator
    from repro.estimators.variance import SmokescreenVarianceEstimator

    mean_estimator = SmokescreenMeanEstimator()
    quantile_estimator = SmokescreenQuantileEstimator()
    variance_estimator = SmokescreenVarianceEstimator()
    population = query.dataset.frame_count
    is_random = plan.is_random_for(query.dataset)

    if query.aggregate.is_mean_family:
        correction_estimate = mean_estimator.estimate(
            correction_values, population, query.delta,
            value_range=query.known_value_range,
        )
    elif query.aggregate.is_variance:
        correction_estimate = variance_estimator.estimate(
            correction_values, population, query.delta
        )
    else:
        correction_estimate = quantile_estimator.estimate(
            correction_values,
            population,
            query.effective_quantile,
            query.delta,
            query.aggregate,
        )

    samples = [plan.draw(query.dataset, rng, processor.suite) for rng in rngs]
    value_arrays = [
        processor.values_for_sample(query, sample) for sample in samples
    ]

    if (
        (query.aggregate.is_mean_family or query.aggregate.is_variance)
        and len({array.size for array in value_arrays}) == 1
        and len({sample.universe_size for sample in samples}) == 1
        and value_arrays[0].size > 0
    ):
        estimator = (
            variance_estimator if query.aggregate.is_variance else mean_estimator
        )
        n = value_arrays[0].size
        moments = PrefixMoments(np.stack(value_arrays), (n,))
        batch = estimator.estimate_batch(
            moments,
            n,
            samples[0].universe_size,
            query.delta,
            value_range=query.known_value_range,
        )
        corrected = ProfileRepair.corrected_mean_bound_batch(
            batch.values, correction_estimate
        )
        if is_random:
            corrected = np.minimum(batch.error_bounds, corrected)
        errors = np.array(
            [
                true_error(processor, query, float(value))
                for value in batch.values
            ]
        )
        return (
            np.minimum(batch.error_bounds, BOUND_DISPLAY_CAP),
            np.minimum(corrected, BOUND_DISPLAY_CAP),
            errors,
        )

    uncorrected_list: list[float] = []
    corrected_list: list[float] = []
    error_list: list[float] = []
    for trial, sample in enumerate(samples):
        values = value_arrays[trial]
        if query.aggregate.is_mean_family or query.aggregate.is_variance:
            estimator = (
                variance_estimator
                if query.aggregate.is_variance
                else mean_estimator
            )
            basic = estimator.estimate(
                values, sample.universe_size, query.delta,
                value_range=query.known_value_range,
            )
            corrected = ProfileRepair.corrected_mean_bound(
                basic.value, correction_estimate
            )
        else:
            basic = quantile_estimator.estimate(
                values,
                sample.universe_size,
                query.effective_quantile,
                query.delta,
                query.aggregate,
            )
            corrected = ProfileRepair.corrected_quantile_bound(
                basic.value,
                correction_estimate.value,
                correction_values,
                query.effective_quantile,
                correction_estimate,
            )
        if is_random:
            corrected = min(basic.error_bound, corrected)
        uncorrected_list.append(capped(basic.error_bound))
        corrected_list.append(capped(corrected))
        error_list.append(true_error(processor, query, basic.value))
    return (
        np.array(uncorrected_list),
        np.array(corrected_list),
        np.array(error_list),
    )


@dataclass(frozen=True)
class RepairTrialsChunk:
    """Picklable work unit: a contiguous run of seeded repair trials.

    Attributes:
        processor: The query processor.
        query: The query.
        plan: The degradation setting.
        correction_values: The correction set's values.
        root: Root entropy of the seed stream.
        setting_index: First spawn-key coordinate of the setting.
        trial_indices: The trial coordinates this chunk evaluates.
    """

    processor: QueryProcessor
    query: AggregateQuery
    plan: InterventionPlan
    correction_values: np.ndarray
    root: tuple[int, ...]
    setting_index: int
    trial_indices: tuple[int, ...]


def run_repair_trials_chunk(
    chunk: RepairTrialsChunk,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Execute one chunk of seeded repair trials (worker entry point)."""
    rngs = [
        child_rng(chunk.root, chunk.setting_index, t) for t in chunk.trial_indices
    ]
    return _repair_trial_arrays(
        chunk.processor,
        chunk.query,
        chunk.plan,
        chunk.correction_values,
        rngs,
    )


def run_repair_trials_seeded(
    processor: QueryProcessor,
    query: AggregateQuery,
    plan: InterventionPlan,
    correction_values: np.ndarray,
    trials: int,
    root: RootSeed,
    setting_index: int = 0,
    executor: ParallelExecutor | None = None,
) -> RepairTrialSummary:
    """Compare the basic and corrected bounds over shared trials.

    Trial ``t`` draws its sample from ``child_rng(root, setting_index,
    t)``; see :func:`_repair_trial_arrays` for the per-trial comparison.

    Args:
        processor: The query processor.
        query: The query.
        plan: The degradation setting.
        correction_values: The correction set's values (native resolution).
        trials: Number of independent sampling trials.
        root: Root entropy of the seed stream.
        setting_index: Distinguishes settings sharing one root (e.g. the
            knobs of a Figure 6 row).
        executor: Execution substrate; defaults to serial.

    Returns:
        The averaged summary (bit-identical for any worker count).
    """
    executor = executor or ParallelExecutor()
    root_t = normalize_root(root)
    payloads = [
        RepairTrialsChunk(
            processor=processor,
            query=query,
            plan=plan,
            correction_values=correction_values,
            root=root_t,
            setting_index=setting_index,
            trial_indices=tuple(chunk),
        )
        for chunk in trial_chunks(trials, executor.worker_count(trials))
    ]
    results = executor.map(run_repair_trials_chunk, payloads)
    uncorrected = np.concatenate([r[0] for r in results])
    corrected = np.concatenate([r[1] for r in results])
    error = np.concatenate([r[2] for r in results])
    return RepairTrialSummary(
        uncorrected_bound=float(uncorrected.mean()),
        corrected_bound=float(corrected.mean()),
        true_error=float(error.mean()),
    )


#: Display cap for degenerate bounds. A corrected bound is infinite when
#: the correction estimate itself degenerates (its interval touches zero);
#: the estimator reports that honestly, and the experiment tables clamp it
#: here so averages stay readable.
BOUND_DISPLAY_CAP = 5.0


def capped(bound: float, cap: float = BOUND_DISPLAY_CAP) -> float:
    """Clamp a (possibly infinite) bound for table averaging."""
    return min(bound, cap)


def fraction_grid(end_fraction: float, points: int = 8) -> tuple[float, ...]:
    """A sweep grid ending at a figure's cut-off fraction.

    The paper plots each Figure 4 curve from a very small fraction up to
    the point where it flattens; we use a geometric grid so the small-n
    region (where the methods differ most) is well resolved.

    Args:
        end_fraction: The largest fraction (the paper's cut-off).
        points: Number of grid points.

    Returns:
        Ascending fractions ending at ``end_fraction``.
    """
    start = end_fraction / 12.0
    grid = np.geomspace(start, end_fraction, points)
    return tuple(float(f) for f in grid)
