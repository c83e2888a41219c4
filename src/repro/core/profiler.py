"""Profile generation (paper §3.1, §3.3.2).

The :class:`DegradationProfiler` prices intervention candidates: for every
requested ``(f, p, c)`` setting it estimates the query answer and a tight
error bound, producing :class:`~repro.core.profile.Profile` curves or a
full :class:`~repro.core.profile.DegradationHypercube`.

Efficiency follows the paper's reuse strategy: for each (resolution,
removal) pair, sample fractions are evaluated in *ascending* order over a
nested (prefix) sample, so model outputs computed for a low fraction are
reused by every higher fraction, and the sweep can stop early once the
bound improves too slowly. Newly processed frames are recorded in an
optional :class:`~repro.system.costs.InvocationLedger` for cost accounting;
settings whose full-corpus outputs were served by the persistent detector
cache (:mod:`repro.detection.diskcache`) are already paid for and are not
recorded.

Every entry point is seeded: trial ``t`` of setting ``u`` draws from
:func:`repro.system.executor.child_rng` ``(root, u, t)``, so results are
independent of evaluation order — and therefore of the worker count when
a :class:`~repro.system.executor.ParallelExecutor` fans settings out over
processes.

A sweep computes every fraction grid point from ONE gather: each trial's
ordered draw (:func:`~repro.stats.sampling.ordered_draw_matrix`, up to the
top design size) indexes ``full[eligible]`` into one ``(trials, max_size)``
matrix, and since samples are nested, fraction ``f``'s sample is its first
``n_f`` columns. :class:`~repro.stats.prefix_moments.PrefixMoments` reduces
the matrix at the design sizes only, and the estimators' batch kernels
price every fraction from it — O(trials × n) of numpy work instead of
O(trials × fractions × n) of Python-level estimator calls. The scalar
estimators remain the reference: the tests re-derive cells trial by trial
and pin the kernels to them within the 1e-9 numerical-equivalence policy.

Bound selection per setting:

- plan with only random interventions: the basic Smokescreen bound; if a
  correction set is supplied, the tighter of the basic and corrected
  bounds (§5.2.2, first row of Figure 6).
- plan with non-random interventions: the corrected bound when a
  correction set is supplied; otherwise the (possibly invalid) uncorrected
  bound — kept available because the experiments compare both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.candidates import CandidateGrid
from repro.core.correction import CorrectionSet
from repro.core.profile import DegradationHypercube, Profile, ProfilePoint
from repro.errors import ConfigurationError
from repro.estimators.base import Estimate
from repro.estimators.quantile import SmokescreenQuantileEstimator
from repro.estimators.repair import ProfileRepair
from repro.estimators.smokescreen import SmokescreenMeanEstimator
from repro.estimators.variance import SmokescreenVarianceEstimator
from repro.interventions.plan import DegradedSample, InterventionPlan
from repro.query.processor import QueryProcessor
from repro.query.query import AggregateQuery
from repro.stats.prefix_moments import PrefixMoments
from repro.stats.sampling import SampleDesign, ordered_draw_matrix
from repro.system import telemetry
from repro.system.costs import InvocationLedger
from repro.system.executor import (
    ParallelExecutor,
    PlanUnit,
    RootSeed,
    SweepUnit,
    child_rng,
    merge_ledger_counts,
    normalize_root,
    run_plan_unit,
    run_sweep_unit,
    trial_chunks,
)
from repro.video.frame import ObjectClass
from repro.video.geometry import Resolution


@dataclass(frozen=True)
class PointEstimate:
    """Internal result for one degradation setting."""

    value: float
    error_bound: float
    n: int


@dataclass(frozen=True)
class SweptFraction:
    """Per-trial results at one fraction of a sweep (pre-averaging).

    Keeping per-trial arrays (instead of running sums) lets callers that
    split trials across work units concatenate chunks in trial order and
    reduce over the full array — the reduction then never depends on where
    the chunk boundaries fell.

    Attributes:
        fraction: The sampling fraction.
        values: Per-trial estimate values, in trial order.
        bounds: Per-trial error bounds, in trial order.
        size: Sample size ``n`` at this fraction.
    """

    fraction: float
    values: np.ndarray
    bounds: np.ndarray
    size: int

    def point(self) -> PointEstimate:
        """The trial-averaged point estimate."""
        return PointEstimate(
            value=float(self.values.mean()),
            error_bound=float(self.bounds.mean()),
            n=self.size,
        )


class DegradationProfiler:
    """Generates degradation-accuracy profiles for aggregate queries."""

    def __init__(
        self,
        processor: QueryProcessor,
        trials: int = 1,
        ledger: InvocationLedger | None = None,
    ) -> None:
        """Create a profiler.

        Args:
            processor: The query processor (owns model-output access).
            trials: Independent sampling trials averaged per setting;
                1 matches production use, larger values smooth the curves
                as the paper's experiments do (100 trials).
            ledger: Optional invocation ledger for cost accounting.
        """
        if trials <= 0:
            raise ConfigurationError(f"trials must be positive, got {trials}")
        self._processor = processor
        self._trials = trials
        self._ledger = ledger
        self._mean_estimator = SmokescreenMeanEstimator()
        self._quantile_estimator = SmokescreenQuantileEstimator()
        self._variance_estimator = SmokescreenVarianceEstimator()
        self._repair = ProfileRepair(self._mean_estimator, self._quantile_estimator)

    def _record_sampled(
        self,
        query: AggregateQuery,
        resolution: Resolution,
        quality: float,
        new_frames: int,
    ) -> None:
        """Account for newly sampled frames at a setting.

        Frames are free when the model's full-corpus outputs at this
        (resolution, quality) were served by the persistent detector cache
        — an earlier run already paid for them. Outputs evaluated in this
        process still charge per sampled frame: that is the paper's §5.3.1
        accounting of the in-process reuse strategy.
        """
        if self._ledger is None or new_frames <= 0:
            return
        if self._setting_precomputed(query, resolution, quality):
            return
        telemetry.count("profiler.frames_invoked", new_frames)
        self._ledger.record(resolution.side, new_frames)

    @staticmethod
    def _setting_precomputed(
        query: AggregateQuery, resolution: Resolution, quality: float
    ) -> bool:
        checker = getattr(query.model, "output_was_precomputed", None)
        if checker is None:
            return False
        return bool(checker(query.dataset, resolution, quality))

    @staticmethod
    def _plan_is_random(query: AggregateQuery, plan: InterventionPlan) -> bool:
        """Randomness classification, accounting for sequence models.

        For models that process frame sequences (paper §7), reduced frame
        sampling changes the model's inputs and is therefore *not* a random
        intervention; the basic bounds must not be trusted for them.
        """
        if getattr(query.model, "requires_sequence", False):
            return False
        return plan.is_random_for(query.dataset)

    def _estimate_values(
        self,
        query: AggregateQuery,
        values: np.ndarray,
        universe_size: int,
        plan_is_random: bool,
        correction: CorrectionSet | None,
    ) -> Estimate:
        """Bound for one trial's gathered sample values (scalar path)."""
        population = query.dataset.frame_count
        if query.aggregate.is_mean_family or query.aggregate.is_variance:
            if query.aggregate.is_variance:
                basic = self._variance_estimator.estimate(
                    values, universe_size, query.delta
                )
            else:
                basic = self._mean_estimator.estimate(
                    values,
                    universe_size,
                    query.delta,
                    value_range=query.known_value_range,
                )
            scale = (
                population if query.aggregate.name in ("SUM", "COUNT") else 1.0
            )
            basic = basic.scaled(scale) if scale != 1.0 else basic
            if correction is None:
                return basic
            corrected_bound = self._corrected_mean_bound(
                query, basic, correction, scale
            )
        else:
            basic = self._quantile_estimator.estimate(
                values,
                universe_size,
                query.effective_quantile,
                query.delta,
                query.aggregate,
            )
            if correction is None:
                return basic
            corrected_bound = self._corrected_quantile_bound(
                query, basic, correction
            )
        if plan_is_random:
            bound = min(basic.error_bound, corrected_bound)
        else:
            bound = corrected_bound
        return Estimate(
            value=basic.value,
            error_bound=bound,
            method=basic.method,
            n=basic.n,
            universe_size=basic.universe_size,
            extras=dict(basic.extras),
        )

    def _estimate_prefix_batch(
        self,
        query: AggregateQuery,
        moments: PrefixMoments,
        size: int,
        universe_size: int,
        plan_is_random: bool,
        correction: CorrectionSet | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batch analogue of :meth:`_estimate_values` over all trials.

        Prices the length-``size`` prefix of every trial row at once with
        the estimators' batch kernels, applying the same correction-set
        policy. The correction estimate is computed once per call instead
        of once per trial: it only depends on the correction set.

        Quantile aggregates keep the scalar path per trial (their
        distinct-value-table estimate has no cumulative form); the batch
        entry point is still the single place sweeps call.

        Returns:
            Per-trial ``(values, bounds)`` arrays, aligned with the rows.
        """
        population = query.dataset.frame_count
        if query.aggregate.is_mean_family or query.aggregate.is_variance:
            if query.aggregate.is_variance:
                estimator = self._variance_estimator
                batch = estimator.estimate_batch(
                    moments, size, universe_size, query.delta
                )
            else:
                estimator = self._mean_estimator
                batch = estimator.estimate_batch(
                    moments,
                    size,
                    universe_size,
                    query.delta,
                    value_range=query.known_value_range,
                )
            scale = (
                population if query.aggregate.name in ("SUM", "COUNT") else 1.0
            )
            if scale != 1.0:
                batch = batch.scaled(scale)
            if correction is None:
                return batch.values, batch.error_bounds
            correction_estimate = estimator.estimate(
                correction.values,
                population,
                query.delta,
                value_range=query.known_value_range,
            )
            if scale != 1.0:
                correction_estimate = correction_estimate.scaled(scale)
            corrected = ProfileRepair.corrected_mean_bound_batch(
                batch.values, correction_estimate
            )
            if plan_is_random:
                bounds = np.minimum(batch.error_bounds, corrected)
            else:
                bounds = corrected
            return batch.values, bounds

        values = np.empty(moments.trials)
        bounds = np.empty(moments.trials)
        for t in range(moments.trials):
            estimate = self._estimate_values(
                query,
                moments.row(t)[:size],
                universe_size,
                plan_is_random,
                correction,
            )
            values[t] = estimate.value
            bounds[t] = estimate.error_bound
        return values, bounds

    def _corrected_mean_bound(
        self,
        query: AggregateQuery,
        basic: Estimate,
        correction: CorrectionSet,
        scale: float,
    ) -> float:
        estimator = (
            self._variance_estimator
            if query.aggregate.is_variance
            else self._mean_estimator
        )
        correction_estimate = estimator.estimate(
            correction.values,
            query.dataset.frame_count,
            query.delta,
            value_range=query.known_value_range,
        )
        if scale != 1.0:
            correction_estimate = correction_estimate.scaled(scale)
        return ProfileRepair.corrected_mean_bound(basic.value, correction_estimate)

    def _corrected_quantile_bound(
        self, query: AggregateQuery, basic: Estimate, correction: CorrectionSet
    ) -> float:
        correction_estimate = self._quantile_estimator.estimate(
            correction.values,
            query.dataset.frame_count,
            query.effective_quantile,
            query.delta,
            query.aggregate,
        )
        return ProfileRepair.corrected_quantile_bound(
            basic.value,
            correction_estimate.value,
            correction.values,
            query.effective_quantile,
            correction_estimate,
        )

    def _point_from_samples(
        self,
        query: AggregateQuery,
        samples: list[DegradedSample],
        plan_is_random: bool,
        correction: CorrectionSet | None,
    ) -> PointEstimate:
        """Price drawn trial samples together via the batch kernels.

        Trials of one plan share the eligible universe, so their samples
        have equal sizes and stack into a prefix matrix; if a plan ever
        yields trial-varying sets, the per-trial scalar path takes over
        (and the reported ``n`` is the maximum across trials).
        """
        values_list = [
            self._processor.values_for_sample(query, sample)
            for sample in samples
        ]
        sizes = {array.size for array in values_list}
        universes = {sample.universe_size for sample in samples}
        if len(sizes) == 1 and len(universes) == 1:
            n = next(iter(sizes))
            moments = PrefixMoments(np.stack(values_list), (n,))
            values, bounds = self._estimate_prefix_batch(
                query,
                moments,
                n,
                next(iter(universes)),
                plan_is_random,
                correction,
            )
            return PointEstimate(
                value=float(values.mean()),
                error_bound=float(bounds.mean()),
                n=int(n),
            )
        values = np.empty(len(samples))
        bounds = np.empty(len(samples))
        n = 0
        for t, sample in enumerate(samples):
            estimate = self._estimate_values(
                query, values_list[t], sample.universe_size,
                plan_is_random, correction,
            )
            values[t] = estimate.value
            bounds[t] = estimate.error_bound
            n = max(n, estimate.n)
        return PointEstimate(
            value=float(values.mean()),
            error_bound=float(bounds.mean()),
            n=n,
        )

    def estimate_plan_seeded(
        self,
        query: AggregateQuery,
        plan: InterventionPlan,
        root: RootSeed,
        unit_index: int,
        correction: CorrectionSet | None = None,
    ) -> PointEstimate:
        """Price one setting with per-trial seed streams.

        Trial ``t`` draws its sample from ``child_rng(root, unit_index,
        t)``, so the result is a pure function of ``(root, unit_index)`` —
        independent of evaluation order, process, or sibling settings.

        Args:
            query: The query to profile.
            plan: The degradation setting.
            root: Root entropy of the seed stream.
            unit_index: This setting's index (first spawn-key coordinate).
            correction: Optional correction set for repair.

        Returns:
            The averaged value/bound at the setting. The reported ``n`` is
            the maximum sample size over trials.
        """
        plan_is_random = self._plan_is_random(query, plan)
        with telemetry.span("profiler.plan", unit=unit_index, trials=self._trials):
            samples = []
            for t in range(self._trials):
                rng = child_rng(root, unit_index, t)
                sample = plan.draw(query.dataset, rng, self._processor.suite)
                self._record_sampled(
                    query, sample.resolution, sample.quality, sample.size
                )
                samples.append(sample)
            telemetry.count("profiler.trials_priced", self._trials)
            return self._point_from_samples(
                query, samples, plan_is_random, correction
            )

    def sweep_fractions_seeded(
        self,
        query: AggregateQuery,
        fractions: tuple[float, ...],
        resolution: Resolution | None,
        removal: tuple[ObjectClass, ...],
        correction: CorrectionSet | None,
        root: RootSeed,
        unit_index: int,
        trial_indices: tuple[int, ...],
        early_stop_tolerance: float | None = None,
    ) -> list[SweptFraction]:
        """One (resolution, removal) fraction sweep with seeded trials.

        Trial ``t`` orders the eligible universe with ``child_rng(root,
        unit_index, t)`` (:func:`~repro.stats.sampling.ordered_draw`, up
        to the top design size); results are independent of which process
        runs the sweep and which other trials it shares the unit with.
        Every fraction's sample is a prefix of that ordering, so the values
        are gathered once into a ``(trials, max_size)`` matrix and each
        fraction is priced from its moments at the design sizes. The grid
        is validated before anything is drawn.

        Args:
            query: The query to profile.
            fractions: Ascending fraction candidates in ``(0, 1]``.
            resolution: Fixed resolution knob (None = native).
            removal: Fixed restricted classes.
            correction: Optional correction set.
            root: Root entropy of the seed stream.
            unit_index: This setting's index (first spawn-key coordinate).
            trial_indices: The trial coordinates this call evaluates.
            early_stop_tolerance: Stop the sweep when the mean bound over
                *these* trials improves by less than this; pass None when
                trials are split across units (the caller truncates after
                merging, on the all-trials mean).

        Returns:
            Per-fraction per-trial results, in ``trial_indices`` order;
            fractions skipped by early stopping are absent.
        """
        fractions = tuple(fractions)
        if not fractions:
            return []
        if list(fractions) != sorted(fractions):
            raise ConfigurationError("fractions must be ascending for reuse")
        base_plan = InterventionPlan.from_knobs(p=resolution, c=removal)
        eligible = base_plan.eligible_indices(query.dataset, self._processor.suite)
        universe = int(eligible.size)
        sizes = [SampleDesign(universe, f).size for f in fractions]
        effective_resolution = base_plan.effective_resolution(query.dataset)
        quality = base_plan.quality
        trials = len(trial_indices)
        with telemetry.span(
            "profiler.sweep",
            resolution=resolution.side if resolution is not None else "native",
            removal=len(removal),
            fractions=len(fractions),
            trials=trials,
        ):
            draws = ordered_draw_matrix(
                universe,
                [child_rng(root, unit_index, t) for t in trial_indices],
                sizes[-1],
            )
            with telemetry.span(
                "profiler.gather", eligible=universe, max_size=sizes[-1]
            ):
                full_values = self._processor.frame_values(
                    query, effective_resolution, quality
                )
                # Row t is full_values[eligible[draws[t]]]; every fraction's
                # sample is a prefix of it.
                value_matrix = full_values[eligible][draws]
            # The fraction knob never changes the randomness classification
            # (frame sampling is always the random intervention), so
            # classify the setting once.
            plan_is_random = self._plan_is_random(
                query,
                InterventionPlan.from_knobs(f=fractions[0], p=resolution, c=removal),
            )
            # All trials share the size trajectory, so the ledger is charged
            # ``new_frames × trials`` per fraction, and early stopping walks
            # the ascending fractions with the all-trials mean-bound rule.
            with telemetry.span(
                "profiler.price", trials=trials, fractions=len(fractions)
            ):
                moments = PrefixMoments(value_matrix, sizes)
                processed = 0
                results: list[SweptFraction] = []
                previous_bound: float | None = None
                for fraction, size in zip(fractions, sizes):
                    self._record_sampled(
                        query, effective_resolution, quality,
                        (size - processed) * trials,
                    )
                    processed = size
                    values, bounds = self._estimate_prefix_batch(
                        query, moments, size, universe, plan_is_random,
                        correction,
                    )
                    swept = SweptFraction(
                        fraction=fraction,
                        values=np.asarray(values, dtype=float),
                        bounds=np.asarray(bounds, dtype=float),
                        size=size,
                    )
                    results.append(swept)
                    telemetry.count("profiler.trials_priced", trials)
                    mean_bound = float(swept.bounds.mean())
                    if (
                        early_stop_tolerance is not None
                        and previous_bound is not None
                        and abs(previous_bound - mean_bound) < early_stop_tolerance
                    ):
                        telemetry.count("profiler.early_stop")
                        break
                    previous_bound = mean_bound
                return results

    # ------------------------------------------------------------------
    # Seeded, parallelizable profile generation.
    #
    # Results are a pure function of (query, settings, root): the same
    # bits come back for any worker count, any unit scheduling, and the
    # serial fallback. Work units run against fresh ledgers; their counts
    # are merged into this profiler's ledger in unit order.
    # ------------------------------------------------------------------

    def profile_sampling_seeded(
        self,
        query: AggregateQuery,
        fractions: tuple[float, ...],
        root: RootSeed,
        resolution: Resolution | None = None,
        removal: tuple[ObjectClass, ...] = (),
        correction: CorrectionSet | None = None,
        early_stop_tolerance: float | None = None,
        executor: ParallelExecutor | None = None,
    ) -> Profile:
        """Sampling-axis profile with seeded trials, parallel over trials.

        Trials are split into contiguous chunks (one work unit each); every
        trial keeps its own seed stream, so chunking is invisible to the
        result. Early stopping is applied *after* merging, on the
        all-trials mean bound — the kept points are exactly those the
        incremental strategy keeps, but the ledger reflects the full sweep
        (each unit cannot see the other units' bounds mid-flight).

        Args:
            query: The query.
            fractions: Ascending fraction candidates.
            root: Root entropy of the seed stream.
            resolution: Fixed resolution knob (None = native).
            removal: Fixed restricted classes.
            correction: Optional correction set.
            early_stop_tolerance: Post-hoc truncation threshold; None
                disables.
            executor: Execution substrate; defaults to serial.

        Returns:
            The sampling-axis profile.
        """
        executor = executor or ParallelExecutor()
        root_t = normalize_root(root)
        fractions = tuple(fractions)
        chunks = trial_chunks(self._trials, executor.worker_count(self._trials))
        units = [
            SweepUnit(
                query=query,
                fractions=fractions,
                resolution=resolution,
                removal=tuple(removal),
                correction=correction,
                trials=self._trials,
                root=root_t,
                unit_index=0,
                trial_indices=tuple(chunk),
                early_stop_tolerance=None,
                suite=self._processor.suite,
            )
            for chunk in chunks
        ]
        with telemetry.span(
            "profiler.profile_sampling", units=len(units), trials=self._trials
        ):
            outcomes = executor.map(run_sweep_unit, units)
        for _, counts in outcomes:
            merge_ledger_counts(self._ledger, counts)
        swept_chunks = [swept for swept, _ in outcomes]

        points: list[ProfilePoint] = []
        previous_bound: float | None = None
        for idx, fraction in enumerate(fractions):
            per_trial_values = np.concatenate(
                [chunk[idx].values for chunk in swept_chunks]
            )
            per_trial_bounds = np.concatenate(
                [chunk[idx].bounds for chunk in swept_chunks]
            )
            bound = float(per_trial_bounds.mean())
            points.append(
                ProfilePoint(
                    plan=InterventionPlan.from_knobs(
                        f=fraction, p=resolution, c=tuple(removal)
                    ),
                    error_bound=bound,
                    value=float(per_trial_values.mean()),
                    n=swept_chunks[0][idx].size,
                )
            )
            if (
                early_stop_tolerance is not None
                and previous_bound is not None
                and abs(previous_bound - bound) < early_stop_tolerance
            ):
                telemetry.count("profiler.early_stop")
                break
            previous_bound = bound
        return Profile(
            axis="sampling", points=tuple(points), query_label=query.label()
        )

    def _profile_plans_seeded(
        self,
        query: AggregateQuery,
        axis: str,
        plans: list[InterventionPlan],
        root: RootSeed,
        correction: CorrectionSet | None,
        executor: ParallelExecutor | None,
    ) -> Profile:
        """Price a list of settings as one plan unit each."""
        executor = executor or ParallelExecutor()
        root_t = normalize_root(root)
        units = [
            PlanUnit(
                query=query,
                plan=plan,
                correction=correction,
                trials=self._trials,
                root=root_t,
                unit_index=i,
                suite=self._processor.suite,
            )
            for i, plan in enumerate(plans)
        ]
        outcomes = executor.map(run_plan_unit, units)
        points = []
        for plan, (point, counts) in zip(plans, outcomes):
            merge_ledger_counts(self._ledger, counts)
            points.append(
                ProfilePoint(
                    plan=plan,
                    error_bound=point.error_bound,
                    value=point.value,
                    n=point.n,
                )
            )
        return Profile(axis=axis, points=tuple(points), query_label=query.label())

    def profile_resolution_seeded(
        self,
        query: AggregateQuery,
        resolutions: tuple[Resolution, ...],
        root: RootSeed,
        fraction: float = 0.5,
        removal: tuple[ObjectClass, ...] = (),
        correction: CorrectionSet | None = None,
        executor: ParallelExecutor | None = None,
    ) -> Profile:
        """Resolution-axis profile with seeded trials, parallel over settings.

        Args:
            query: The query.
            resolutions: Resolution candidates (ascending side order).
            root: Root entropy of the seed stream.
            fraction: Fixed sampling fraction.
            removal: Fixed restricted classes.
            correction: Optional correction set.
            executor: Execution substrate; defaults to serial.

        Returns:
            The resolution-axis profile.
        """
        plans = [
            InterventionPlan.from_knobs(f=fraction, p=resolution, c=tuple(removal))
            for resolution in resolutions
        ]
        return self._profile_plans_seeded(
            query, "resolution", plans, root, correction, executor
        )

    def profile_removal_seeded(
        self,
        query: AggregateQuery,
        removals: tuple[tuple[ObjectClass, ...], ...],
        root: RootSeed,
        fraction: float = 0.5,
        resolution: Resolution | None = None,
        correction: CorrectionSet | None = None,
        executor: ParallelExecutor | None = None,
    ) -> Profile:
        """Removal-axis profile with seeded trials, parallel over settings.

        Args:
            query: The query.
            removals: Restricted-class combinations; ``()`` = no removal.
            root: Root entropy of the seed stream.
            fraction: Fixed sampling fraction.
            resolution: Fixed resolution knob (None = native).
            correction: Optional correction set.
            executor: Execution substrate; defaults to serial.

        Returns:
            The removal-axis profile.
        """
        plans = [
            InterventionPlan.from_knobs(f=fraction, p=resolution, c=tuple(combo))
            for combo in removals
        ]
        return self._profile_plans_seeded(
            query, "removal", plans, root, correction, executor
        )

    def generate_hypercube_seeded(
        self,
        query: AggregateQuery,
        candidates: CandidateGrid,
        root: RootSeed,
        correction: CorrectionSet | None = None,
        early_stop_tolerance: float | None = None,
        executor: ParallelExecutor | None = None,
    ) -> DegradationHypercube:
        """Price the candidate grid, parallel over (resolution, removal).

        Each (removal, resolution) pair is one work unit sweeping the
        fraction axis with all trials inside it, so early stopping keeps
        its incremental semantics per unit. Unit ``ci * R + ri`` seeds
        trial ``t`` from ``child_rng(root, ci * R + ri, t)``.

        Args:
            query: The query.
            candidates: The candidate grid.
            root: Root entropy of the seed stream.
            correction: Optional correction set.
            early_stop_tolerance: Early-stop threshold for the fraction
                sweeps; None disables.
            executor: Execution substrate; defaults to serial.

        Returns:
            The degradation hypercube (bit-identical for any worker count).
        """
        executor = executor or ParallelExecutor()
        root_t = normalize_root(root)
        resolution_count = len(candidates.resolutions)
        units = [
            SweepUnit(
                query=query,
                fractions=tuple(candidates.fractions),
                resolution=resolution,
                removal=tuple(combo),
                correction=correction,
                trials=self._trials,
                root=root_t,
                unit_index=ci * resolution_count + ri,
                early_stop_tolerance=early_stop_tolerance,
                suite=self._processor.suite,
            )
            for ci, combo in enumerate(candidates.removals)
            for ri, resolution in enumerate(candidates.resolutions)
        ]
        with telemetry.span(
            "profiler.hypercube", units=len(units), trials=self._trials
        ):
            outcomes = executor.map(run_sweep_unit, units)

        shape = (
            len(candidates.fractions),
            len(candidates.resolutions),
            len(candidates.removals),
        )
        bounds = np.full(shape, math.nan)
        values = np.full(shape, math.nan)
        fraction_index = {f: i for i, f in enumerate(candidates.fractions)}
        for unit, (swept, counts) in zip(units, outcomes):
            merge_ledger_counts(self._ledger, counts)
            ci, ri = divmod(unit.unit_index, resolution_count)
            for item in swept:
                fi = fraction_index[item.fraction]
                point = item.point()
                bounds[fi, ri, ci] = point.error_bound
                values[fi, ri, ci] = point.value
        return DegradationHypercube(
            fractions=candidates.fractions,
            resolutions=candidates.resolutions,
            removals=candidates.removals,
            bounds=bounds,
            values=values,
            query_label=query.label(),
        )
