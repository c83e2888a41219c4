"""Multi-query workloads sharing samples and a correction set.

The paper's administrator determines "the appropriate degradation/accuracy
tradeoff for *each query in a workload*" (§1). Queries over the same corpus
and model share everything expensive — model outputs, the degraded sample,
and the correction set (which, once constructed, "can be used for
correcting error bounds of any combination of interventions", §3.2.5) — so
profiling them together costs barely more than profiling one.

:class:`QueryWorkload` bundles queries over one deployment, sizes a single
correction set at the most demanding query's elbow, and prices a shared
degradation plan for all of them at once. The administrator then needs one
plan satisfying *every* query's error target: :meth:`choose_sampling`
intersects the per-query admissible regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.correction import CorrectionSet, determine_correction_set
from repro.core.profile import Profile
from repro.core.profiler import DegradationProfiler
from repro.errors import ConfigurationError, ProfileError
from repro.query.processor import QueryProcessor
from repro.query.query import AggregateQuery


@dataclass(frozen=True)
class WorkloadChoice:
    """A sampling fraction satisfying every query's error target.

    Attributes:
        fraction: The chosen (smallest admissible) sampling fraction.
        bounds: Each query's bounded error at the chosen fraction, keyed
            by the query's label.
    """

    fraction: float
    bounds: Mapping[str, float]


class QueryWorkload:
    """Several aggregate queries over one corpus, profiled together."""

    def __init__(
        self,
        queries: list[AggregateQuery],
        processor: QueryProcessor,
        trials: int = 1,
    ) -> None:
        """Bundle queries over a shared deployment.

        Args:
            queries: The workload's queries; all must target the same
                corpus (they may use different aggregates and models).
            processor: The shared query processor.
            trials: Sampling trials averaged per profiled setting.
        """
        if not queries:
            raise ConfigurationError("a workload needs at least one query")
        corpora = {id(query.dataset) for query in queries}
        if len(corpora) != 1:
            raise ConfigurationError(
                "workload queries must share one corpus; profile different "
                "corpora separately"
            )
        labels = [query.label() for query in queries]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"duplicate query labels: {labels}")
        self._queries = list(queries)
        self._processor = processor
        self._profiler = DegradationProfiler(processor, trials=trials)

    @property
    def queries(self) -> list[AggregateQuery]:
        """The workload's queries (copy)."""
        return list(self._queries)

    def build_shared_correction_set(
        self, rng: np.random.Generator, tolerance: float = 0.02
    ) -> CorrectionSet:
        """One correction set serving every query in the workload.

        Each query's elbow heuristic may stop at a different size; the
        shared set uses the *largest* — a superset of every per-query set,
        so each query's repaired bound is at least as tight as with its own
        set (§3.2.5: one set corrects any combination of interventions).

        Args:
            rng: Randomness for the underlying sample. A single nested
                sampler is reused so the per-query sets are prefixes of the
                shared one.
            tolerance: Elbow threshold (paper: 2%).

        Returns:
            The shared correction set.
        """
        seed_state = rng.bit_generator.state
        largest: CorrectionSet | None = None
        for query in self._queries:
            rng.bit_generator.state = seed_state  # same underlying sample
            candidate = determine_correction_set(
                self._processor, query, rng, tolerance=tolerance
            )
            if largest is None or candidate.size > largest.size:
                largest = candidate
        assert largest is not None  # guarded by the constructor
        return largest

    def profile_sampling(
        self,
        fractions: tuple[float, ...],
        rng: np.random.Generator,
        correction: CorrectionSet | None = None,
    ) -> dict[str, Profile]:
        """Sampling-axis profiles for every query, keyed by query label.

        Args:
            fractions: Ascending fraction candidates, shared by all.
            rng: Trial randomness (each query gets its own derived stream
                so profiles are individually reproducible).
            correction: Optional shared correction set. Note a correction
                set holds *values*, which are model/aggregate-specific:
                when queries use different models, build per-query sets
                instead and pass None here.

        Returns:
            One profile per query.
        """
        seeds = rng.integers(0, 2**63 - 1, size=len(self._queries))
        profiles: dict[str, Profile] = {}
        for query, seed in zip(self._queries, seeds):
            query_correction = correction
            if correction is not None:
                # Re-evaluate the correction frames under THIS query's
                # model/aggregate so the values match.
                values = self._processor.true_values(query)[
                    correction.frame_indices
                ]
                query_correction = CorrectionSet(
                    frame_indices=correction.frame_indices,
                    values=values,
                    error_bound=correction.error_bound,
                    trace=correction.trace,
                )
            profiles[query.label()] = self._profiler.profile_sampling_seeded(
                query, fractions, int(seed), correction=query_correction
            )
        return profiles

    def choose_sampling(
        self,
        profiles: Mapping[str, Profile],
        max_errors: Mapping[str, float],
    ) -> WorkloadChoice:
        """The most aggressive fraction admissible for *every* query.

        Args:
            profiles: Per-query sampling profiles (from
                :meth:`profile_sampling`).
            max_errors: Per-query error targets, keyed by query label;
                every profiled query must have a target.

        Returns:
            The chosen fraction with each query's bound there.
        """
        missing = set(profiles) - set(max_errors)
        if missing:
            raise ProfileError(f"no error target for queries: {sorted(missing)}")

        admissible: set[float] | None = None
        for label, profile in profiles.items():
            target = max_errors[label]
            query_ok = {
                point.plan.fraction
                for point in profile.points
                if point.error_bound <= target
            }
            admissible = query_ok if admissible is None else admissible & query_ok
        if not admissible:
            raise ProfileError(
                "no profiled fraction satisfies every query's error target"
            )
        fraction = min(admissible)
        bounds = {}
        for label, profile in profiles.items():
            for point in profile.points:
                if point.plan.fraction == fraction:
                    bounds[label] = point.error_bound
                    break
        return WorkloadChoice(fraction=fraction, bounds=bounds)
