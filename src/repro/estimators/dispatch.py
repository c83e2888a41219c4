"""Routing a (query, execution, method) triple to the right estimator.

The mean-family estimators work at the mean level; SUM and COUNT scale the
result by the corpus length (paper §3.2.2–3.2.3: the video length is known
in advance, and scaling by a known constant leaves the relative bound
unchanged). MAX/MIN route to the quantile estimators. This module owns that
bookkeeping so experiments can ask for any method by name.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.estimators.base import (
    BatchEstimate,
    Estimate,
    MeanEstimator,
    QuantileEstimator,
)
from repro.estimators.classic import (
    CLTEstimator,
    HoeffdingEstimator,
    HoeffdingSerflingEstimator,
)
from repro.estimators.ebgs import EBGSEstimator
from repro.estimators.quantile import SmokescreenQuantileEstimator
from repro.estimators.smokescreen import SmokescreenMeanEstimator
from repro.estimators.stein import SteinEstimator
from repro.estimators.variance import (
    CLTVarianceEstimator,
    SmokescreenVarianceEstimator,
)
from repro.query.processor import DegradedExecution
from repro.query.query import AggregateQuery
from repro.stats.prefix_moments import PrefixMoments


def mean_estimator_registry() -> dict[str, MeanEstimator]:
    """Fresh instances of every mean-family estimator, keyed by name."""
    estimators: list[MeanEstimator] = [
        SmokescreenMeanEstimator(),
        EBGSEstimator(),
        HoeffdingEstimator(),
        HoeffdingSerflingEstimator(),
        CLTEstimator(),
    ]
    return {estimator.name: estimator for estimator in estimators}


def quantile_estimator_registry() -> dict[str, QuantileEstimator]:
    """Fresh instances of every quantile estimator, keyed by name."""
    estimators: list[QuantileEstimator] = [
        SmokescreenQuantileEstimator(),
        SteinEstimator(),
    ]
    return {estimator.name: estimator for estimator in estimators}


def variance_estimator_registry() -> dict[str, MeanEstimator]:
    """Fresh instances of every VAR estimator, keyed by name."""
    estimators: list[MeanEstimator] = [
        SmokescreenVarianceEstimator(),
        CLTVarianceEstimator(),
    ]
    return {estimator.name: estimator for estimator in estimators}


def estimate_query(
    query: AggregateQuery,
    execution: DegradedExecution,
    method: str = "smokescreen",
) -> Estimate:
    """Estimate a query's answer and error bound from a degraded execution.

    Args:
        query: The query (selects the aggregate and its parameters).
        execution: A degraded execution produced by
            :meth:`repro.query.processor.QueryProcessor.execute`.
        method: Estimator name — one of the mean registry for
            AVG/SUM/COUNT (``smokescreen``, ``ebgs``, ``hoeffding``,
            ``hoeffding-serfling``, ``clt``) or the quantile registry for
            MAX/MIN (``smokescreen``, ``stein``).

    Returns:
        The estimate, with SUM/COUNT answers scaled to the corpus length.
    """
    if query.aggregate.is_mean_family:
        registry = mean_estimator_registry()
        estimator = registry.get(method)
        if estimator is None:
            raise ConfigurationError(
                f"unknown mean estimator {method!r}; valid: {sorted(registry)}"
            )
        estimate = estimator.estimate(
            execution.values,
            execution.universe_size,
            query.delta,
            value_range=query.known_value_range,
        )
        if query.aggregate.name in ("SUM", "COUNT"):
            return estimate.scaled(execution.population_size)
        return estimate

    if query.aggregate.is_variance:
        registry_v = variance_estimator_registry()
        estimator_v = registry_v.get(method)
        if estimator_v is None:
            raise ConfigurationError(
                f"unknown variance estimator {method!r}; valid: "
                f"{sorted(registry_v)}"
            )
        return estimator_v.estimate(
            execution.values, execution.universe_size, query.delta
        )

    registry_q = quantile_estimator_registry()
    estimator_q = registry_q.get(method)
    if estimator_q is None:
        raise ConfigurationError(
            f"unknown quantile estimator {method!r}; valid: {sorted(registry_q)}"
        )
    return estimator_q.estimate(
        execution.values,
        execution.universe_size,
        query.effective_quantile,
        query.delta,
        query.aggregate,
    )


def estimate_batch(
    query: AggregateQuery,
    moments: PrefixMoments,
    n: int,
    universe_size: int,
    population_size: int,
    method: str = "smokescreen",
) -> BatchEstimate:
    """Batch analogue of :func:`estimate_query` over prefix moments.

    Prices the length-``n`` prefix of every trial at once with the same
    routing and scaling as the scalar path: mean-family methods use their
    vectorized ``estimate_batch`` kernels, while variance and quantile
    methods (whose estimators have no closed batch form) fall through the
    per-trial fallback of :class:`~repro.estimators.base.MeanEstimator` /
    :class:`~repro.estimators.base.QuantileEstimator`.

    Args:
        query: The query (selects the aggregate and its parameters).
        moments: Prefix moments of the ``(trials, max_size)`` value matrix,
            gathered under this query's degradation setting.
        n: Prefix length to price.
        universe_size: Eligible-universe size the trials sampled from.
        population_size: Total corpus length, for SUM/COUNT scaling.
        method: Estimator name, as for :func:`estimate_query`.

    Returns:
        Per-trial values and bounds, SUM/COUNT answers scaled to the
        corpus length.
    """
    if query.aggregate.is_mean_family:
        registry = mean_estimator_registry()
        estimator = registry.get(method)
        if estimator is None:
            raise ConfigurationError(
                f"unknown mean estimator {method!r}; valid: {sorted(registry)}"
            )
        batch = estimator.estimate_batch(
            moments,
            n,
            universe_size,
            query.delta,
            value_range=query.known_value_range,
        )
        if query.aggregate.name in ("SUM", "COUNT"):
            return batch.scaled(population_size)
        return batch

    if query.aggregate.is_variance:
        registry_v = variance_estimator_registry()
        estimator_v = registry_v.get(method)
        if estimator_v is None:
            raise ConfigurationError(
                f"unknown variance estimator {method!r}; valid: "
                f"{sorted(registry_v)}"
            )
        return estimator_v.estimate_batch(moments, n, universe_size, query.delta)

    registry_q = quantile_estimator_registry()
    estimator_q = registry_q.get(method)
    if estimator_q is None:
        raise ConfigurationError(
            f"unknown quantile estimator {method!r}; valid: {sorted(registry_q)}"
        )
    return estimator_q.estimate_batch(
        moments,
        n,
        universe_size,
        query.effective_quantile,
        query.delta,
        query.aggregate,
    )


def estimate_rows(
    query: AggregateQuery,
    matrix: np.ndarray,
    universe_size: int,
    population_size: int,
    method: str = "smokescreen",
) -> list[Estimate]:
    """Price every row of a raw value matrix with one batched kernel call.

    The serving-daemon entry point: N coalesced requests stack their
    sampled values into one ``(N, n)`` matrix, the prefix moments are
    built in a single pass, and :func:`estimate_batch` prices all rows at
    once. Every moment and bound operation is row-independent, so row
    ``i`` of the result is **bit-identical** to calling this function on
    ``matrix[i : i + 1]`` alone — the property the daemon's
    micro-batched-vs-serial determinism guarantee rests on.

    Args:
        query: The query (selects the aggregate and its parameters).
        matrix: ``(rows, n)`` value matrix; each row is one request's
            sampled values in draw order. All rows share the degradation
            setting, hence the same ``n``.
        universe_size: Eligible-universe size the rows sampled from.
        population_size: Total corpus length, for SUM/COUNT scaling.
        method: Estimator name, as for :func:`estimate_query`.

    Returns:
        One :class:`~repro.estimators.base.Estimate` per row, in order.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise ConfigurationError(
            f"estimate_rows needs a non-empty (rows, n) matrix, got shape "
            f"{matrix.shape}"
        )
    moments = PrefixMoments(matrix, (matrix.shape[1],))
    batch = estimate_batch(
        query,
        moments,
        matrix.shape[1],
        universe_size,
        population_size,
        method,
    )
    return [batch.trial(t) for t in range(matrix.shape[0])]
