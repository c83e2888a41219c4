"""EBGS baseline: the empirical Bernstein stopping algorithm as an estimator.

Mnih, Szepesvári & Audibert's EBGS [48] maintains, for every prefix length
``t`` of the sample stream, an empirical Bernstein confidence interval that
holds *simultaneously* for all ``t`` (via the union budget
``delta_t = delta / (t (t + 1))``), and tracks the running envelope

    LB = max_t (|x_bar_t| - c_t)        UB = min_t (|x_bar_t| + c_t).

The paper uses EBGS directly as an estimator (no stopping), with the same
bound-aware output construction as Algorithm 1. Smokescreen's improvement
over this baseline is twofold: it needs the interval only at the final
``n`` (no union penalty) and it uses the Hoeffding–Serfling inequality,
which suits small without-replacement samples better than the empirical
Bernstein bound.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.base import (
    BatchEstimate,
    Estimate,
    MeanEstimator,
    effective_range,
    effective_range_batch,
    validate_batch_request,
    validate_sample,
)
from repro.estimators.smokescreen import (
    bound_aware_batch_from_interval,
    bound_aware_estimate_from_interval,
)
from repro.stats.prefix_moments import PrefixMoments


class EBGSEstimator(MeanEstimator):
    """Empirical Bernstein stopping, used as a mean estimator."""

    name = "ebgs"

    def estimate(
        self,
        values: np.ndarray,
        universe_size: int,
        delta: float,
        value_range: float | None = None,
    ) -> Estimate:
        """See :class:`repro.estimators.base.MeanEstimator`.

        The running envelope over all prefixes is computed vectorised:
        prefix means and (population) standard deviations via cumulative
        sums, prefix radii from the union empirical Bernstein bound, then
        max/min over prefixes.
        """
        array = validate_sample(values, universe_size)
        n = array.size
        t = np.arange(1, n + 1, dtype=float)

        cumsum = np.cumsum(array)
        cumsum_sq = np.cumsum(array * array)
        prefix_mean = cumsum / t
        prefix_var = np.maximum(cumsum_sq / t - prefix_mean**2, 0.0)
        prefix_std = np.sqrt(prefix_var)

        # EBGS assumes a known range; by default we use the sample range
        # of the full stream (keeping the methods comparable), or the
        # a-priori range when one is supplied.
        sample_range = effective_range(array, value_range)
        log_term = np.log(3.0 * t * (t + 1.0) / delta)
        radii = prefix_std * np.sqrt(2.0 * log_term / t) + (
            3.0 * sample_range * log_term / t
        )

        lower = float(np.max(np.abs(prefix_mean) - radii))
        upper = float(np.min(np.abs(prefix_mean) + radii))
        lower = max(0.0, lower)
        # A crossed envelope (lower > upper) can only arise when some prefix
        # interval already excluded the truth; collapse it to the midpoint
        # so the output formulas stay well defined.
        if lower > upper:
            lower = upper = (lower + upper) / 2.0

        sample_mean = float(prefix_mean[-1])
        return bound_aware_estimate_from_interval(
            sample_mean, upper, lower, n, universe_size, self.name
        )

    def estimate_batch(
        self,
        moments: PrefixMoments,
        n: int,
        universe_size: int,
        delta: float,
        value_range: float | None = None,
    ) -> BatchEstimate:
        """Vectorized EBGS envelope over all trials at one prefix length.

        The ``(trials, n)`` prefix mean/variance matrices come straight
        from the prefix moments' running sums; the per-prefix radii and the
        max/min envelope reduce along the prefix axis. Row-for-row this
        performs the same sequential cumulative arithmetic as the scalar
        path, so the agreement is exact, not merely within tolerance.
        """
        validate_batch_request(moments, n, universe_size)
        t = np.arange(1, n + 1, dtype=float)
        prefix_mean = moments.prefix_mean_matrix(n)
        prefix_std = np.sqrt(moments.prefix_variance_matrix(n))

        ranges = np.asarray(effective_range_batch(moments, n, value_range))
        log_term = np.log(3.0 * t * (t + 1.0) / delta)
        radii = prefix_std * np.sqrt(2.0 * log_term / t) + (
            3.0 * ranges.reshape(-1, 1) * log_term / t
            if ranges.ndim
            else 3.0 * ranges * log_term / t
        )

        lower = np.max(np.abs(prefix_mean) - radii, axis=1)
        upper = np.min(np.abs(prefix_mean) + radii, axis=1)
        lower = np.maximum(0.0, lower)
        # Crossed envelopes collapse to their midpoints, per trial.
        crossed = lower > upper
        midpoint = (lower + upper) / 2.0
        lower = np.where(crossed, midpoint, lower)
        upper = np.where(crossed, midpoint, upper)

        values, bounds = bound_aware_batch_from_interval(
            prefix_mean[:, -1], upper, lower
        )
        return BatchEstimate(
            values=values,
            error_bounds=bounds,
            method=self.name,
            n=n,
            universe_size=universe_size,
        )
