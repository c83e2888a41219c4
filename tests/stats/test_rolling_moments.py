"""Streaming moment engines vs their from-scratch references.

Two contracts, one per engine:

- :class:`SlidingWindowMoments` must track a from-scratch recomputation of
  the retained window within the repo's 1e-9 policy, with **exact** extrema.
- :class:`DecayedMoments` must satisfy the closed-form weight identities
  and match a directly evaluated weighted mean/variance.

Plus the large-offset regression: shifted cumulants must survive a ~1e8
common offset that catastrophically cancels the raw ``E[x²] − E[x]²`` form.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, EstimationError
from repro.stats.prefix_moments import (
    DecayedMoments,
    PrefixMoments,
    SlidingWindowMoments,
)

RTOL = 1e-9
ATOL = 1e-12

finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(finite_values, min_size=1, max_size=120)


class TestSlidingWindowMoments:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowMoments(0)

    def test_empty_window_rejects_queries(self):
        window = SlidingWindowMoments(4)
        with pytest.raises(EstimationError):
            window.mean()

    def test_append_rejects_non_finite(self):
        window = SlidingWindowMoments(4)
        with pytest.raises(EstimationError):
            window.append(math.inf)

    def test_extend_is_atomic_on_non_finite(self):
        window = SlidingWindowMoments(4)
        window.extend([1.0, 2.0])
        with pytest.raises(EstimationError):
            window.extend([3.0, math.nan])
        assert window.count == 2
        np.testing.assert_array_equal(window.values(), [1.0, 2.0])

    def test_matches_scratch_recompute_with_offset(self):
        rng = np.random.default_rng(3)
        values = rng.gamma(2.0, 3.0, size=500) + 1e6
        window = SlidingWindowMoments(32)
        for i, value in enumerate(values):
            window.append(value)
            retained = values[max(0, i + 1 - 32) : i + 1]
            assert window.count == retained.size
            assert window.total_appended == i + 1
            np.testing.assert_allclose(
                window.mean(), retained.mean(), rtol=RTOL, atol=ATOL
            )
            np.testing.assert_allclose(
                window.variance(), retained.var(), rtol=1e-6, atol=1e-6
            )
            assert window.minimum() == retained.min()
            assert window.maximum() == retained.max()
            assert window.value_range() == retained.max() - retained.min()
        assert window.is_full

    def test_ddof_variance(self):
        window = SlidingWindowMoments(8)
        window.extend([1.0, 2.0, 4.0, 8.0])
        expected = np.array([1.0, 2.0, 4.0, 8.0]).var(ddof=1)
        np.testing.assert_allclose(
            window.variance(ddof=1), expected, rtol=RTOL, atol=ATOL
        )
        with pytest.raises(ConfigurationError):
            window.variance(ddof=4)

    @settings(max_examples=60, deadline=None)
    @given(
        values=value_lists,
        capacity=st.integers(min_value=1, max_value=16),
    )
    def test_property_window_equals_scratch(self, values, capacity):
        window = SlidingWindowMoments(capacity)
        array = np.array(values)
        for i, value in enumerate(values):
            window.append(value)
            retained = array[max(0, i + 1 - capacity) : i + 1]
            np.testing.assert_allclose(
                window.mean(), retained.mean(), rtol=1e-9, atol=1e-6
            )
            assert window.minimum() == retained.min()
            assert window.maximum() == retained.max()


class TestDecayedMoments:
    @pytest.mark.parametrize("decay", [0.0, 1.0, -0.5, math.nan, math.inf])
    def test_rejects_bad_decay(self, decay):
        with pytest.raises(ConfigurationError):
            DecayedMoments(decay)

    def test_empty_rejects_queries(self):
        decayed = DecayedMoments(0.9)
        with pytest.raises(EstimationError):
            decayed.mean()
        with pytest.raises(EstimationError):
            decayed.effective_size()

    def test_append_rejects_non_finite(self):
        decayed = DecayedMoments(0.9)
        with pytest.raises(EstimationError):
            decayed.append(math.nan)

    def test_extend_is_atomic_on_non_finite(self):
        decayed = DecayedMoments(0.9)
        decayed.extend([1.0, 2.0])
        weight = decayed.weight
        with pytest.raises(EstimationError):
            decayed.extend([3.0, math.inf])
        assert decayed.count == 2
        assert decayed.weight == weight

    def test_weight_identity_and_saturation(self):
        decay = 0.97
        decayed = DecayedMoments(decay)
        for n in range(1, 400):
            decayed.append(float(n % 7))
            expected = (1.0 - decay**n) / (1.0 - decay)
            np.testing.assert_allclose(
                decayed.weight, expected, rtol=RTOL, atol=ATOL
            )
        ceiling = (1.0 + decay) / (1.0 - decay)
        assert decayed.effective_size() <= ceiling + 1e-9

    def test_matches_direct_weighted_moments(self):
        rng = np.random.default_rng(5)
        values = rng.gamma(2.0, 3.0, size=200)
        decay = 0.9
        decayed = DecayedMoments(decay)
        decayed.extend(values)
        weights = decay ** np.arange(len(values) - 1, -1, -1, dtype=float)
        expected_mean = np.average(values, weights=weights)
        expected_var = np.average(
            (values - expected_mean) ** 2, weights=weights
        )
        np.testing.assert_allclose(
            decayed.mean(), expected_mean, rtol=RTOL, atol=ATOL
        )
        np.testing.assert_allclose(
            decayed.variance(), expected_var, rtol=1e-7, atol=1e-9
        )
        assert decayed.minimum() == values.min()
        assert decayed.maximum() == values.max()

    @settings(max_examples=60, deadline=None)
    @given(
        values=value_lists,
        decay=st.floats(min_value=0.05, max_value=0.995),
    )
    def test_property_weight_and_mean(self, values, decay):
        decayed = DecayedMoments(decay)
        decayed.extend(values)
        n = len(values)
        expected_weight = (1.0 - decay**n) / (1.0 - decay)
        np.testing.assert_allclose(
            decayed.weight, expected_weight, rtol=1e-9, atol=1e-9
        )
        weights = decay ** np.arange(n - 1, -1, -1, dtype=float)
        expected_mean = np.average(np.array(values), weights=weights)
        np.testing.assert_allclose(
            decayed.mean(), expected_mean, rtol=1e-9, atol=1e-6
        )
        assert 0.0 < decayed.effective_size() <= n + 1e-9


class TestLargeOffsetRegression:
    """Shifted cumulants must survive a large common offset.

    The raw ``E[x²] − E[x]²`` form loses every significant bit of a
    unit-scale spread once values sit near 1e8 (float64 keeps ~16 digits;
    the squares eat all of them). The shifted form keeps the spread.
    """

    def test_batch_variance_at_1e8_offset(self):
        rng = np.random.default_rng(13)
        matrix = rng.normal(0.0, 1.0, size=(4, 200)) + 1e8
        moments = PrefixMoments(matrix, (2, 50, 200))
        for n in (2, 50, 200):
            np.testing.assert_allclose(
                moments.variance(n),
                matrix[:, :n].var(axis=1),
                rtol=1e-6,
            )
        # Unit-scale spread must survive: the cancelling form collapses
        # these to 0.0 (or negative-clipped garbage) at this offset.
        assert np.all(moments.variance(200) > 0.5)
        np.testing.assert_allclose(
            moments.prefix_variance_matrix(200)[:, 1:],
            np.stack(
                [matrix[:, :n].var(axis=1) for n in range(2, 201)], axis=1
            ),
            rtol=1e-5,
        )

    def test_second_moment_reconstruction_at_offset(self):
        rng = np.random.default_rng(19)
        matrix = rng.normal(0.0, 1.0, size=(3, 64)) + 1e8
        moments = PrefixMoments(matrix, (64,))
        np.testing.assert_allclose(
            moments.second_moment(64),
            (matrix**2).mean(axis=1),
            rtol=1e-9,
        )
