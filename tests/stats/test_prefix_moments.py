"""Tests for the prefix moment engine.

The engine's contract: every statistic it serves at a declared prefix
length must equal the statistic numpy computes directly on the sliced
prefix — bit for bit on integer-valued matrices (segment sums of integers
are exact), within the repo's 1e-9 numerical-equivalence policy on float
matrices (segment sums accumulate in a different order than numpy's
pairwise reductions) — and a length that was not declared must raise.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError, EstimationError
from repro.stats.prefix_moments import PrefixMoments
from repro.stats.sampling import ProgressiveSampler, ordered_draw_matrix
from repro.system.executor import child_rng

RTOL = 1e-9
ATOL = 1e-12


@pytest.fixture
def matrix() -> np.ndarray:
    return np.random.default_rng(7).gamma(2.0, 3.0, size=(9, 80))


#: Every prefix length the tests below read.
SIZES = (1, 2, 23, 37, 80)


@pytest.fixture
def moments(matrix) -> PrefixMoments:
    return PrefixMoments(matrix, SIZES)


class TestConstruction:
    def test_shape_properties(self, moments):
        assert moments.trials == 9
        assert moments.max_size == 80

    def test_rejects_one_dimensional(self):
        with pytest.raises(ConfigurationError):
            PrefixMoments(np.arange(5.0), (5,))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            PrefixMoments(np.empty((0, 4)), (4,))

    def test_rejects_non_finite(self):
        bad = np.ones((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(EstimationError):
            PrefixMoments(bad, (3,))

    def test_row_returns_original_values(self, moments, matrix):
        np.testing.assert_array_equal(moments.row(4), matrix[4])


class TestMomentsMatchDirect:
    @pytest.mark.parametrize("n", [1, 2, 37, 80])
    def test_mean(self, moments, matrix, n):
        np.testing.assert_allclose(
            moments.mean(n), matrix[:, :n].mean(axis=1), rtol=RTOL, atol=ATOL
        )

    @pytest.mark.parametrize("n", [1, 2, 37, 80])
    def test_population_variance(self, moments, matrix, n):
        np.testing.assert_allclose(
            moments.variance(n), matrix[:, :n].var(axis=1), rtol=RTOL, atol=ATOL
        )

    @pytest.mark.parametrize("n", [2, 37, 80])
    def test_sample_std(self, moments, matrix, n):
        np.testing.assert_allclose(
            moments.std(n, ddof=1),
            matrix[:, :n].std(axis=1, ddof=1),
            rtol=RTOL,
            atol=ATOL,
        )

    @pytest.mark.parametrize("n", [1, 37, 80])
    def test_range(self, moments, matrix, n):
        prefix = matrix[:, :n]
        np.testing.assert_array_equal(moments.minimum(n), prefix.min(axis=1))
        np.testing.assert_array_equal(moments.maximum(n), prefix.max(axis=1))
        np.testing.assert_array_equal(
            moments.value_range(n), prefix.max(axis=1) - prefix.min(axis=1)
        )

    def test_prefix_matrices_match_per_step(self, moments, matrix):
        n = 23
        means = moments.prefix_mean_matrix(n)
        variances = moments.prefix_variance_matrix(n)
        for t in range(1, n + 1):
            np.testing.assert_allclose(
                means[:, t - 1], matrix[:, :t].mean(axis=1), rtol=RTOL, atol=ATOL
            )
            np.testing.assert_allclose(
                variances[:, t - 1],
                matrix[:, :t].var(axis=1),
                rtol=RTOL,
                atol=ATOL,
            )

    def test_constant_rows_have_zero_variance(self):
        moments = PrefixMoments(np.full((3, 10), 4.2), (10,))
        np.testing.assert_array_equal(moments.variance(10), np.zeros(3))
        np.testing.assert_array_equal(moments.value_range(10), np.zeros(3))


class TestSizeValidation:
    @pytest.mark.parametrize("n", [0, -1, 81])
    def test_rejects_out_of_range_prefix(self, moments, n):
        with pytest.raises(ConfigurationError):
            moments.mean(n)

    def test_rejects_ddof_at_least_n(self, moments):
        with pytest.raises(ConfigurationError):
            moments.variance(1, ddof=1)


@st.composite
def declared_matrices(draw, elements):
    """A ``(trials, width)`` matrix and a set of declared lengths."""
    trials = draw(st.integers(1, 6))
    width = draw(st.integers(1, 60))
    matrix = draw(arrays(np.float64, (trials, width), elements=elements))
    sizes = draw(st.sets(st.integers(1, width), min_size=1, max_size=10))
    return matrix, sorted(sizes)


integer_valued = st.integers(-1000, 1000).map(float)
float_valued = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def shifted_reference(prefix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """From-scratch shifted sum and sum of squares of each prefix row."""
    centered = prefix - prefix[:, :1]
    return centered.sum(axis=1), (centered * centered).sum(axis=1)


class TestDeclaredSizeContract:
    @settings(max_examples=60)
    @given(case=declared_matrices(integer_valued))
    def test_integer_matrices_bit_identical(self, case):
        matrix, sizes = case
        moments = PrefixMoments(matrix, sizes)
        for n in sizes:
            prefix = matrix[:, :n]
            sums, squares = shifted_reference(prefix)
            variance = np.maximum(squares / n - (sums / n) ** 2, 0.0)
            np.testing.assert_array_equal(moments.mean(n), prefix.sum(axis=1) / n)
            np.testing.assert_array_equal(moments.variance(n), variance)
            np.testing.assert_array_equal(moments.minimum(n), prefix.min(axis=1))
            np.testing.assert_array_equal(moments.maximum(n), prefix.max(axis=1))
            np.testing.assert_array_equal(
                moments.value_range(n), prefix.max(axis=1) - prefix.min(axis=1)
            )
            np.testing.assert_allclose(
                moments.variance(n), prefix.var(axis=1), rtol=1e-9, atol=1e-9
            )

    @settings(max_examples=60)
    @given(
        case=declared_matrices(float_valued),
        offset=st.sampled_from([0.0, 1e8]),
    )
    def test_float_matrices_within_policy(self, case, offset):
        matrix, sizes = case
        matrix = matrix + offset
        moments = PrefixMoments(matrix, sizes)
        scale = max(1.0, float(np.abs(matrix).max()))
        for n in sizes:
            prefix = matrix[:, :n]
            centered = prefix - prefix[:, :1]
            np.testing.assert_allclose(
                moments.mean(n), prefix.mean(axis=1), rtol=1e-9, atol=1e-9 * scale
            )
            # The shifted one-pass form cancels against E[(x - x0)^2], so
            # its rounding is relative to that second moment.
            tolerance = 1e-9 * (1.0 + (centered * centered).mean(axis=1))
            assert np.all(
                np.abs(moments.variance(n) - centered.var(axis=1)) <= tolerance
            )
            np.testing.assert_array_equal(moments.minimum(n), prefix.min(axis=1))
            np.testing.assert_array_equal(moments.maximum(n), prefix.max(axis=1))

    @settings(max_examples=40)
    @given(case=declared_matrices(integer_valued), data=st.data())
    def test_undeclared_length_raises(self, case, data):
        matrix, sizes = case
        undeclared = sorted(set(range(-1, matrix.shape[1] + 2)) - set(sizes))
        n = data.draw(st.sampled_from(undeclared))
        moments = PrefixMoments(matrix, sizes)
        for query in (
            moments.mean, moments.variance, moments.second_moment,
            moments.minimum, moments.maximum, moments.value_range,
            moments.prefix_mean_matrix, moments.prefix_variance_matrix,
        ):
            with pytest.raises(ConfigurationError):
                query(n)

    @settings(max_examples=40)
    @given(
        case=declared_matrices(float_valued),
        offset=st.sampled_from([0.0, 1e8]),
    )
    def test_envelope_matrices_equal_full_cumulative_formula(self, case, offset):
        matrix, sizes = case
        matrix = matrix + offset
        moments = PrefixMoments(matrix, sizes)
        shifted = matrix - matrix[:, 0].copy()[:, None]
        cumsum = np.cumsum(matrix, axis=1)
        scumsum = np.cumsum(shifted, axis=1)
        scumsq = np.cumsum(shifted * shifted, axis=1)
        for n in sizes:
            t = np.arange(1, n + 1, dtype=float)
            np.testing.assert_array_equal(
                moments.prefix_mean_matrix(n), cumsum[:, :n] / t
            )
            shifted_mean = scumsum[:, :n] / t
            np.testing.assert_array_equal(
                moments.prefix_variance_matrix(n),
                np.maximum(scumsq[:, :n] / t - shifted_mean**2, 0.0),
            )

    def test_rejects_bad_declarations(self, matrix):
        for sizes in ((), (0, 5), (5, 81)):
            with pytest.raises(ConfigurationError):
                PrefixMoments(matrix, sizes)

    def test_repeats_and_order_do_not_matter(self, matrix):
        moments = PrefixMoments(matrix, (37, 2, 37))
        reference = PrefixMoments(matrix, (2, 37))
        for n in (2, 37):
            np.testing.assert_array_equal(moments.mean(n), reference.mean(n))
            np.testing.assert_array_equal(moments.variance(n), reference.variance(n))

    def test_non_finite_value_past_declared_lengths_is_not_read(self):
        matrix = np.ones((2, 6))
        matrix[1, 5] = math.inf
        np.testing.assert_array_equal(
            PrefixMoments(matrix, (3, 5)).mean(5), np.ones(2)
        )
        with pytest.raises(EstimationError):
            PrefixMoments(matrix, (3, 6))


class TestOrderedDrawMatrix:
    @settings(max_examples=30, deadline=None)
    @given(
        universe=st.integers(1, 3000),
        top_share=st.floats(0.0, 1.0),
        root=st.integers(0, 2**32 - 1),
        unit=st.integers(0, 50),
        first=st.integers(0, 60),
    )
    def test_rows_equal_per_trial_samplers(
        self, universe, top_share, root, unit, first
    ):
        top = max(1, round(universe * top_share))
        trials = range(first, first + 50)
        draws = ordered_draw_matrix(
            universe, [child_rng(root, unit, t) for t in trials], top
        )
        assert draws.shape == (50, top)
        for row, t in zip(draws, trials):
            sampler = ProgressiveSampler(
                universe, child_rng(root, unit, t), max_size=top
            )
            np.testing.assert_array_equal(row, sampler.prefix(top))
            # The rule both share: an ordered without-replacement draw.
            np.testing.assert_array_equal(
                row,
                child_rng(root, unit, t).choice(
                    universe, top, replace=False, shuffle=True
                ),
            )
