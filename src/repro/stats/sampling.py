"""Sampling designs for the reduced-frame-sampling intervention.

The paper's random intervention draws frames *without replacement* (the
assumption behind the Hoeffding–Serfling inequality and the hypergeometric
quantile bound). Two extras matter for profile generation:

- :class:`SampleDesign` turns a sample *fraction* into a concrete sample
  *size* consistently everywhere (round-half-up, at least one frame when the
  fraction is positive).
- :func:`ordered_draw` produces *nested* samples: the sample at a low
  fraction is a prefix of the sample at any higher fraction. This implements
  the reuse strategy of paper §3.3.2 — model outputs computed for a 1% sweep
  point are reused by the 2% point, and so on — and is what makes profile
  sweeps affordable. :class:`ProgressiveSampler` holds one such ordering,
  :func:`ordered_draw_matrix` stacks one per trial for batch sweeps.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SampleDesign:
    """A without-replacement sampling plan over a finite frame universe.

    Attributes:
        population: Number of frames available to sample from.
        fraction: Sampling fraction ``f`` in ``(0, 1]``.
    """

    population: int
    fraction: float

    def __post_init__(self) -> None:
        if self.population <= 0:
            raise ConfigurationError(
                f"population must be positive, got {self.population}"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(
                f"sample fraction must lie in (0, 1], got {self.fraction}"
            )

    @property
    def size(self) -> int:
        """Concrete sample size ``n = round(N * f)``, clamped to ``[1, N]``."""
        n = int(round(self.population * self.fraction))
        return max(1, min(n, self.population))

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Draw the sample as an array of frame indices.

        Args:
            rng: Source of randomness for the draw.

        Returns:
            ``self.size`` distinct indices into ``range(population)``, in
            draw order (not sorted).
        """
        return rng.choice(self.population, size=self.size, replace=False)


def sample_without_replacement(
    population: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` distinct indices from ``range(population)``.

    Args:
        population: Universe size.
        size: Number of indices to draw; must satisfy ``0 <= size <= population``.
        rng: Source of randomness.

    Returns:
        The drawn indices in draw order.
    """
    if population <= 0:
        raise ConfigurationError(f"population must be positive, got {population}")
    if not 0 <= size <= population:
        raise ConfigurationError(
            f"sample size {size} must lie in [0, population={population}]"
        )
    return rng.choice(population, size=size, replace=False)


def stratified_time_sample(
    population: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """One frame per equal-length time stratum (paper §7's extension hook).

    Consecutive video frames are highly similar, so spreading a sample
    evenly across time captures more information per frame than simple
    random sampling: within-stratum homogeneity means the stratified mean
    has lower variance whenever the series is positively autocorrelated.
    The paper names exploiting this similarity as future work; the
    ``ablation-stratified`` experiment quantifies the gain.

    Note the Hoeffding–Serfling machinery assumes simple random sampling;
    the stratified design is an *estimator-quality* improvement whose
    bound validity is checked empirically, not proven.

    Args:
        population: Number of frames (the timeline length).
        size: Number of strata = sample size; must satisfy
            ``1 <= size <= population``.
        rng: Source of randomness for the within-stratum draws.

    Returns:
        One sampled frame index per stratum, in temporal order.
    """
    if population <= 0:
        raise ConfigurationError(f"population must be positive, got {population}")
    if not 1 <= size <= population:
        raise ConfigurationError(
            f"sample size {size} must lie in [1, population={population}]"
        )
    boundaries = np.linspace(0, population, size + 1)
    starts = np.floor(boundaries[:-1]).astype(np.int64)
    stops = np.maximum(np.floor(boundaries[1:]).astype(np.int64), starts + 1)
    stops = np.minimum(stops, population)
    offsets = rng.random(size)
    return (starts + np.floor(offsets * (stops - starts)).astype(np.int64)).clip(
        0, population - 1
    )


def ordered_draw(
    population: int, rng: np.random.Generator, max_size: int | None = None
) -> np.ndarray:
    """A uniformly random ordering of ``max_size`` distinct indices (int64)
    from ``range(population)``; None (the default) orders all of them.

    Every prefix is a uniform without-replacement sample. The bounded draw
    (``rng.choice(..., shuffle=True)``) has prefixes distributed exactly
    like the full permutation's at O(max_size) cost, but the two modes
    consume the generator differently: a seeded caller keeps one mode.
    """
    if population <= 0:
        raise ConfigurationError(f"population must be positive, got {population}")
    if max_size is None:
        return rng.permutation(population)
    if not 1 <= max_size <= population:
        raise ConfigurationError(
            f"max_size {max_size} must lie in [1, {population}]"
        )
    return rng.choice(population, max_size, replace=False, shuffle=True)


def ordered_draw_matrix(
    population: int, rngs: Sequence[np.random.Generator], max_size: int
) -> np.ndarray:
    """One bounded :func:`ordered_draw` per generator, written as the rows
    of a ``(len(rngs), max_size)`` int64 matrix; row ``i`` is the ordering
    ``ProgressiveSampler(population, rngs[i], max_size)`` holds."""
    matrix = np.empty((len(rngs), max_size), dtype=np.int64)
    for row, rng in zip(matrix, rngs):
        row[:] = ordered_draw(population, rng, max_size)
    return matrix


class ProgressiveSampler:
    """Nested without-replacement sampler enabling model-output reuse.

    A single random ordering of the universe is fixed up front; the sample
    at size ``n`` is simply its first ``n`` entries. Any prefix of a
    uniformly random ordering is itself a uniform without-replacement
    sample, so every prefix is a valid draw — while being nested, which is
    what lets profile generation (paper §3.3.2) evaluate sample fractions
    in ascending order and reuse all previously computed model outputs.

    When the caller knows the largest prefix it will ever request,
    ``max_size`` draws only that many indices (see :func:`ordered_draw`).
    """

    def __init__(
        self,
        population: int,
        rng: np.random.Generator,
        max_size: int | None = None,
    ) -> None:
        """Fix the random ordering.

        Args:
            population: Universe size; must be positive.
            rng: Source of randomness for the ordering.
            max_size: Largest prefix this sampler must serve; None (the
                default) keeps the full permutation.
        """
        self._permutation = ordered_draw(population, rng, max_size)
        self._population = int(population)

    @property
    def population(self) -> int:
        """The universe size the ordering covers."""
        return self._population

    @property
    def max_size(self) -> int:
        """Largest prefix this sampler serves (== population by default)."""
        return int(self._permutation.size)

    def prefix(self, size: int) -> np.ndarray:
        """The nested sample of the given size.

        Args:
            size: Number of indices; must satisfy ``0 <= size <= max_size``.

        Returns:
            The first ``size`` entries of the fixed ordering. The returned
            array is a copy, safe to mutate.
        """
        if not 0 <= size <= self.max_size:
            raise ConfigurationError(
                f"prefix size {size} must lie in [0, {self.max_size}]"
            )
        return self._permutation[:size].copy()

    def prefix_for_fraction(self, fraction: float) -> np.ndarray:
        """The nested sample for a sampling fraction.

        Args:
            fraction: Sampling fraction in ``(0, 1]``.

        Returns:
            The nested sample whose size is ``SampleDesign``'s size rule.
        """
        design = SampleDesign(self.population, fraction)
        return self.prefix(design.size)
