"""Moments of nested trial samples at declared prefix lengths — batch and streaming.

The profiler's fraction sweeps evaluate every fraction of an ascending grid
on *nested* prefix samples (:func:`repro.stats.sampling.ordered_draw`): the
sample at a low fraction is a prefix of the sample at any higher fraction.
Re-deriving the mean, variance, and range of each prefix from scratch costs
O(trials × fractions × n) overall.

:class:`PrefixMoments` takes each trial's maximal prefix gather, stacked
into one ``(trials, max_size)`` matrix, and the prefix lengths its caller
reads (a sweep's design sizes, or a point estimate's one size). It reduces
each segment between consecutive declared lengths once (``reduceat``) and
accumulates over the few segments, so every statistic at a declared length
is an O(trials) column read and no full-width cumulative matrix is built;
the shifted sums behind variances are built on first use. Combined with the
batch radius functions of :mod:`repro.stats.inequalities`, a whole fraction
grid point is priced by a handful of broadcasted numpy operations.

Live feeds do not arrive as a fixed matrix, so two streaming engines keep
moments of a single feed:

- :class:`SlidingWindowMoments` — fixed-capacity window over the newest
  ``capacity`` values: deque-backed shifted cumulants with **exact** window
  minima/maxima via monotonic deques, all O(1) amortized per append.
- :class:`DecayedMoments` — exponentially decay-weighted cumulants with the
  Kish effective sample size, for bounds that should forget the distant
  past smoothly instead of truncating it.

Numerical note: segment sums add in a different order than ``numpy``'s
direct ``mean`` (pairwise summation). Both are correct to floating-point
accuracy, and exact on integer-valued data (detector counts) below 2**53;
the profiler's tests pin the batch kernels to the scalar estimators within
1e-9, the repo-wide numerical-equivalence policy. Variances are computed
from sums *shifted by each row's first element*: the raw ``E[x²] − E[x]²``
form catastrophically cancels once values carry a large common offset (a
~1e8 offset leaves float64 with no significant bits for a small spread),
and shifting by a value from the data itself removes the offset without
changing the variance.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable

import numpy as np

from repro.errors import ConfigurationError, EstimationError


class PrefixMoments:
    """First/second moments and extrema of trial prefixes at declared lengths.

    One instance covers one ``(trials, max_size)`` matrix of prefix-sample
    values and the prefix lengths declared at construction; every query
    takes a declared length ``n`` (any other raises
    :class:`~repro.errors.ConfigurationError`) and returns a ``(trials,)``
    array in O(trials), or the ``(trials, n)`` envelope matrices.
    """

    def __init__(self, matrix: np.ndarray, sizes: Iterable[int]) -> None:
        """Reduce the matrix at the declared prefix lengths.

        Args:
            matrix: Per-trial prefix values, shape ``(trials, max_size)``;
                row ``t`` holds trial ``t``'s maximal prefix gather, whose
                leading ``n`` entries are exactly the trial's sample at
                prefix length ``n``.
            sizes: The prefix lengths the caller will query, each in
                ``[1, max_size]``; order and repeats do not matter. Values
                up to the longest declared length must be finite.
        """
        array = np.asarray(matrix, dtype=float)
        if array.ndim != 2:
            raise ConfigurationError(
                f"prefix matrix must be 2-D (trials, max_size), "
                f"got shape {array.shape}"
            )
        if array.shape[0] == 0 or array.shape[1] == 0:
            raise ConfigurationError(
                f"prefix matrix must be non-empty, got shape {array.shape}"
            )
        declared = np.unique(np.fromiter(sizes, dtype=np.int64))
        if not declared.size or declared[0] < 1 or declared[-1] > array.shape[1]:
            raise ConfigurationError(
                f"declared prefix lengths {declared.tolist()} must be a "
                f"non-empty subset of [1, {array.shape[1]}]"
            )
        self._matrix = array
        self._column = {int(n): i for i, n in enumerate(declared)}
        self._starts = np.concatenate(([0], declared[:-1]))
        self._top = int(declared[-1])
        head = array[:, : self._top]
        self._sum = self._at_sizes(np.add, head)
        self._min = self._at_sizes(np.minimum, head)
        self._max = self._at_sizes(np.maximum, head)
        # NaN and ±inf reach the extrema, so their last column checks every
        # value the instance serves.
        if not np.isfinite([self._min[:, -1], self._max[:, -1]]).all():
            raise EstimationError("prefix matrix contains non-finite values")
        self._shifted: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def trials(self) -> int:
        """Number of trial rows."""
        return int(self._matrix.shape[0])

    @property
    def max_size(self) -> int:
        """Width of the value matrix (the longest gathered prefix)."""
        return int(self._matrix.shape[1])

    def row(self, trial: int) -> np.ndarray:
        """One trial's full maximal prefix (view; do not mutate).

        Kept for estimators without a batch form: a per-trial fallback
        slices ``row(t)[:n]`` and runs the scalar estimator unchanged.
        """
        return self._matrix[trial]

    def _column_of(self, n: int) -> int:
        column = self._column.get(int(n))
        if column is None:
            raise ConfigurationError(
                f"prefix length {n} was not declared; declared lengths are "
                f"{list(self._column)}"
            )
        return column

    def _at_sizes(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        """``ufunc`` over each row's prefixes, one column per declared length."""
        return ufunc.accumulate(ufunc.reduceat(values, self._starts, axis=1), axis=1)

    def _shifted_sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row shifts and the shifted sum / sum of squares, built on first use."""
        if self._shifted is None:
            shift = self._matrix[:, 0].copy()
            centered = self._matrix[:, : self._top] - shift[:, None]
            self._shifted = (
                shift,
                self._at_sizes(np.add, centered),
                self._at_sizes(np.add, centered * centered),
            )
        return self._shifted

    def mean(self, n: int) -> np.ndarray:
        """Per-trial means of the length-``n`` prefixes."""
        return self._sum[:, self._column_of(n)] / n

    def second_moment(self, n: int) -> np.ndarray:
        """Per-trial raw second moments ``mean(x^2)`` of the prefixes.

        Reconstructed from the shifted sums:
        ``E[x²] = E[(x−c)²] + 2c·E[x] − c²`` with ``c`` the row shift.
        """
        column = self._column_of(n)
        shift, _, squares = self._shifted_sums()
        mean = self._sum[:, column] / n
        return squares[:, column] / n + shift * (2.0 * mean - shift)

    def variance(self, n: int, ddof: int = 0) -> np.ndarray:
        """Per-trial prefix variances, clipped at zero.

        Computed from the shifted sums, so the clip only ever absorbs
        rounding-level negatives — never the catastrophic cancellation the
        raw ``E[x²] − E[x]²`` form suffers on large-offset data.

        Args:
            n: Declared prefix length.
            ddof: Delta degrees of freedom (0 = population variance, as
                ``ndarray.var`` defaults; requires ``n > ddof``).
        """
        column = self._column_of(n)
        if ddof < 0 or n <= ddof:
            raise ConfigurationError(f"ddof {ddof} must satisfy 0 <= ddof < n={n}")
        _, sums, squares = self._shifted_sums()
        shifted_mean = sums[:, column] / n
        variance = np.maximum(
            squares[:, column] / n - shifted_mean * shifted_mean, 0.0
        )
        if ddof:
            variance = variance * (n / (n - ddof))
        return variance

    def std(self, n: int, ddof: int = 0) -> np.ndarray:
        """Per-trial prefix standard deviations (see :meth:`variance`)."""
        return np.sqrt(self.variance(n, ddof))

    def prefix_mean_matrix(self, n: int) -> np.ndarray:
        """Means of *every* prefix length ``1..n``, shape ``(trials, n)``.

        Serves envelope constructions (EBGS) that need all prefixes at
        once; ``n`` must be declared. Computed on demand (a cumulative sum).
        """
        self._column_of(n)
        t = np.arange(1, n + 1, dtype=float)
        return np.cumsum(self._matrix[:, :n], axis=1) / t

    def prefix_variance_matrix(self, n: int) -> np.ndarray:
        """Population variances of every prefix length ``1..n`` (shifted
        running sums, computed on demand; ``n`` must be declared)."""
        self._column_of(n)
        t = np.arange(1, n + 1, dtype=float)
        centered = self._matrix[:, :n] - self._matrix[:, :1]
        shifted_mean = np.cumsum(centered, axis=1) / t
        return np.maximum(
            np.cumsum(centered * centered, axis=1) / t - shifted_mean**2, 0.0
        )

    def minimum(self, n: int) -> np.ndarray:
        """Per-trial minima of the length-``n`` prefixes."""
        return self._min[:, self._column_of(n)]

    def maximum(self, n: int) -> np.ndarray:
        """Per-trial maxima of the length-``n`` prefixes."""
        return self._max[:, self._column_of(n)]

    def value_range(self, n: int) -> np.ndarray:
        """Per-trial sample ranges ``max - min`` of the prefixes."""
        column = self._column_of(n)
        return self._max[:, column] - self._min[:, column]


class SlidingWindowMoments:
    """Moments of the newest ``capacity`` values of a single live feed.

    Shifted first/second cumulants are maintained by add-on-arrival /
    subtract-on-eviction over a deque, and are rebuilt from scratch every
    ``capacity`` appends (O(1) amortized) so subtract-accumulation error
    can never grow with stream length — window statistics track a from-
    scratch recomputation within the repo's 1e-9 equivalence policy. Window
    minima and maxima are **exact** at every step via monotonic deques.
    """

    def __init__(self, capacity: int) -> None:
        """Create an empty window.

        Args:
            capacity: Maximum number of retained values (≥ 1).
        """
        if capacity < 1:
            raise ConfigurationError(
                f"window capacity must be positive, got {capacity}"
            )
        self._capacity = int(capacity)
        self._values: deque[float] = deque()
        self._shift = 0.0
        self._sum_s = 0.0
        self._sumsq_s = 0.0
        self._min_dq: deque[tuple[int, float]] = deque()
        self._max_dq: deque[tuple[int, float]] = deque()
        self._appended = 0
        self._since_rebuild = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained values."""
        return self._capacity

    @property
    def count(self) -> int:
        """Values currently in the window."""
        return len(self._values)

    @property
    def total_appended(self) -> int:
        """Values ever appended (retained or evicted)."""
        return self._appended

    @property
    def is_full(self) -> bool:
        """Whether the window has reached capacity (and now slides)."""
        return len(self._values) == self._capacity

    def append(self, value: float) -> None:
        """Fold one arriving value, evicting the oldest when full."""
        x = float(value)
        if not math.isfinite(x):
            raise EstimationError(f"stream value must be finite, got {x}")
        if len(self._values) == self._capacity:
            evicted = self._values.popleft() - self._shift
            self._sum_s -= evicted
            self._sumsq_s -= evicted * evicted
        elif not self._values:
            self._shift = x
        self._values.append(x)
        shifted = x - self._shift
        self._sum_s += shifted
        self._sumsq_s += shifted * shifted
        index = self._appended
        self._appended += 1
        while self._min_dq and self._min_dq[-1][1] >= x:
            self._min_dq.pop()
        self._min_dq.append((index, x))
        while self._max_dq and self._max_dq[-1][1] <= x:
            self._max_dq.pop()
        self._max_dq.append((index, x))
        cutoff = self._appended - len(self._values)
        while self._min_dq[0][0] < cutoff:
            self._min_dq.popleft()
        while self._max_dq[0][0] < cutoff:
            self._max_dq.popleft()
        self._since_rebuild += 1
        if self._since_rebuild >= self._capacity:
            self._rebuild()

    def extend(self, values) -> None:
        """Fold a batch of values, in order, atomically validated."""
        batch = [float(v) for v in values]
        if not all(math.isfinite(v) for v in batch):
            raise EstimationError("stream values must be finite")
        for value in batch:
            self.append(value)

    def _rebuild(self) -> None:
        self._shift = self._values[0]
        sum_s = 0.0
        sumsq_s = 0.0
        for value in self._values:
            shifted = value - self._shift
            sum_s += shifted
            sumsq_s += shifted * shifted
        self._sum_s = sum_s
        self._sumsq_s = sumsq_s
        self._since_rebuild = 0

    def _require_values(self) -> int:
        n = len(self._values)
        if n == 0:
            raise EstimationError("window is empty — no values observed yet")
        return n

    def mean(self) -> float:
        """Mean of the current window."""
        n = self._require_values()
        return self._shift + self._sum_s / n

    def variance(self, ddof: int = 0) -> float:
        """Variance of the current window, clipped at zero."""
        n = self._require_values()
        if ddof < 0 or n <= ddof:
            raise ConfigurationError(
                f"ddof {ddof} must satisfy 0 <= ddof < n={n}"
            )
        shifted_mean = self._sum_s / n
        variance = max(self._sumsq_s / n - shifted_mean * shifted_mean, 0.0)
        if ddof:
            variance *= n / (n - ddof)
        return variance

    def std(self, ddof: int = 0) -> float:
        """Standard deviation of the current window."""
        return math.sqrt(self.variance(ddof))

    def minimum(self) -> float:
        """Exact minimum of the current window."""
        self._require_values()
        return self._min_dq[0][1]

    def maximum(self) -> float:
        """Exact maximum of the current window."""
        self._require_values()
        return self._max_dq[0][1]

    def value_range(self) -> float:
        """Exact range ``max - min`` of the current window."""
        return self.maximum() - self.minimum()

    def values(self) -> np.ndarray:
        """The current window contents, oldest first (copy)."""
        return np.fromiter(self._values, dtype=float, count=len(self._values))


class DecayedMoments:
    """Exponentially decay-weighted moments of a single live feed.

    Value ``i`` arrivals ago carries weight ``decay**i``; cumulants are
    one-multiply-one-add per append. The Kish effective sample size
    ``(Σw)² / Σw²`` converts the weighted state into the "how many
    independent frames is this worth" number the concentration bounds
    need; it saturates at ``(1 + decay) / (1 - decay)``.
    """

    def __init__(self, decay: float) -> None:
        """Create an empty decayed accumulator.

        Args:
            decay: Per-arrival weight multiplier in (0, 1) — older values
                fade geometrically.
        """
        decay = float(decay)
        if not math.isfinite(decay) or not 0.0 < decay < 1.0:
            raise ConfigurationError(
                f"decay must lie strictly in (0, 1), got {decay}"
            )
        self._decay = decay
        self._count = 0
        self._weight = 0.0
        self._weight_sq = 0.0
        self._sum_s = 0.0
        self._sumsq_s = 0.0
        self._shift = 0.0
        self._minimum = math.inf
        self._maximum = -math.inf

    @property
    def decay(self) -> float:
        """The per-arrival weight multiplier."""
        return self._decay

    @property
    def count(self) -> int:
        """Values ever appended."""
        return self._count

    @property
    def weight(self) -> float:
        """Total decayed weight ``Σ decay**age == (1 - d**n) / (1 - d)``."""
        return self._weight

    def effective_size(self) -> float:
        """Kish effective sample size ``(Σw)² / Σw²`` (≤ (1+d)/(1-d))."""
        if self._count == 0:
            raise EstimationError("no values observed yet")
        return self._weight * self._weight / self._weight_sq

    def append(self, value: float) -> None:
        """Fold one arriving value; all prior weights decay by ``decay``."""
        x = float(value)
        if not math.isfinite(x):
            raise EstimationError(f"stream value must be finite, got {x}")
        if self._count == 0:
            self._shift = x
        d = self._decay
        shifted = x - self._shift
        self._weight = d * self._weight + 1.0
        self._weight_sq = d * d * self._weight_sq + 1.0
        self._sum_s = d * self._sum_s + shifted
        self._sumsq_s = d * self._sumsq_s + shifted * shifted
        self._minimum = min(self._minimum, x)
        self._maximum = max(self._maximum, x)
        self._count += 1

    def extend(self, values) -> None:
        """Fold a batch of values, in order, atomically validated."""
        batch = [float(v) for v in values]
        if not all(math.isfinite(v) for v in batch):
            raise EstimationError("stream values must be finite")
        for value in batch:
            self.append(value)

    def _require_values(self) -> None:
        if self._count == 0:
            raise EstimationError("no values observed yet")

    def mean(self) -> float:
        """Decay-weighted mean."""
        self._require_values()
        return self._shift + self._sum_s / self._weight

    def variance(self) -> float:
        """Decay-weighted population variance, clipped at zero."""
        self._require_values()
        shifted_mean = self._sum_s / self._weight
        return max(self._sumsq_s / self._weight - shifted_mean**2, 0.0)

    def std(self) -> float:
        """Decay-weighted standard deviation."""
        return math.sqrt(self.variance())

    def minimum(self) -> float:
        """Running minimum over *all* values seen (conservative: extrema
        do not decay, so the implied range never understates the data)."""
        self._require_values()
        return self._minimum

    def maximum(self) -> float:
        """Running maximum over all values seen (see :meth:`minimum`)."""
        self._require_values()
        return self._maximum

    def value_range(self) -> float:
        """Conservative range ``max - min`` over all values seen."""
        return self.maximum() - self.minimum()
