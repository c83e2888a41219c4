"""Ablations of Smokescreen's design choices (beyond the paper's figures).

Each ablation isolates one ingredient DESIGN.md calls out:

- **radius**: Algorithm 1's Hoeffding–Serfling radius against the plain
  Hoeffding radius and the (single-``n``) empirical Bernstein radius inside
  the identical bound-aware output construction. Quantifies §3.2.1's claim
  that H-S "is more suitable for a small sample size".
- **replacement**: Algorithm 2's finite-population (without-replacement)
  variance against the with-replacement variance used by prior work [40,
  45]. Quantifies §3.2.4's non-replacement advantage.
- **elbow**: the §3.3.1 stopping tolerance swept — correction-set size vs
  the corrected bound it buys.
- **reuse**: model invocations of a fraction sweep with the nested-sample
  reuse strategy versus naive independent draws (§3.3.2).
- **anomaly**: Figure 7's true error with the detector anomaly disabled —
  confirming the spike comes from the model artifact, not the estimator.
"""

from __future__ import annotations

import numpy as np

from repro.core.candidates import CandidateGrid
from repro.core.correction import determine_correction_set
from repro.core.profiler import DegradationProfiler
from repro.detection.zoo import YOLO_ANOMALY_SIDE, yolo_v4_like
from repro.estimators.smokescreen import bound_aware_estimate
from repro.experiments.reporting import ExperimentResult
from repro.experiments.workloads import (
    NIGHT_STREET,
    UA_DETRAC,
    Workload,
    load_dataset,
    shared_suite,
)
from repro.interventions.plan import InterventionPlan
from repro.query.aggregates import Aggregate
from repro.query.processor import QueryProcessor
from repro.stats.hypergeometric import z_score
from repro.stats.inequalities import (
    empirical_bernstein_radius,
    empirical_bernstein_serfling_radius,
    hoeffding_radius,
    hoeffding_serfling_radius,
)
from repro.stats.quantiles import DistinctValueTable
from repro.system.costs import InvocationLedger
from repro.video.geometry import Resolution


def run_ablation_radius(
    dataset_name: str = UA_DETRAC,
    trials: int = 100,
    frame_count: int | None = None,
    fractions: tuple[float, ...] = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1),
    seed: int = 0,
) -> ExperimentResult:
    """Algorithm 1 with different interval radii, same output construction.

    Args:
        dataset_name: The corpus.
        trials: Trials per fraction.
        frame_count: Optional reduced corpus size.
        fractions: Sample fractions to sweep.
        seed: Randomness seed.

    Returns:
        Mean bound per radius choice per fraction.
    """
    workload = Workload(dataset_name, Aggregate.AVG, frame_count)
    query = workload.query()
    values = QueryProcessor(shared_suite()).true_values(query)
    population = values.size
    rng = np.random.default_rng(seed)

    series: dict[str, list[float]] = {
        "hoeffding_serfling": [],
        "hoeffding": [],
        "empirical_bernstein": [],
        "bernstein_serfling": [],
    }
    for fraction in fractions:
        n = max(2, round(population * fraction))
        sums = dict.fromkeys(series, 0.0)
        for _ in range(trials):
            sample = values[rng.choice(population, size=n, replace=False)]
            mean = float(sample.mean())
            value_range = float(sample.max() - sample.min())
            std = float(sample.std())
            radii = {
                "hoeffding_serfling": hoeffding_serfling_radius(
                    n, population, query.delta, value_range
                ),
                "hoeffding": hoeffding_radius(n, query.delta, value_range),
                "empirical_bernstein": empirical_bernstein_radius(
                    n, query.delta, value_range, std
                ),
                "bernstein_serfling": empirical_bernstein_serfling_radius(
                    n, population, query.delta, value_range, std
                ),
            }
            for name, radius in radii.items():
                estimate = bound_aware_estimate(mean, radius, n, population, name)
                sums[name] += estimate.error_bound
        for name in series:
            series[name].append(sums[name] / trials)

    return ExperimentResult(
        title=(
            "Ablation: interval radius inside Algorithm 1 "
            f"({workload.name}, {trials} trials)"
        ),
        knob_label="fraction",
        knobs=list(fractions),
        series=series,
        notes=(
            "expected: hoeffding_serfling tightest at small fractions; "
            "the variance-adaptive bernstein_serfling catches up as n "
            "grows; the gap to empirical_bernstein largest at small "
            "fractions",
        ),
    )


def run_ablation_replacement(
    dataset_name: str = UA_DETRAC,
    trials: int = 100,
    frame_count: int | None = None,
    fractions: tuple[float, ...] = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3),
    r: float = 0.99,
    seed: int = 0,
) -> ExperimentResult:
    """Algorithm 2's finite-population variance vs with-replacement.

    The with-replacement variant replaces the hypergeometric factor
    ``(N - n) / (n (N - 1))`` by the binomial ``1 / n``.

    Args:
        dataset_name: The corpus.
        trials: Trials per fraction.
        frame_count: Optional reduced corpus size.
        fractions: Sample fractions to sweep.
        r: The extreme quantile level.
        seed: Randomness seed.

    Returns:
        Mean MAX bound per variance choice per fraction.
    """
    workload = Workload(dataset_name, Aggregate.MAX, frame_count)
    query = workload.query()
    values = QueryProcessor(shared_suite()).true_values(query)
    population = values.size
    rng = np.random.default_rng(seed)
    z = z_score(query.delta)

    series: dict[str, list[float]] = {
        "without_replacement": [],
        "with_replacement": [],
    }
    for fraction in fractions:
        n = max(2, round(population * fraction))
        sums = dict.fromkeys(series, 0.0)
        for _ in range(trials):
            sample = values[rng.choice(population, size=n, replace=False)]
            table = DistinctValueTable.from_sample(sample)
            frequency = table.frequency_at(table.quantile_position(r))
            spread = float(np.sqrt(r * (1.0 - r)))
            fpc = np.sqrt((population - n) / (n * (population - 1)))
            deviations = {
                "without_replacement": z * spread * fpc,
                "with_replacement": z * spread / np.sqrt(n),
            }
            for name, deviation in deviations.items():
                bound = ((deviation + frequency) / frequency + 1.0) * frequency / r
                sums[name] += bound
        for name in series:
            series[name].append(sums[name] / trials)

    return ExperimentResult(
        title=(
            "Ablation: sampling model inside Algorithm 2's variance "
            f"({workload.name}, {trials} trials)"
        ),
        knob_label="fraction",
        knobs=list(fractions),
        series=series,
        notes=(
            "expected: without_replacement never looser, and clearly "
            "tighter as the fraction grows (finite-population shrinkage)",
        ),
    )


def run_ablation_elbow(
    dataset_name: str = UA_DETRAC,
    frame_count: int | None = None,
    tolerances: tuple[float, ...] = (0.1, 0.05, 0.02, 0.01, 0.005),
    seed: int = 0,
) -> ExperimentResult:
    """The §3.3.1 stopping tolerance: set size vs bound quality.

    Args:
        dataset_name: The corpus.
        frame_count: Optional reduced corpus size.
        tolerances: Elbow thresholds to sweep (the paper fixes 2%).
        seed: Randomness seed.

    Returns:
        Correction fraction and own-bound per tolerance.
    """
    workload = Workload(dataset_name, Aggregate.AVG, frame_count)
    query = workload.query()
    processor = QueryProcessor(shared_suite())
    population = query.dataset.frame_count

    series: dict[str, list[float]] = {"correction_fraction": [], "own_bound": []}
    for tolerance in tolerances:
        correction = determine_correction_set(
            processor, query, np.random.default_rng(seed), tolerance=tolerance
        )
        series["correction_fraction"].append(correction.fraction(population))
        series["own_bound"].append(correction.error_bound)

    return ExperimentResult(
        title=f"Ablation: elbow tolerance of §3.3.1 ({workload.name})",
        knob_label="tolerance",
        knobs=list(tolerances),
        series=series,
        notes=(
            "smaller tolerances buy tighter own-bounds with larger sets; "
            "the paper's 2% sits at the knee",
        ),
    )


def run_ablation_reuse(
    dataset_name: str = UA_DETRAC,
    frame_count: int | None = None,
    fractions: tuple[float, ...] = (0.01, 0.02, 0.03, 0.04),
    seed: int = 0,
) -> ExperimentResult:
    """Invocation savings of the §3.3.2 nested-sample reuse strategy.

    Args:
        dataset_name: The corpus.
        frame_count: Optional reduced corpus size.
        fractions: The ascending fraction sweep.
        seed: Randomness seed.

    Returns:
        Invocation totals for the reuse sweep vs naive independent draws.
    """
    workload = Workload(dataset_name, Aggregate.AVG, frame_count)
    query = workload.query()
    processor = QueryProcessor(shared_suite())
    population = query.dataset.frame_count

    reuse_ledger = InvocationLedger()
    profiler = DegradationProfiler(processor, trials=1, ledger=reuse_ledger)
    grid = CandidateGrid(
        fractions=fractions,
        resolutions=(query.dataset.native_resolution,),
        removals=((),),
    )
    profiler.generate_hypercube_seeded(query, grid, root=seed)

    naive_ledger = InvocationLedger()
    naive_profiler = DegradationProfiler(processor, trials=1, ledger=naive_ledger)
    for index, fraction in enumerate(fractions):
        plan = InterventionPlan.from_knobs(f=fraction)
        naive_profiler.estimate_plan_seeded(query, plan, seed, index)

    knobs = ["reuse", "naive"]
    series = {
        "invocations": [float(reuse_ledger.total), float(naive_ledger.total)],
        "invocations_per_frame_pct": [
            100.0 * reuse_ledger.total / population,
            100.0 * naive_ledger.total / population,
        ],
    }
    return ExperimentResult(
        title=f"Ablation: nested-sample reuse savings ({workload.name})",
        knob_label="strategy",
        knobs=knobs,
        series=series,
        notes=(
            "reuse processes max(fractions) of the corpus; naive processes "
            "sum(fractions)",
        ),
    )


def run_ablation_stratified(
    dataset_name: str = UA_DETRAC,
    trials: int = 200,
    frame_count: int | None = None,
    fractions: tuple[float, ...] = (0.002, 0.005, 0.01, 0.02, 0.05),
    seed: int = 0,
) -> ExperimentResult:
    """Exploiting frame similarity via time-stratified sampling (§7).

    Consecutive frames are similar, so sampling one frame per equal time
    stratum should estimate the mean more precisely than simple random
    sampling at the same budget. Measured: the RMSE of the plain sample
    mean under both designs, plus the empirical violation rate of the
    (SRS-derived) Smokescreen bound when applied to stratified samples —
    the bound is not proven for that design, so validity must be checked.

    Args:
        dataset_name: The corpus.
        trials: Trials per fraction.
        frame_count: Optional reduced corpus size.
        fractions: Sample fractions to sweep.
        seed: Randomness seed.

    Returns:
        Per fraction: RMSE under both designs, the RMSE ratio, and the
        bound's violation percentage under the stratified design.
    """
    from repro.estimators.smokescreen import SmokescreenMeanEstimator
    from repro.stats.sampling import stratified_time_sample

    workload = Workload(dataset_name, Aggregate.AVG, frame_count)
    query = workload.query()
    values = QueryProcessor(shared_suite()).true_values(query)
    population = values.size
    mu = float(values.mean())
    rng = np.random.default_rng(seed)
    estimator = SmokescreenMeanEstimator()

    series: dict[str, list[float]] = {
        "srs_rmse": [],
        "stratified_rmse": [],
        "rmse_ratio": [],
        "stratified_violation_pct": [],
    }
    for fraction in fractions:
        n = max(2, round(population * fraction))
        srs_errors = np.empty(trials)
        stratified_errors = np.empty(trials)
        misses = 0
        for t in range(trials):
            srs = values[rng.choice(population, size=n, replace=False)]
            srs_errors[t] = srs.mean() - mu
            stratified = values[stratified_time_sample(population, n, rng)]
            stratified_errors[t] = stratified.mean() - mu
            estimate = estimator.estimate(stratified, population, query.delta)
            if abs(estimate.value - mu) / mu > estimate.error_bound:
                misses += 1
        srs_rmse = float(np.sqrt(np.mean(srs_errors**2)))
        stratified_rmse = float(np.sqrt(np.mean(stratified_errors**2)))
        series["srs_rmse"].append(srs_rmse)
        series["stratified_rmse"].append(stratified_rmse)
        series["rmse_ratio"].append(stratified_rmse / srs_rmse)
        series["stratified_violation_pct"].append(100.0 * misses / trials)

    return ExperimentResult(
        title=(
            f"Ablation: time-stratified vs simple random sampling "
            f"({workload.name}, {trials} trials)"
        ),
        knob_label="fraction",
        knobs=list(fractions),
        series=series,
        notes=(
            "exploiting frame similarity is the paper's §7 future work",
            "rmse_ratio < 1 means stratification estimates more precisely "
            "at the same frame budget",
            "the SRS-derived bound applied to stratified samples is "
            "checked empirically (no formal guarantee)",
        ),
    )


def run_ablation_anomaly(
    frame_count: int | None = None,
    sides: tuple[int, ...] = (256, 320, YOLO_ANOMALY_SIDE, 448, 512),
) -> ExperimentResult:
    """Figure 7's spike with the detector anomaly disabled.

    Args:
        frame_count: Optional reduced corpus size.
        sides: Resolutions to compare.

    Returns:
        True AVG error per resolution with and without the anomaly term.
    """
    dataset = load_dataset(NIGHT_STREET, frame_count)
    with_anomaly = yolo_v4_like()
    without_anomaly = yolo_v4_like(with_anomaly=False)

    series: dict[str, list[float]] = {"with_anomaly": [], "without_anomaly": []}
    for model, key in ((with_anomaly, "with_anomaly"), (without_anomaly, "without_anomaly")):
        truth = model.run(dataset).counts.mean()
        for side in sides:
            degraded = model.run(dataset, Resolution(side)).counts.mean()
            series[key].append(abs(degraded - truth) / truth)

    return ExperimentResult(
        title="Ablation: the 384x384 spike disappears without the model anomaly",
        knob_label="resolution",
        knobs=[float(side) for side in sides],
        series=series,
        notes=(
            "with_anomaly should spike at "
            f"{YOLO_ANOMALY_SIDE}; without_anomaly should be monotone",
        ),
    )
