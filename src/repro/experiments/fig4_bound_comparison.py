"""Figure 4: true error and error bound per method vs sample fraction.

The paper's central comparison (§5.2.1): for each aggregate type and
dataset, the true relative error of the estimated result (dashed) and the
error bound (solid) of Smokescreen and the baselines, as the reduced-frame-
sampling fraction varies. Expected shape:

- every method's true error and bound fall toward zero as f grows;
- Smokescreen's bound is below EBGS / Hoeffding / Hoeffding-Serfling
  everywhere (up to ~155% tighter);
- CLT's bound is even lower but not trustworthy (see Figure 5);
- for MAX, Smokescreen beats Stein at small fractions.
"""

from __future__ import annotations

from repro.experiments.reporting import ExperimentResult
from repro.experiments.trials import fraction_grid, run_method_trials_seeded
from repro.experiments.workloads import (
    FIGURE4_END_FRACTIONS,
    Workload,
    shared_suite,
)
from repro.interventions.plan import InterventionPlan
from repro.query.aggregates import Aggregate
from repro.query.processor import QueryProcessor
from repro.system.executor import ExecutorConfig, ParallelExecutor
from repro.system.observe import ledger as run_ledger

MEAN_METHODS = ("smokescreen", "ebgs", "hoeffding", "hoeffding-serfling", "clt")
QUANTILE_METHODS = ("smokescreen", "stein")


def run_fig4(
    dataset_name: str,
    aggregate: Aggregate,
    trials: int = 100,
    frame_count: int | None = None,
    fractions: tuple[float, ...] | None = None,
    seed: int = 0,
    grid_points: int = 8,
    workers: int | str = 1,
) -> ExperimentResult:
    """Regenerate one Figure 4 panel (one dataset x one aggregate).

    Trials use per-``(fraction, trial)`` seed streams, so the panel is a
    pure function of ``seed`` — identical for any worker count.

    Args:
        dataset_name: ``"night-street"`` or ``"ua-detrac"``.
        aggregate: AVG, SUM, COUNT or MAX.
        trials: Independent sampling trials per fraction (paper: 100).
        frame_count: Optional reduced corpus size.
        fractions: Explicit fraction grid; defaults to a geometric grid
            ending at the paper's per-panel cut-off.
        seed: Trial randomness seed.
        grid_points: Grid size when ``fractions`` is defaulted.
        workers: Worker processes for the trial loops (``"auto"`` defers
            to the host and workload size).

    Returns:
        Series ``<method>_bound`` and ``<method>_err`` per fraction.
    """
    workload = Workload(dataset_name, aggregate, frame_count)
    query = workload.query()
    processor = QueryProcessor(shared_suite())
    executor = ParallelExecutor(ExecutorConfig(workers=workers))

    if fractions is None:
        end = FIGURE4_END_FRACTIONS[(dataset_name, aggregate)]
        fractions = fraction_grid(end, grid_points)
    methods = MEAN_METHODS if aggregate.is_mean_family else QUANTILE_METHODS

    series: dict[str, list[float]] = {}
    for method in methods:
        series[f"{method}_bound"] = []
        series[f"{method}_err"] = []
    for setting_index, fraction in enumerate(fractions):
        plan = InterventionPlan.from_knobs(f=fraction)
        summaries = run_method_trials_seeded(
            processor, query, plan, methods, trials, seed,
            setting_index=setting_index, executor=executor,
        )
        for method, summary in summaries.items():
            series[f"{method}_bound"].append(summary.mean_bound)
            series[f"{method}_err"].append(summary.mean_true_error)

    run_ledger.annotate(dataset=dataset_name)
    run_ledger.record_event(
        "fig4.panel",
        dataset=dataset_name,
        aggregate=aggregate.name,
        fractions=len(fractions),
        smokescreen_tightest_bound=round(
            min(series["smokescreen_bound"]), 6
        ),
    )

    return ExperimentResult(
        title=(
            f"Figure 4 panel: {workload.name} — true error and bounds vs "
            f"sample fraction ({trials} trials)"
        ),
        knob_label="fraction",
        knobs=list(fractions),
        series=series,
        notes=(
            "solid analogue: *_bound columns; dashed analogue: *_err columns",
            "no correction set (matching the paper's Figure 4 setting)",
        ),
    )
