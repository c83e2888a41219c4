"""Figure 6: error bounds with and without the correction set.

Three rows per dataset and aggregate (AVG, MAX): the varying knob is
sampling fraction, frame resolution, or restricted class, with the other
two fixed. The expected shapes (§5.2.2):

- sampling row: both bounds valid; the corrected bound can be tighter when
  the correction set carries more information than the degraded sample;
- resolution and removal rows: the *uncorrected* bound falls below the true
  error at strong interventions (low resolution / "person" removal) —
  circled red in the paper — while the corrected bound always covers it.

Correction-set sizes follow §5.2.2: 6% (night-street AVG), 2% (night-street
MAX), 4% (UA-DETRAC AVG), 2% (UA-DETRAC MAX). The sample fraction is fixed
at 0.5 while varying non-random knobs, except 0.1 for UA-DETRAC person
removal (fewer than half the frames survive it).
"""

from __future__ import annotations

import numpy as np

from repro.core.correction import CorrectionSet
from repro.errors import ConfigurationError
from repro.experiments.reporting import ExperimentResult
from repro.experiments.trials import run_repair_trials_seeded
from repro.system.executor import ExecutorConfig, ParallelExecutor
from repro.experiments.workloads import (
    NIGHT_STREET,
    UA_DETRAC,
    Workload,
    shared_suite,
)
from repro.interventions.plan import InterventionPlan
from repro.query.aggregates import Aggregate
from repro.query.processor import QueryProcessor
from repro.stats.sampling import ProgressiveSampler
from repro.system.observe import ledger as run_ledger
from repro.video.frame import ObjectClass
from repro.video.geometry import resolution_grid

#: §5.2.2's correction-set fractions per (dataset, aggregate).
CORRECTION_FRACTIONS: dict[tuple[str, Aggregate], float] = {
    (NIGHT_STREET, Aggregate.AVG): 0.06,
    (NIGHT_STREET, Aggregate.MAX): 0.02,
    (UA_DETRAC, Aggregate.AVG): 0.04,
    (UA_DETRAC, Aggregate.MAX): 0.02,
}

AXES = ("sampling", "resolution", "removal")


def build_correction(
    processor: QueryProcessor,
    workload: Workload,
    fraction: float,
    rng: np.random.Generator,
) -> CorrectionSet:
    """A correction set of a prescribed fraction (bypassing the heuristic).

    Args:
        processor: The query processor.
        workload: The workload the set serves.
        fraction: The set's size as a corpus fraction.
        rng: Randomness for the underlying sample.

    Returns:
        The correction set (trace contains only the final size).
    """
    query = workload.query()
    population = query.dataset.frame_count
    size = max(1, round(population * fraction))
    sampler = ProgressiveSampler(population, rng)
    indices = sampler.prefix(size)
    values = processor.true_values(query)[indices]
    return CorrectionSet(
        frame_indices=indices,
        values=values,
        error_bound=float("nan"),
        trace=((size, float("nan")),),
    )


def _plan_for(axis: str, knob, fixed_fraction: float) -> InterventionPlan:
    if axis == "sampling":
        return InterventionPlan.from_knobs(f=float(knob))
    if axis == "resolution":
        return InterventionPlan.from_knobs(f=fixed_fraction, p=int(knob))
    if axis == "removal":
        return InterventionPlan.from_knobs(f=fixed_fraction, c=knob)
    raise ConfigurationError(f"unknown Figure 6 axis {axis!r}; valid: {AXES}")


def _knob_grid(axis: str, workload: Workload, frame_count: int | None):
    if axis == "sampling":
        return (0.01, 0.02, 0.05, 0.1, 0.2, 0.4)
    if axis == "resolution":
        dataset = workload.query().dataset
        grid = resolution_grid(dataset.native_resolution, 8)
        return tuple(resolution.side for resolution in grid)
    return ((), (ObjectClass.FACE,), (ObjectClass.PERSON,),
            (ObjectClass.PERSON, ObjectClass.FACE))


def _knob_label(axis: str, knob) -> object:
    if axis == "removal":
        return "+".join(cls.name.lower() for cls in knob) if knob else "none"
    return float(knob)


def run_fig6(
    dataset_name: str,
    aggregate: Aggregate,
    axis: str,
    trials: int = 100,
    frame_count: int | None = None,
    seed: int = 0,
    workers: int | str = 1,
) -> ExperimentResult:
    """Regenerate one Figure 6 row.

    Trials use per-``(knob, trial)`` seed streams, so the row is a pure
    function of ``seed`` — identical for any worker count.

    Args:
        dataset_name: The corpus.
        aggregate: AVG or MAX (the paper only tests these two; SUM/COUNT
            share AVG's algorithm).
        axis: ``"sampling"``, ``"resolution"`` or ``"removal"``.
        trials: Sampling trials per knob (paper: 100).
        frame_count: Optional reduced corpus size.
        seed: Trial randomness seed.
        workers: Worker processes for the trial loops (``"auto"`` defers
            to the host and workload size).

    Returns:
        Series: bound without correction, bound with correction, true error.
    """
    if aggregate not in (Aggregate.AVG, Aggregate.MAX):
        raise ConfigurationError("Figure 6 evaluates AVG and MAX only")
    workload = Workload(dataset_name, aggregate, frame_count)
    query = workload.query()
    processor = QueryProcessor(shared_suite())
    rng = np.random.default_rng(seed)

    correction = build_correction(
        processor, workload, CORRECTION_FRACTIONS[(dataset_name, aggregate)], rng
    )

    # §5.2.2's exception: UA-DETRAC person removal leaves under half the
    # frames, so the fixed fraction drops to 0.1 on the removal axis.
    fixed_fraction = 0.1 if (axis == "removal" and dataset_name == UA_DETRAC) else 0.5

    knobs = _knob_grid(axis, workload, frame_count)
    series: dict[str, list[float]] = {
        "bound_no_correction": [],
        "bound_with_correction": [],
        "true_error": [],
    }
    executor = ParallelExecutor(ExecutorConfig(workers=workers))
    for knob in knobs:
        plan = _plan_for(axis, knob, fixed_fraction)
        # setting_index 0 for every knob: trial t draws the same stream at
        # each knob, keeping the row's knobs comparable.
        summary = run_repair_trials_seeded(
            processor, query, plan, correction.values, trials, seed + 1,
            setting_index=0, executor=executor,
        )
        series["bound_no_correction"].append(summary.uncorrected_bound)
        series["bound_with_correction"].append(summary.corrected_bound)
        series["true_error"].append(summary.true_error)

    run_ledger.annotate(dataset=dataset_name)
    run_ledger.record_event(
        "fig6.row",
        dataset=dataset_name,
        aggregate=aggregate.name,
        axis=axis,
        correction_fraction=CORRECTION_FRACTIONS[(dataset_name, aggregate)],
        corrected_bound_max=round(max(series["bound_with_correction"]), 6),
    )

    return ExperimentResult(
        title=(
            f"Figure 6 row: {workload.name}, {axis} axis — bounds w/ and "
            f"w/o correction set ({trials} trials)"
        ),
        knob_label=axis,
        knobs=[_knob_label(axis, knob) for knob in knobs],
        series=series,
        notes=(
            f"correction set: "
            f"{CORRECTION_FRACTIONS[(dataset_name, aggregate)]:.0%} of frames",
            f"fixed sample fraction {fixed_fraction} on non-sampling axes",
            "validity check: bound_with_correction >= true_error everywhere",
        ),
    )
