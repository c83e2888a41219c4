"""The process under test for the two profile workloads.

Launched by ``run.py``; prints ``READY`` once set-up is done (imports,
corpus build, the cold detector pass, pool spawn), then, in ``measure``
mode, runs a closed loop of identical profile jobs with one in-process
caller and prints ``RESULT`` with the timings, resource use, the output
check and, when traced, the per-layer metrics.

Every job of a run has the same shape; only its seed differs. Job ``k``
is the ``k``-th ``Smokescreen.profile`` call of one system, whose seed
stream is rooted at ``(seed, k)``.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
import time

from common import OUT_DIR, emit, median, tree_cpu_seconds, tree_peak_rss_mb

#: workload -> (corpus, aggregate, trials, workers, builds a correction set)
SHAPES = {
    "profile-mean": ("ua-detrac", "AVG", 100, 1, False),
    "profile-repair": ("night-street", "MAX", 10, 2, True),
}

#: The default candidate grid capped at this fraction: 10 fractions x 10
#: resolutions x 4 removal combinations = 400 cells.
MAX_FRACTION = 0.1

#: Jobs and cells per job whose outputs are re-derived by the scalar path.
CHECK_JOBS = 4
CHECK_CELLS = 3
TOLERANCE = 1e-9


def scalar_cell(processor, query, candidates, root, trials, correction,
                cell):
    """One hypercube cell re-derived with the scalar per-trial estimators.

    Uses only public library functions: the seed-stream contract
    (``child_rng(root, unit, trial)`` with unit ``removal * R +
    resolution``), the nested progressive sample, and the scalar
    estimators plus the Eq. 12/13 correction terms.

    Returns:
        ``(value, bound)`` averaged over the trials.
    """
    from repro.estimators.quantile import SmokescreenQuantileEstimator
    from repro.estimators.repair import ProfileRepair
    from repro.estimators.smokescreen import SmokescreenMeanEstimator
    from repro.interventions.plan import InterventionPlan
    from repro.stats.sampling import ProgressiveSampler, SampleDesign
    from repro.system.executor import child_rng

    fi, ri, ci = cell
    fractions = candidates.fractions
    resolution = candidates.resolutions[ri]
    removal = candidates.removals[ci]
    unit = ci * len(candidates.resolutions) + ri
    base = InterventionPlan.from_knobs(p=resolution, c=removal)
    eligible = base.eligible_indices(query.dataset, processor.suite)
    universe = int(eligible.size)
    top = SampleDesign(universe, max(fractions)).size
    size = SampleDesign(universe, fractions[fi]).size
    full = processor.frame_values(
        query, base.effective_resolution(query.dataset), base.quality)
    plan = InterventionPlan.from_knobs(f=fractions[fi], p=resolution, c=removal)
    is_random = plan.is_random_for(query.dataset) and not getattr(
        query.model, "requires_sequence", False)
    population = query.dataset.frame_count
    aggregate = query.aggregate
    values, bounds = [], []
    for trial in range(trials):
        sampler = ProgressiveSampler(
            universe, child_rng(root, unit, trial), max_size=top)
        sample = full[eligible[sampler.prefix(size)]]
        if aggregate.name == "AVG":
            estimator = SmokescreenMeanEstimator()
            basic = estimator.estimate(
                sample, universe, query.delta, value_range=query.known_value_range)
            bound = basic.error_bound
            if correction is not None:
                reference = estimator.estimate(
                    correction.values, population, query.delta,
                    value_range=query.known_value_range)
                corrected = ProfileRepair.corrected_mean_bound(
                    basic.value, reference)
                bound = min(bound, corrected) if is_random else corrected
        elif aggregate.name == "MAX":
            estimator = SmokescreenQuantileEstimator()
            q = query.effective_quantile
            basic = estimator.estimate(sample, universe, q, query.delta, aggregate)
            bound = basic.error_bound
            if correction is not None:
                reference = estimator.estimate(
                    correction.values, population, q, query.delta, aggregate)
                corrected = ProfileRepair.corrected_quantile_bound(
                    basic.value, reference.value, correction.values, q, reference)
                bound = min(bound, corrected) if is_random else corrected
        else:
            raise ValueError(f"no scalar reference for {aggregate.name}")
        values.append(basic.value)
        bounds.append(bound)
    return sum(values) / trials, sum(bounds) / trials


def cell_matches(expected: tuple[float, float], got: tuple[float, float]) -> bool:
    return all(
        math.isclose(e, g, rel_tol=TOLERANCE, abs_tol=TOLERANCE)
        for e, g in zip(expected, got)
    )


def check_jobs(processor, query, candidates, trials, jobs, seed) -> tuple[bool, int]:
    """Re-derive a seeded subset of cells of a seeded subset of jobs.

    Args:
        jobs: ``(root, correction, cube)`` per completed job.

    Returns:
        ``(all matched, cells checked)``.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 2])
    picked = rng.choice(len(jobs), size=min(CHECK_JOBS, len(jobs)), replace=False)
    checked = 0
    for index in sorted(int(i) for i in picked):
        root, correction, cube = jobs[index]
        for _ in range(CHECK_CELLS):
            cell = tuple(int(rng.integers(dim)) for dim in cube.bounds.shape)
            expected = scalar_cell(processor, query, candidates, root, trials,
                                   correction, cell)
            got = (float(cube.values[cell]), float(cube.bounds[cell]))
            checked += 1
            if not cell_matches(expected, got):
                return False, checked
    return True, checked


class ProfileBench:
    """One profile workload's system, set up once per process."""

    def __init__(self, workload: str, seed: int, state_dir: str, tracer=None,
                 count_evaluations: bool = False):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.setup: dict[str, float] = {}
        started = time.perf_counter()
        import repro  # noqa: F401  (timed: the package import)
        from repro import Aggregate, Smokescreen
        from repro.detection import diskcache
        from repro.experiments.workloads import load_dataset, model_for, shared_suite
        from repro.interventions.plan import InterventionPlan
        from repro.system.executor import ExecutorConfig, ParallelExecutor

        self.setup["setup.import_s"] = time.perf_counter() - started
        if count_evaluations:
            # The library counts detector evaluations once telemetry is on;
            # pool workers spawned afterwards count theirs too, and the
            # executor merges their counts into this process.
            from repro.system import telemetry

            telemetry.enable()
        if tracer is not None:
            from layers import detector_layer

            tracer.install([detector_layer()])
        corpus, aggregate, trials, workers, repair = SHAPES[workload]
        self.trials, self.repair = trials, repair
        # Pool workers read detector outputs from the persistent cache;
        # without one every work unit would re-run the detector.
        self.cache_dir = os.path.join(state_dir, f"detcache-{os.getpid()}")
        diskcache.activate(self.cache_dir)

        started = time.perf_counter()
        dataset = load_dataset(corpus)
        self.setup["video.corpus_build_s"] = time.perf_counter() - started

        self.system = Smokescreen(dataset, model_for(corpus), suite=shared_suite(),
                                  trials=trials, seed=seed, workers=workers)
        kind = Aggregate[aggregate]
        self.query = (self.system.query(kind, quantile_r=0.99)
                      if kind is Aggregate.MAX else self.system.query(kind))
        self.candidates = self.system.candidates(max_fraction=MAX_FRACTION)

        started = time.perf_counter()
        processor = self.system.processor
        for resolution in self.candidates.resolutions:
            processor.frame_values(self.query, resolution)
            for combo in self.candidates.removals:
                InterventionPlan.from_knobs(p=resolution, c=combo).eligible_indices(
                    dataset, processor.suite)
        self.setup["detection.cold_pass_s"] = time.perf_counter() - started

        started = time.perf_counter()
        ParallelExecutor(ExecutorConfig(workers=workers)).prewarm()
        self.setup["system.executor.pool_spawn_s"] = time.perf_counter() - started
        self.setup["system.serve.warmup_s"] = 0.0
        self.jobs_started = 0
        self.kept: list[tuple] = []

    @staticmethod
    def evaluations() -> float:
        """Detector evaluations so far, in this process and its workers."""
        from repro.system import telemetry

        snapshot = telemetry.registry().snapshot()
        return snapshot.counters.get("detector.evaluations", 0.0) if snapshot else 0.0

    def job(self):
        """One profile job; returns ``(root, correction, cube)``."""
        root = (self.seed, self.jobs_started)
        self.jobs_started += 1
        correction = (self.system.build_correction_set(self.query)
                      if self.repair else None)
        cube = self.system.profile(self.query, self.candidates, correction=correction)
        return root, correction, cube

    def phase(self, seconds: float) -> dict:
        """Closed loop: run jobs back to back until ``seconds`` elapse."""
        latencies: list[float] = []
        failed = 0
        cells = 0
        pid = os.getpid()
        cpu_before = tree_cpu_seconds(pid)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            started = time.perf_counter()
            try:
                root, correction, cube = self.job()
            except Exception as error:  # counted, reported, never hidden
                failed += 1
                print(f"job failed: {error!r}", file=sys.stderr)
                continue
            latencies.append(time.perf_counter() - started)
            cells += int(cube.bounds.size)
            self.kept.append((root, correction, cube))
        t1 = time.perf_counter()
        return {
            "t0": t0, "t1": t1, "latencies": latencies, "failed": failed,
            "cpu_s": tree_cpu_seconds(pid) - cpu_before,
            "estimates": cells * self.trials,
        }

    def check(self) -> tuple[bool, int]:
        if self.tracer is not None:
            self.tracer.recording = False
        return check_jobs(self.system.processor, self.query, self.candidates,
                          self.trials, self.kept, self.seed)

    def close(self) -> None:
        from repro.system.executor import shutdown_pool

        shutdown_pool()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--state", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    bench = ProfileBench(args.workload, args.seed, args.state, tracer,
                         count_evaluations=bool(args.trace))
    try:
        ready = time.perf_counter()
        emit("READY", {"setup": bench.setup})
        if args.mode == "setup":
            return 0
        bench.job()  # warm-up: first-touch costs stay out of the timed loop
        bench.kept.clear()
        result: dict = {"setup": bench.setup}
        if not args.trace:
            result["phase"] = bench.phase(args.seconds)
        else:
            # Untraced half, then the same loop with every layer wrapped:
            # the ratio of their medians is the tracing overhead.
            untraced = bench.phase(args.seconds / 2)
            from layers import all_layers, setup_from_spans, window_metrics

            tracer.install(all_layers())
            evaluated = bench.evaluations()
            traced = bench.phase(args.seconds / 2)
            evaluated = bench.evaluations() - evaluated
            spans = tracer.spans
            setup = setup_from_spans(spans, ready)
            result["setup"] = {**bench.setup,
                               "detection.cold_pass_s": setup["detection.cold_pass_s"]}
            ops = len(traced["latencies"])
            layers = window_metrics(spans, traced["t0"], traced["t1"], ops)
            layers["detection.model_invocations"] = evaluated
            busy = sum(traced["latencies"])
            layers["trace.coverage"] = layers.pop("covered_s") / busy if busy else 0.0
            layers["trace.overhead_ratio"] = (
                median(traced["latencies"]) / median(untraced["latencies"]))
            result["phase"] = traced
            result["layers"] = layers
            OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(OUT_DIR / f"{args.workload}-spans.json")
        result["peak_rss_mb"] = tree_peak_rss_mb(os.getpid())
        correct, checked = bench.check()
        result["correct"], result["checked"] = correct, checked
        emit("RESULT", result)
        return 0
    finally:
        bench.close()


if __name__ == "__main__":
    sys.exit(main())
