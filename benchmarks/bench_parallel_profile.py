"""Parallel profile generation, the persistent pool, and the batch kernels.

Reruns the §5.3.1 profile sweep under several execution regimes — serial
and 4-worker with cold/warm persistent caches, cold/warm worker pools,
the shared-memory data plane on and off, plus warm-cache estimation-kernel
regimes — verifying that

- the sweep is bit-identical across all regimes (the determinism contract
  of the parallel executor and the shared-memory data plane),
- a warm cache reruns the sweep with **zero** model invocations (the
  across-runs extension of the paper's reuse strategy),
- reusing the persistent pool removes the pool-per-call spawn tax
  (``warm_pool_reuse`` vs ``warm_parallel_cold_pool``),
- collecting telemetry never moves a many-trial kernel sweep's outputs and
  the disabled path stays cheap, and
- ``workers="auto"`` never falls behind plain warm serial on this sweep
  (the cost model keeps small workloads serial when the pool can't pay).

Measured wall times and invocation counts are written machine-readably to
``BENCH_profile.json`` next to the repo root. The strict multi-core
claims (parallel beats serial, pool reuse >= 5x over pool-per-call) are
asserted only when ``os.cpu_count() > 1``; single-CPU hosts record a
skip reason in the payload instead.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.detection import diskcache
from repro.experiments.timing import run_timing
from repro.experiments.workloads import UA_DETRAC, Workload
from repro.query.aggregates import Aggregate
from repro.system import shm, telemetry
from repro.system.costs import InvocationLedger
from repro.system.executor import pool_diagnostics, shutdown_pool

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_profile.json"


class _OpCountingRegistry(telemetry.MetricsRegistry):
    """A collecting registry that also counts instrumentation API calls,
    so the bench can price what the same call volume costs when no-op."""

    def __init__(self) -> None:
        super().__init__()
        self.ops = 0

    def count(self, name, value=1.0):
        self.ops += 1
        return super().count(name, value)

    def gauge(self, name, value):
        self.ops += 1
        return super().gauge(name, value)

    def observe(self, name, value):
        self.ops += 1
        return super().observe(name, value)

    def span(self, name, **attributes):
        self.ops += 1
        return super().span(name, **attributes)

    def timer(self, name):
        self.ops += 1
        return super().timer(name)


def _noop_call_seconds(calls: int = 200_000) -> float:
    """Measured per-call cost of the disabled (no-op) telemetry path."""
    assert not telemetry.enabled()
    start = time.perf_counter()
    for _ in range(calls):
        telemetry.count("bench.noop")
    return (time.perf_counter() - start) / calls


def _clear_model_memory_cache() -> None:
    """Empty the shared detector's in-process cache so each regime pays
    (or saves) the full detection cost, isolating the persistent cache."""
    Workload(UA_DETRAC, Aggregate.AVG, None).query().model.clear_cache()


def _timed_sweep(workers: int | str, trials: int = 1):
    ledger = InvocationLedger()
    start = time.perf_counter()
    result = run_timing(workers=workers, ledger=ledger, trials=trials)
    wall = time.perf_counter() - start
    return result, ledger.total, wall

#: Trials for the kernel regimes: enough that estimation dominates the
#: (cached) detector lookups, as in the paper's 100-trial experiments.
KERNEL_TRIALS = 100


def test_parallel_profile_and_cache(benchmark, show):
    runs: dict[str, dict] = {}
    series = {}
    telemetry_registry = _OpCountingRegistry()

    def regime(
        name: str,
        workers: int | str,
        clear_disk: bool,
        trials: int = 1,
    ) -> None:
        if clear_disk:
            diskcache.active_cache().clear()
        _clear_model_memory_cache()
        result, invocations, wall = _timed_sweep(workers, trials=trials)
        runs[name] = {
            "workers": workers,
            "cache": "cold" if clear_disk else "warm",
            "trials": trials,
            "wall_seconds": round(wall, 4),
            "model_invocations": invocations,
        }
        series[name] = (result.knobs, result.series["invocations"])
        if name == "cold_serial":
            show(result)

    def all_regimes() -> None:
        regime("cold_serial", workers=1, clear_disk=True)
        regime("warm_serial", workers=1, clear_disk=False)
        regime("warm_auto", workers="auto", clear_disk=False)
        # Pool-per-call baseline: every map call used to spawn (and tear
        # down) its own ProcessPoolExecutor; shutting the persistent pool
        # down first reproduces that cost exactly.
        shutdown_pool()
        regime("warm_parallel_cold_pool", workers=4, clear_disk=False)
        # The pool spawned above is now warm and gets reused.
        regime("warm_parallel", workers=4, clear_disk=False)
        regime("warm_pool_reuse", workers=4, clear_disk=False)
        # Same warm pool with the shared-memory data plane disabled:
        # payloads pickle the full corpus again (series must not move).
        shm.set_enabled(False)
        try:
            regime("warm_parallel_no_shm", workers=4, clear_disk=False)
        finally:
            shm.set_enabled(None)
        # Kernel regimes: warm cache, paper-scale trial count, so wall
        # time is dominated by the estimation stage.
        regime(
            "kernel_vectorized", workers=1, clear_disk=False,
            trials=KERNEL_TRIALS,
        )
        # Same regime with telemetry collecting: outputs must not move
        # (telemetry is written, never read) and the run's metrics land
        # in the snapshot recorded below.
        previous = telemetry.install(telemetry_registry)
        try:
            regime(
                "kernel_vectorized_telemetry", workers=1, clear_disk=False,
                trials=KERNEL_TRIALS,
            )
        finally:
            telemetry.install(previous)
        regime("cold_parallel", workers=4, clear_disk=True)

    with tempfile.TemporaryDirectory(prefix="bench-detector-cache-") as root:
        diskcache.activate(root)
        try:
            benchmark.pedantic(all_regimes, rounds=1, iterations=1)
            diagnostics = pool_diagnostics()
        finally:
            shutdown_pool()
            diskcache.deactivate()
            _clear_model_memory_cache()

    # The two cold regimes agree on the full per-resolution accounting:
    # each (removal, resolution) unit owns its resolution's outputs, so
    # worker count cannot change what gets recorded. (Bit-identity of the
    # profile itself across worker counts is asserted by the executor
    # test suite; warm runs record zero invocations by design.)
    assert series["cold_parallel"] == series["cold_serial"]

    # The paper's accounting still holds on the cold sweep (~6,084).
    assert 5000 <= runs["cold_serial"]["model_invocations"] <= 7000

    # Warm reruns are free: all outputs come from disk, the merged ledger
    # records nothing — including the kernel regimes, whose extra trials
    # re-read cached outputs only.
    for name in ("warm_serial", "warm_auto", "warm_parallel_cold_pool",
                 "warm_parallel", "warm_pool_reuse", "warm_parallel_no_shm",
                 "kernel_vectorized"):
        assert runs[name]["model_invocations"] == 0, name

    # The shared-memory data plane never moves the series: pool runs with
    # shm on and off price the identical sweep.
    assert series["warm_parallel_no_shm"] == series["warm_parallel"]
    assert series["warm_pool_reuse"] == series["warm_parallel"]

    # Determinism: collecting telemetry must not move the sweep's outputs.
    assert series["kernel_vectorized_telemetry"] == series["kernel_vectorized"]
    assert runs["kernel_vectorized_telemetry"]["model_invocations"] == 0

    # The telemetry-on run observed itself: on this warm-cache sweep every
    # detector consultation is a cache hit, and nothing degraded.
    snapshot = telemetry_registry.snapshot()
    counters = snapshot.counters
    assert counters["cache.hit"] > 0
    assert counters["cache.hit"] == counters.get("detector.consultations")
    assert counters.get("cache.corrupt", 0) == 0
    assert counters.get("executor.fallback", 0) == 0
    assert any(record.name == "profiler.sweep"
               for record in telemetry.iter_spans(snapshot))

    # Price the disabled path: the same instrumentation call volume at the
    # measured no-op per-call cost must stay under 2% of the regime's wall.
    noop_seconds = _noop_call_seconds()
    noop_overhead_fraction = (
        telemetry_registry.ops * noop_seconds
        / runs["kernel_vectorized"]["wall_seconds"]
    )
    telemetry_overhead = (
        runs["kernel_vectorized_telemetry"]["wall_seconds"]
        / runs["kernel_vectorized"]["wall_seconds"]
    )

    warm_speedup = (
        runs["cold_serial"]["wall_seconds"] / runs["warm_serial"]["wall_seconds"]
    )
    pool_reuse_speedup = (
        runs["warm_parallel_cold_pool"]["wall_seconds"]
        / runs["warm_pool_reuse"]["wall_seconds"]
    )
    multicore = (os.cpu_count() or 1) > 1

    payload = {
        "benchmark": "parallel_profile",
        "sweep": "§5.3.1 hypercube (UA-DETRAC AVG, 10 resolutions, ≤4%)",
        "cpu_count": os.cpu_count(),
        "note": (
            "warm_parallel_cold_pool reproduces the retired pool-per-call "
            "behaviour (spawn + calibrate per map); warm_parallel and "
            "warm_pool_reuse ride the persistent pool; kernel regimes: "
            f"warm cache, {KERNEL_TRIALS} trials"
        ),
        "runs": runs,
        "pool": diagnostics,
        "multicore_assertions": (
            "enforced" if multicore
            else "skipped: single-CPU host (os.cpu_count() <= 1), parallel "
                 "wall times cannot beat serial without real cores"
        ),
        "speedup_warm_vs_cold_serial": round(warm_speedup, 3),
        "speedup_warm_parallel_vs_cold_serial": round(
            runs["cold_serial"]["wall_seconds"]
            / runs["warm_parallel"]["wall_seconds"],
            3,
        ),
        "speedup_pool_reuse_vs_cold_pool": round(pool_reuse_speedup, 3),
        "telemetry": {
            "series_identical_enabled_vs_disabled": True,  # asserted above
            "overhead_enabled_vs_disabled": round(telemetry_overhead, 3),
            "instrumentation_ops": telemetry_registry.ops,
            "noop_call_seconds": round(noop_seconds, 9),
            "noop_overhead_fraction_of_kernel_vectorized": round(
                noop_overhead_fraction, 6
            ),
            "snapshot_counters": snapshot.to_dict()["counters"],
        },
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")
    print(json.dumps(payload, indent=2))

    assert warm_speedup > 1.0, runs
    # The off-by-default path is cheap: the whole instrumentation call
    # volume, priced at the measured no-op cost, is <2% of the regime.
    assert noop_overhead_fraction < 0.02, payload["telemetry"]
    # "auto" must never regress over warm serial: the cost model keeps
    # this sweep serial unless the warm pool is predicted to pay for
    # itself. Allow measurement noise but no structural regression.
    assert (
        runs["warm_auto"]["wall_seconds"]
        <= 1.5 * runs["warm_serial"]["wall_seconds"] + 0.05
    ), runs
    # Reusing the persistent pool always beats respawning it per call.
    assert (
        runs["warm_pool_reuse"]["wall_seconds"]
        < runs["warm_parallel_cold_pool"]["wall_seconds"]
    ), runs
    if multicore:
        # The tentpole's success metric: with a persistent pool and the
        # shared-memory data plane, the parallel path wins outright on
        # real cores, and pool reuse amortises the spawn tax >= 5x.
        assert (
            runs["warm_parallel"]["wall_seconds"]
            < runs["warm_serial"]["wall_seconds"]
        ), runs
        assert (
            runs["cold_parallel"]["wall_seconds"]
            < runs["cold_serial"]["wall_seconds"]
        ), runs
        assert pool_reuse_speedup >= 5.0, runs
    else:
        print(
            "\nskipping multi-core assertions: os.cpu_count() <= 1 "
            "(recorded in payload)"
        )
