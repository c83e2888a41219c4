"""Steady-state streaming throughput and the drift-repair loop, timed.

Replays the UA-DETRAC corpus as a live feed through the full stream
stack — camera counts → :class:`~repro.estimators.sentinel.BoundSentinel`
→ :class:`~repro.estimators.streaming.WindowedMeanEstimator` — twice:

- a **clean control** that must finish with zero breaches (the sentinel
  stays quiet inside the profiled regime), and
- a **hostile replay** where the weather scenario takes over mid-feed at
  near-whiteout severity; the sentinel must trip and issue an
  Algorithm 3 repair.

Alongside the end-to-end replays, the raw window engine is timed
standalone: :class:`~repro.stats.prefix_moments.SlidingWindowMoments`
appends (the deque-backed window with exact extrema).

Results land machine-readably in ``BENCH_stream.json`` at the repo root,
and the run's ledger record (``stream_runs.jsonl``, annotated with
``facts.stream.*`` from the hostile replay) feeds the
``repro runs check --min-stream-fps`` gate against the pinned
``benchmarks/stream_baseline.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.stats.prefix_moments import SlidingWindowMoments
from repro.system import telemetry
from repro.system.observe import ledger as run_ledger
from repro.system.stream import StreamConfig, replay_stream

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_stream.json"

#: Corpus frames per replay (the feed's universe).
FRAMES = 2000

#: Sliding-window capacity (and per-check batch size) of the replays.
WINDOW = 480

#: Values pushed through the raw engine's append loop.
RAW_APPENDS = 100_000


def _raw_window_fps() -> float:
    """Appends/sec of the sliding-window engine at the replay's window."""
    values = np.random.default_rng(1).gamma(2.0, 3.0, size=RAW_APPENDS)
    window = SlidingWindowMoments(WINDOW)
    started = time.perf_counter()
    for value in values:
        window.append(value)
    elapsed = time.perf_counter() - started
    assert window.is_full
    return RAW_APPENDS / elapsed


def test_stream_replay_throughput_and_repair(benchmark):
    ledger_path = os.environ.get("REPRO_STREAM_LEDGER", "stream_runs.jsonl")
    was_enabled = telemetry.enabled()
    if not was_enabled:
        telemetry.enable()
    run_ledger.begin_run(
        "stream",
        {"frames": FRAMES, "window": WINDOW, "benchmark": "stream"},
        ledger_path,
    )
    outcome: dict = {}

    def all_regimes() -> None:
        # Clean first, hostile last: facts.stream (the gated record) must
        # describe the hostile replay with the trip and the repair.
        outcome["clean"] = replay_stream(
            StreamConfig(frames=FRAMES, window=WINDOW)
        )
        outcome["hostile"] = replay_stream(
            StreamConfig(
                frames=FRAMES,
                window=WINDOW,
                scenario="weather",
                severity=0.95,
            )
        )
        outcome["window_fps"] = _raw_window_fps()

    status = "error"
    try:
        benchmark.pedantic(all_regimes, rounds=1, iterations=1)

        clean = outcome["clean"]
        hostile = outcome["hostile"]
        payload = {
            "benchmark": "stream",
            "query": "UA-DETRAC AVG replayed as a live feed",
            "cpu_count": os.cpu_count(),
            "frames": FRAMES,
            "window": WINDOW,
            "note": (
                "clean = in-regime replay (sentinel must stay quiet); "
                "hostile = weather@0.95 takes over at half-feed "
                "(sentinel must trip and auto-repair); raw = tight "
                "append loop on the standalone window engine"
            ),
            "clean": clean.as_payload(),
            "hostile": hostile.as_payload(),
            "raw_engines": {
                "appends": RAW_APPENDS,
                "window_appends_per_sec": round(outcome["window_fps"], 1),
            },
        }
        OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {OUTPUT_PATH}")
        print(json.dumps(payload, indent=2))

        # The clean control must finish inside the profiled regime.
        assert not clean.verdict.tripped, payload
        assert clean.violations == 0, payload
        # The hostile replay must trip after the onset and auto-repair.
        assert hostile.verdict.tripped, payload
        assert hostile.verdict.first_breach_count is not None, payload
        assert hostile.verdict.first_breach_count > hostile.onset_index, (
            payload
        )
        assert hostile.repairs == 1, payload
        repaired = hostile.verdict.repair
        assert repaired is not None and repaired.error_bound > 0.0, payload
        # Throughput sanity: the whole stack ingests well beyond any
        # camera's real-time rate (the CI gate enforces the pinned floor).
        assert hostile.frames_per_sec > 1000.0, payload
        status = "ok"
    finally:
        run_ledger.finish_run(
            status=status,
            exit_code=0 if status == "ok" else 1,
            snapshot=telemetry.registry().snapshot()
            if telemetry.enabled()
            else None,
        )
        if not was_enabled and telemetry.enabled():
            telemetry.disable()
