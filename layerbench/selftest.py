"""Self-test of the benchmark at tiny sizes.

Run from the checkout root::

    python3 layerbench/selftest.py

It checks four things and exits non-zero if any fails:

1. every metric ``BENCHMARK.json`` names is emitted, with its unit, by
   every workload in both the untraced and the traced run (1-second runs);
2. each output checker flags a deliberately corrupted expected answer;
3. ``detection.model_invocations`` counts detector evaluations in pool
   workers: zero with the warm cache, nonzero once workers lose it;
4. the load generator reports lateness when the offered rate is far above
   what the daemon can serve.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, STATE_DIR, WORKLOADS  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, label: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {label}", flush=True)
    if not condition:
        FAILURES.append(label)


def metrics_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            done = subprocess.run(
                [sys.executable, str(ROOT / spec["command"][1]), "--workload",
                 workload, "--seed", "11", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}: every {key} metric with its unit"
            if done.returncode != 0:
                expect(False, f"{label} (exit {done.returncode}: "
                              f"{done.stderr.strip()[-300:]})")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted and set(result) == {
                "correct", "attempted", "failed", "metrics"}, label)
            expect(result["correct"] is True, f"{workload} --trace {trace}: correct")


def profile_checker() -> None:
    import profile_put
    from repro import Aggregate, Smokescreen
    from repro.experiments.workloads import load_dataset, model_for, shared_suite

    dataset = load_dataset("night-street", 1200)
    system = Smokescreen(dataset, model_for("night-street"), suite=shared_suite(),
                         trials=3, seed=5)
    for call, kind in enumerate((Aggregate.AVG, Aggregate.MAX)):
        query = system.query(kind)
        grid = system.candidates(max_fraction=0.1, resolution_count=3)
        correction = system.build_correction_set(query)
        cube = system.profile(query, grid, correction=correction)
        jobs = [((5, call), correction, cube)]  # the system's call-th profile
        ok, _ = profile_put.check_jobs(system.processor, query, grid, 3, jobs, 1)
        expect(ok, f"profile checker accepts a true {kind.name} cube")
        cube.bounds[...] *= 1 + 1e-6
        bad, _ = profile_put.check_jobs(system.processor, query, grid, 3, jobs, 1)
        expect(not bad, f"profile checker flags a corrupted {kind.name} cube")


def invocations_counted() -> None:
    import profile_put
    from repro.detection import diskcache

    bench = profile_put.ProfileBench("profile-repair", 5, str(STATE_DIR),
                                     count_evaluations=True)
    try:
        bench.job()
        before = bench.evaluations()
        bench.job()
        warm = bench.evaluations() - before
        expect(warm == 0, f"no model evaluations with a warm cache ({warm:.0f})")
        # Pool workers respawn without the persistent cache and must re-run
        # the detector; their evaluations have to reach the count.
        diskcache.deactivate()
        before = bench.evaluations()
        bench.job()
        cold = bench.evaluations() - before
        expect(cold > 0, f"model evaluations in pool workers are counted "
                         f"({cold:.0f} without a worker cache)")
    finally:
        bench.close()


def serve_checkers() -> None:
    import loadgen

    ref = loadgen.Reference()
    answer = {"dataset": "ua-detrac", "seed": 3}
    expected = ref.bound_reference(answer)
    answer.update(error_bound=float(expected.error_bound),
                  value=float(expected.value))
    expect(not loadgen.check_bounds([(answer, expected)]),
           "bound checker accepts the library answer")
    wrong = dataclasses.replace(expected, error_bound=expected.error_bound * (1 + 1e-6))
    expect(bool(loadgen.check_bounds([(answer, wrong)])),
           "bound checker flags a corrupted expected bound")
    expect(bool(loadgen.check_coalesced([(answer, {**answer, "value": 0.0})])),
           "coalescing checker flags a differing singleton answer")

    # Answers as the daemon would give them, produced by a library sentinel.
    payload = ref.stream_open_payload("night-street", 1)
    server, estimator = ref.stream_replica(payload)
    good = []
    for index in range(6):
        chunk = ref.values["night-street"][index * 32:(index + 1) * 32]
        server.extend(chunk)
        verdict = server.verdict()
        good.append((chunk, {
            "ingests": index + 1, "count": estimator.count,
            "verdict": {"tripped": verdict.tripped, "breaches": verdict.breaches,
                        "checks": verdict.checks},
            "value": float(estimator.estimate().value)}))
    expect(not loadgen.check_stream(ref.stream_replica(payload), good),
           "stream checker accepts the library verdicts")
    flipped = [(chunk, {**body, "verdict": {**body["verdict"],
                                            "tripped": not body["verdict"]["tripped"]}})
               for chunk, body in good]
    expect(bool(loadgen.check_stream(ref.stream_replica(payload), flipped)),
           "stream checker flags a corrupted verdict")

    bad = loadgen.Request(0.0, "malformed", "/bound", b"{", "t", {"flavour": "bad_json"})
    bad.status = 200
    expect(bool(loadgen.check_malformed([bad])),
           "malformed checker flags a 2xx answer")
    first, second = (loadgen.Request(0.0, "profile", "/profile", b"", "t")
                     for _ in range(2))
    first.answer = {"fingerprint": "f", "slices": {"sampling": [1.0]}}
    second.answer = {"fingerprint": "f", "slices": {"sampling": [2.0]}}
    expect(bool(loadgen.check_profiles([first, second])),
           "profile-answer checker flags differing answers for one cube")


def lateness_reported() -> None:
    import loadgen
    import run

    ref = loadgen.Reference()
    saved = loadgen.TENANTS
    loadgen.TENANTS = 200  # keep every tenant inside its budget
    launched, port, _, _ = run._launch_daemon(0, None)
    try:
        window = run.serve_window(ref, port, launched.proc.pid, 3, 1.0, 3000.0)
    finally:
        run._stop_daemon(launched, port)
        loadgen.TENANTS = saved
    expect(window["lateness_p99"] > 0.25,
           f"lateness reported far above saturation "
           f"(p99 {window['lateness_p99']:.3f}s at 3000/s)")


def main() -> int:
    sys.path.insert(0, str(SRC))
    metrics_emitted()
    STATE_DIR.mkdir(exist_ok=True)
    try:
        profile_checker()
        serve_checkers()
        invocations_counted()
        lateness_reported()
    finally:
        shutil.rmtree(STATE_DIR, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
