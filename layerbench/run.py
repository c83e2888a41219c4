"""The repository benchmark: three workloads, end-to-end and per layer.

Usage (from the checkout root)::

    python3 layerbench/run.py --workload profile-mean --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures again with every traced layer wrapped and reports
the per-layer metrics instead. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(``{"value", "unit"}`` per metric). The line before it, tagged
``REPORT``, adds each metric's sample count, host information and set-up
details.

See ``layerbench/README.md`` for the workloads, metric definitions and
the predictions each per-layer metric carries.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import queue
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import loadgen  # noqa: E402
from common import (  # noqa: E402
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    SETUP_LAUNCHES,
    SRC,
    STATE_DIR,
    WORKLOADS,
    BenchError,
    child_env,
    emit,
    host_info,
    median,
    metric,
    percentile,
    require_sources,
    tree_cpu_seconds,
    tree_peak_rss_mb,
)
from layers import PER_LAYER, setup_from_spans, window_metrics  # noqa: E402

#: Offered load of ``serve-mixed``, requests/second: about half the rate at
#: which a 2-vCPU host saturates the daemon with this mix (see README).
SERVE_RATE = 130.0

#: ``serve-mixed`` reports its p90 as the median of the p90s of this many
#: equal slices of the schedule, so one stall burst moves one slice only.
SERVE_SLICES = 5

#: Seconds any one launched process may take to report ready.
READY_TIMEOUT = 120.0

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class Launched:
    """A launched process under test whose stdout lines are read by a thread."""

    def __init__(self, argv: list[str], log_name: str) -> None:
        self._log = open(STATE_DIR / log_name, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=self._log,
            text=True)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def expect(self, pattern: str, timeout: float) -> tuple[str, float]:
        """The first stdout line containing ``pattern`` and when it came."""
        deadline = time.perf_counter() + timeout
        while True:
            remaining = deadline - time.perf_counter()
            try:
                line = self._lines.get(timeout=max(remaining, 0.01))
            except queue.Empty:
                line = ""
                if remaining <= 0:
                    raise BenchError(f"no {pattern!r} line within {timeout}s")
                continue
            if line is None:
                raise BenchError(f"process exited before printing {pattern!r}; "
                                 f"see {STATE_DIR}")
            if pattern in line:
                return line, time.perf_counter()

    def payload(self, tag: str, timeout: float) -> tuple[dict, float]:
        line, at = self.expect(tag + " ", timeout)
        return json.loads(line[line.index(tag + " ") + len(tag) + 1:]), at

    def finish(self, timeout: float = 60.0) -> None:
        """Wait for the process; kill it if it does not end in time."""
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5)
        self._log.close()


# ---------------------------------------------------------------------------
# Profile workloads: the process under test runs the closed loop itself.
# ---------------------------------------------------------------------------


def run_profile(workload: str, seed: int, seconds: float, trace: int) -> dict:
    script = str(BENCH_DIR / "profile_put.py")
    base = [script, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--state", str(STATE_DIR),
            "--trace", str(trace)]
    setups: list[float] = []
    launches = 1 if trace else SETUP_LAUNCHES
    result: dict = {}
    for index in range(launches):
        measure = index == launches - 1
        launched = Launched(base + ["--mode", "measure" if measure else "setup"],
                            f"{workload}.log")
        try:
            _, ready = launched.payload("READY", READY_TIMEOUT)
            setups.append(ready - launched.started)
            if measure:
                result, _ = launched.payload("RESULT", seconds + 150)
        except BaseException:
            launched.proc.kill()
            raise
        finally:
            launched.finish()
    phase = result["phase"]
    latencies = phase["latencies"]
    if not latencies:
        raise BenchError("no profile job completed")
    ops = len(latencies)
    e2e = {
        "setup_s": metric(median(setups), "s", len(setups)),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB", 1),
        "op_p50_s": metric(median(latencies), "s", ops),
        "op_p90_s": metric(percentile(latencies, 0.90), "s", ops),
        "work_per_s": metric(phase["estimates"] / sum(latencies), "1/s", ops),
        "cpu_s_per_op": metric(phase["cpu_s"] / ops, "s", ops),
    }
    layers = dict(result.get("layers", {}))
    layers.update({"loadgen.lateness_p99_s": 0.0, "loadgen.in_flight_max": 1.0,
                   "system.serve.outside_s": 0.0, "system.serve.rejected": 0.0,
                   "system.serve.errors_5xx": 0.0,
                   "system.serve.profile_cache_hit_ratio": 0.0})
    return {
        "correct": bool(result["correct"]),
        "attempted": ops + phase["failed"],
        "failed": phase["failed"],
        "e2e": e2e,
        "layers": layers,
        "layer_samples": ops,
        "setup_split": result["setup"],
        "detail": {"checked_cells": result["checked"], "setup_launches": setups},
    }


# ---------------------------------------------------------------------------
# serve-mixed: the daemon is the process under test; this process is the
# load generator and the checker.
# ---------------------------------------------------------------------------


def _launch_daemon(trace: int, spans_path: Path | None) -> tuple[Launched, int, float, float]:
    argv = [str(BENCH_DIR / "serve_put.py"), "--trace", str(trace)]
    if spans_path is not None:
        argv += ["--spans", str(spans_path)]
    launched = Launched(argv, "serve.log")
    try:
        imported, _ = launched.payload("IMPORT", READY_TIMEOUT)
        line, ready = launched.expect("listening on", READY_TIMEOUT)
    except BaseException:
        launched.proc.kill()
        launched.finish()
        raise
    port = int(_LISTENING.search(line).group(1))
    return launched, port, ready, imported["setup.import_s"]


def _stop_daemon(launched: Launched, port: int) -> None:
    request = loadgen.Request(0.0, "shutdown", "/shutdown", b"{}", "bench")
    asyncio.run(loadgen.send(port, request, timeout=10))
    launched.finish(timeout=60)


def _post(port: int, path: str, payload: dict, tenant: str = "bench-warm"):
    request = loadgen.Request(0.0, "warm", path, json.dumps(payload).encode(),
                              tenant)
    asyncio.run(loadgen.send(port, request, timeout=120))
    if request.status != 200:
        raise BenchError(f"{path} warm-up answered {request.status}: "
                         f"{request.answer}")
    return request.answer


def _evaluations(port: int) -> float:
    """The daemon's count of detector evaluations so far, from ``/metrics``."""
    request = loadgen.Request(0.0, "metrics", "/metrics", b"", "bench-warm",
                              {"method": "GET"})
    asyncio.run(loadgen.send(port, request, timeout=30))
    if request.status != 200:
        raise BenchError(f"/metrics answered {request.status}")
    for line in str(request.answer).splitlines():
        name, _, value = line.partition(" ")
        if name == "repro_detector_evaluations_total":
            return float(value)
    return 0.0


def serve_window(ref, port: int, pid: int, seed: int, seconds: float,
                 rate: float) -> dict:
    """Warm the daemon, run one open-loop window, then check its answers."""
    streams = {}
    for corpus in loadgen.CORPORA:
        payload = ref.stream_open_payload(corpus, seed)
        opened = _post(port, "/stream", payload)
        streams[corpus] = {"id": opened["id"], "values": ref.values[corpus],
                           "open": payload}
    # Caches warm before timing: every hot cube, and both batch keys.
    for corpus in loadgen.CORPORA:
        for hot in loadgen.HOT_PROFILE_SEEDS:
            payload = loadgen.profile_payload(corpus, hot)
            _post(port, "/profile", payload)
            _post(port, "/choose", {**payload, "max_error": loadgen.CHOOSE_BUDGET})
        _post(port, "/bound", {"dataset": corpus, "aggregate": "avg",
                               "fraction": loadgen.BOUND_FRACTION, "seed": 0})
    requests = loadgen.schedule(seed, rate, seconds, streams)
    # The generator's own long-lived objects need no collection passes
    # while it keeps time for the daemon.
    gc.collect()
    gc.freeze()
    evaluated = _evaluations(port)
    cpu_before = tree_cpu_seconds(pid)
    start = time.perf_counter() + 0.05
    diag = asyncio.run(loadgen.run_open_loop(port, requests, start,
                                             os.cpu_count() or 1))
    end = time.perf_counter()
    cpu = tree_cpu_seconds(pid) - cpu_before
    rss = tree_peak_rss_mb(pid)
    evaluated = _evaluations(port) - evaluated
    gc.unfreeze()

    problems: list[str] = []
    ok = [r for r in requests if not r.failed]
    answers = [r for r in ok if r.kind in ("bound", "estimate")
               and r.status == 200]
    rng = np.random.default_rng([seed, 4])
    picked = rng.permutation(len(answers))[:40]
    problems += loadgen.check_bounds(
        [(answers[i].answer, ref.bound_reference(answers[i].answer))
         for i in picked])
    batched = [r.answer for r in answers if r.answer["batch_size"] > 1][:8]
    alone = []
    for answer in batched:
        again = _post(port, f"/{answer['kind']}", {
            "dataset": answer["dataset"], "aggregate": "avg",
            "fraction": loadgen.BOUND_FRACTION, "seed": answer["seed"]})
        alone.append((answer, again))
    problems += loadgen.check_coalesced(alone)
    for corpus, state in streams.items():
        ingests = [(r.meta["values"], r.answer) for r in ok
                   if r.kind == "stream" and r.meta["corpus"] == corpus
                   and r.status == 200]
        problems += loadgen.check_stream(ref.stream_replica(state["open"]),
                                         ingests)
    problems += loadgen.check_malformed([r for r in requests
                                         if r.kind == "malformed"])
    problems += loadgen.check_profiles([r for r in ok if r.status == 200 and
                                        r.kind in ("profile", "choose")])
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    unexpected = [r for r in ok if r.kind != "malformed" and r.status != 200]
    for request in unexpected[:5]:
        print(f"unexpected {request.status} for {request.kind}: {request.answer}",
              file=sys.stderr)
    profiles = [r for r in ok if r.kind in ("profile", "choose")]
    # Latency and throughput count answers to well-formed requests only:
    # a fast 4xx for a malformed request is not a fast operation.
    answered = [r for r in ok if r.kind != "malformed" and r.status == 200]
    slices: list[list[float]] = [[] for _ in range(SERVE_SLICES)]
    for r in answered:
        index = int((r.due - start) / seconds * SERVE_SLICES)
        slices[min(max(index, 0), SERVE_SLICES - 1)].append(r.done - r.sent)
    return {
        "requests": requests, "start": start, "end": end, "cpu_s": cpu,
        "peak_rss_mb": rss, "in_flight_max": diag["in_flight_max"],
        "evaluations": evaluated,
        "correct": not problems and not unexpected,
        "latencies": [r.done - r.sent for r in answered],
        "p90": median([percentile(part, 0.90) for part in slices if part]),
        "due_latencies": [r.done - r.due for r in answered],
        "service_total": sum(r.done - r.sent for r in requests),
        "failed": sum(r.failed for r in requests),
        "rejected": sum(r.status == 429 for r in requests),
        "errors_5xx": sum(r.status >= 500 for r in requests),
        "lateness_p99": percentile([r.sent - r.due for r in requests], 0.99),
        "cache_hit_ratio": (sum(bool(r.answer.get("cached")) for r in profiles)
                            / len(profiles) if profiles else 0.0),
        "checked": len(picked) + len(alone),
    }


def run_serve(seed: int, seconds: float, trace: int,
              rate: float = SERVE_RATE) -> dict:
    ref = loadgen.Reference()
    setups: list[float] = []
    imports: list[float] = []

    def launch(traced: int, spans_path=None):
        launched, port, ready, import_s = _launch_daemon(traced, spans_path)
        setups.append(ready - launched.started)
        imports.append(import_s)
        return launched, port, ready

    if not trace:
        for _ in range(SETUP_LAUNCHES - 1):
            launched, port, _ = launch(0)
            _stop_daemon(launched, port)
        launched, port, _ = launch(0)
        try:
            window = serve_window(ref, port, launched.proc.pid, seed, seconds, rate)
        finally:
            _stop_daemon(launched, port)
        return _serve_report(window, seconds, setups, {})

    # Untraced half-window, then a traced daemon on the same schedule.
    launched, port, _ = launch(0)
    try:
        plain = serve_window(ref, port, launched.proc.pid, seed, seconds / 2, rate)
    finally:
        _stop_daemon(launched, port)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / "serve-mixed-spans.json"
    launched, port, ready = launch(1, spans_path)
    try:
        traced = serve_window(ref, port, launched.proc.pid, seed, seconds / 2, rate)
    finally:
        _stop_daemon(launched, port)
    spans = json.loads(spans_path.read_text())["spans"]
    ops = len(traced["requests"])
    layers = window_metrics(spans, traced["start"], traced["end"], ops)
    covered = layers.pop("covered_s")
    layers.update({
        "detection.model_invocations": traced["evaluations"],
        "system.serve.outside_s": max(traced["service_total"] - covered, 0.0) / ops,
        "system.serve.rejected": float(traced["rejected"]),
        "system.serve.errors_5xx": float(traced["errors_5xx"]),
        "system.serve.profile_cache_hit_ratio": traced["cache_hit_ratio"],
        "loadgen.lateness_p99_s": traced["lateness_p99"],
        "loadgen.in_flight_max": float(traced["in_flight_max"]),
        "trace.coverage": covered / traced["service_total"],
        "trace.overhead_ratio": (median(traced["latencies"])
                                 / median(plain["latencies"])),
    })
    split = {**setup_from_spans(spans, ready), "setup.import_s": imports[-1]}
    report = _serve_report(traced, seconds / 2, setups, layers)
    report["correct"] = report["correct"] and plain["correct"]
    report["setup_split"] = split
    return report


def _serve_report(window: dict, seconds: float, setups: list[float],
                  layers: dict) -> dict:
    latencies = window["latencies"]
    if not latencies:
        raise BenchError("no serve request succeeded")
    done = len(window["requests"])
    answered = len(latencies)
    return {
        "correct": window["correct"],
        "attempted": done,
        "failed": window["failed"],
        "e2e": {
            "setup_s": metric(median(setups), "s", len(setups)),
            "peak_rss_mb": metric(window["peak_rss_mb"], "MB", 1),
            "op_p50_s": metric(median(latencies), "s", answered),
            "op_p90_s": metric(window["p90"], "s", answered),
            "work_per_s": metric(answered / seconds, "1/s", answered),
            "cpu_s_per_op": metric(window["cpu_s"] / done, "s", done),
        },
        "layers": layers,
        "layer_samples": done,
        "setup_split": {},
        "detail": {"checked_answers": window["checked"],
                   "op_p99_s": percentile(latencies, 0.99),
                   # What a tenant sees, waits for a connection slot
                   # included; reported, not gated (see README).
                   "due_p50_s": median(window["due_latencies"]),
                   "due_p90_s": percentile(window["due_latencies"], 0.90),
                   "due_p99_s": percentile(window["due_latencies"], 0.99),
                   "setup_launches": setups,
                   "rejected": window["rejected"],
                   "errors_5xx": window["errors_5xx"]},
    }


# ---------------------------------------------------------------------------


def _layer_output(report: dict) -> dict:
    values = {**report["layers"], **report["setup_split"]}
    samples = report["layer_samples"]
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        count = 1 if name in report["setup_split"] else samples
        out[name] = metric(values.get(name, 0.0), unit, count)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        require_sources()
        sys.path.insert(0, str(SRC))
        shutil.rmtree(STATE_DIR, ignore_errors=True)
        STATE_DIR.mkdir()
        if args.workload == "serve-mixed":
            report = run_serve(args.seed, args.seconds, args.trace)
        else:
            report = run_profile(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as error:
        print(f"layerbench: {error}", file=sys.stderr)
        return 2
    shutil.rmtree(STATE_DIR, ignore_errors=True)
    metrics = _layer_output(report) if args.trace else report["e2e"]
    emit("REPORT", {"workload": args.workload, "trace": args.trace,
                    "host": host_info(args.seed), "seconds": args.seconds,
                    "samples": {name: m["samples"] for name, m in metrics.items()},
                    "setup_split": report["setup_split"], **report["detail"]})
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
