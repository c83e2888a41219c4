"""Profile-as-a-service: the long-lived ``repro serve`` daemon.

Every CLI invocation re-pays Python import, dataset generation, detector
cache warmup and (before the persistent pool) pool spawn — for a
steady-state estimation kernel of ~0.01s, the fixed overhead *is* the
latency of an interactive profile/bound query. This module keeps all of
that hot in one process and serves many concurrent tenants over
HTTP+JSON, using only the standard library (``asyncio`` streams; no
framework, no new dependencies):

- **Hot state** (:class:`ServeSession`): built
  :class:`~repro.video.dataset.VideoDataset` corpora (published once
  through the shared-memory plane of :mod:`repro.system.shm`), the
  persistent detector disk cache, per-query frame-value memos, cached
  degradation hypercubes, and the persistent
  :class:`~repro.system.executor.WorkerPool`.
- **Micro-batching** (:class:`MicroBatcher`): an admission-controlled
  request queue coalesces *compatible* queued requests — same corpus,
  detector, degradation plan, aggregate and estimator — into a single
  :func:`~repro.estimators.dispatch.estimate_rows` kernel call per tick,
  turning N concurrent single-trial requests into one ``(N, n)``
  :class:`~repro.stats.prefix_moments.PrefixMoments` pass. Every request
  keeps its own seed stream, so batched answers are **bit-identical** to
  the same requests issued serially (each serial request is a 1-row call
  through the very same kernel; all row-wise operations are independent
  of the number of rows stacked).
- **Admission control**: a global queue-depth cap plus per-tenant token
  buckets; over-budget tenants get HTTP 429 and a
  ``serve.rejected`` run-ledger event instead of degrading everyone's
  latency.
- **Live observability**: the Prometheus exporter of
  :mod:`repro.system.observe` is mounted at ``GET /metrics`` over the
  live telemetry registry, and per-tenant accounting lands on the
  run-ledger record the daemon's run appends on shutdown.

Endpoints (all request/response bodies are JSON):

=====================  ====================================================
``GET  /healthz``      liveness + uptime
``GET  /metrics``      Prometheus text exposition of the live registry
                       (labeled per-endpoint/per-tenant latency families)
``GET  /stats``        batcher/session/tenant counters + pool diagnostics
                       + sliding p50/p95/p99 latency windows (``slo``)
``GET  /traces``       recent trace summaries from the in-memory ring
``GET  /traces/<id>``  every retained span event of one trace
``POST /estimate``     one degraded query -> estimate + bound (micro-batched)
``POST /bound``        same kernel, bound-only response (micro-batched)
``POST /profile``      degradation hypercube slices (fingerprint-cached)
``POST /choose``       tradeoff choice over a (cached) profile
``POST /shutdown``     graceful drain + exit
=====================  ====================================================

Every query request mints a :class:`~repro.system.observe.tracing.
TraceContext` (honouring an inbound ``X-Repro-Trace-Id`` header), so the
HTTP handler span, the micro-batched kernel span (fan-in links to every
coalesced request) and pool-worker unit spans share one trace id —
inspect with ``repro trace`` or ``GET /traces``. A crash flight recorder
dumps the last spans to the run ledger on unhandled errors and SIGQUIT.

Shutdown (``POST /shutdown``, SIGINT or SIGTERM) is graceful end to end:
the listener closes, the queue drains through the batcher, tenant
accounting is annotated onto the active run-ledger record, and the
worker pool and every shared-memory segment are torn down — a lifecycle
test asserts ``/dev/shm`` is empty afterwards.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import signal
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from repro.core.smokescreen import Smokescreen
from repro.core.tradeoff import PublicPreferences, choose_tradeoff
from repro.detection import diskcache
from repro.errors import ReproError
from repro.estimators.base import Estimate
from repro.estimators.dispatch import estimate_rows
from repro.estimators.sentinel import BoundSentinel
from repro.estimators.smokescreen import SmokescreenMeanEstimator
from repro.estimators.streaming import WindowedMeanEstimator
from repro.experiments.workloads import (
    DATASET_NAMES,
    load_dataset,
    model_for,
    shared_suite,
)
from repro.interventions.plan import InterventionPlan
from repro.query.aggregates import Aggregate
from repro.query.processor import QueryProcessor
from repro.query.query import AggregateQuery
from repro.system import shm, telemetry
from repro.system.executor import (
    ExecutorConfig,
    ParallelExecutor,
    pool_diagnostics,
    pool_generation,
    shutdown_pool,
)
from repro.system.observe import ledger as run_ledger
from repro.system.observe import labeled_name, prometheus_exposition
from repro.system.observe import tracing
from repro.video.frame import ObjectClass

_LOG = telemetry.get_logger("system.serve")

#: Default TCP port (unassigned by IANA; "repro" on a phone keypad-ish).
DEFAULT_PORT = 8177

#: Query kinds the micro-batcher coalesces.
_BATCHED_KINDS = ("estimate", "bound")

#: Query kinds served through the (cached) profile path.
_PROFILE_KINDS = ("profile", "choose")


class RequestError(ReproError):
    """A malformed or unserveable request (HTTP 400)."""


class AdmissionError(ReproError):
    """A request rejected by admission control (HTTP 429)."""


@dataclass(frozen=True)
class ServeConfig:
    """Daemon configuration.

    Attributes:
        host: Bind address.
        port: Bind port; 0 asks the OS for an ephemeral one (the daemon
            prints the bound port, which tests parse).
        datasets: Corpus presets to build and publish at startup.
        frames: Reduced corpus size shared by every preloaded dataset
            (None = the paper's full sizes).
        workers: Worker processes for profile generation (estimates are
            a single kernel call and always run in-process).
        cache_dir: Persistent detector-cache directory, or None.
        cache_limit_bytes: LRU byte budget for ``cache_dir``.
        tick_seconds: Micro-batch window: after the first queued request
            the batcher waits this long for compatible companions before
            firing the kernel.
        max_batch: Hard cap on requests coalesced into one kernel call.
        max_queue: Global admission cap on queued-but-unserved requests.
        tenant_rate: Per-tenant sustained budget, requests/second.
        tenant_burst: Per-tenant token-bucket capacity (burst size).
        delta: Default bound failure probability for requests that do
            not specify one.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    datasets: tuple[str, ...] = ("ua-detrac",)
    frames: int | None = None
    workers: int | str = 1
    cache_dir: str | None = None
    cache_limit_bytes: int | None = None
    tick_seconds: float = 0.005
    max_batch: int = 64
    max_queue: int = 256
    tenant_rate: float = 50.0
    tenant_burst: int = 100
    delta: float = 0.05

    def __post_init__(self) -> None:
        for name in self.datasets:
            if name not in DATASET_NAMES:
                raise RequestError(
                    f"unknown dataset {name!r}; valid: {DATASET_NAMES}"
                )
        if self.tick_seconds < 0:
            raise RequestError("tick_seconds must be non-negative")
        if self.max_batch < 1 or self.max_queue < 1:
            raise RequestError("max_batch and max_queue must be positive")
        rate = float(self.tenant_rate)
        if not math.isfinite(rate) or rate < 0.0:
            raise RequestError(
                f"tenant_rate must be a finite requests/second budget "
                f">= 0 (0 means a burst-only budget), got "
                f"{self.tenant_rate!r}"
            )
        burst = float(self.tenant_burst)
        if not math.isfinite(burst) or burst < 1.0:
            raise RequestError(
                f"tenant_burst must be a finite burst capacity >= 1 "
                f"(a bucket smaller than one token can never admit a "
                f"request), got {self.tenant_burst!r}"
            )


@dataclass(frozen=True)
class QueryRequest:
    """One tenant query, normalised from a JSON payload.

    Attributes:
        kind: ``estimate``, ``bound``, ``profile`` or ``choose``.
        dataset: Corpus preset name.
        aggregate: Aggregate name (``avg``/``sum``/``count``/...).
        fraction: Sampling fraction ``f`` (None = full sampling).
        resolution: Resolution side ``p`` (None = native).
        remove: Removed-class names ``c`` (sorted tuple).
        method: Estimator name.
        seed: The request's private randomness seed.
        delta: Bound failure probability.
        tenant: Accounting identity (header ``X-Tenant`` or payload).
        trials: Profile-path trials per setting.
        fraction_step: Profile-path fraction grid step.
        resolution_count: Profile-path resolution grid size.
        correction: Whether the profile path builds a correction set.
        axis: Choose-path profile axis.
        max_error: Choose-path public error budget.
        max_fraction: Choose-path fraction ceiling.
    """

    kind: str
    dataset: str
    aggregate: str = "avg"
    fraction: float | None = None
    resolution: int | None = None
    remove: tuple[str, ...] = ()
    method: str = "smokescreen"
    seed: int = 0
    delta: float = 0.05
    tenant: str = "anonymous"
    trials: int = 1
    fraction_step: float = 0.25
    resolution_count: int = 3
    correction: bool = False
    axis: str = "sampling"
    max_error: float | None = None
    max_fraction: float | None = None

    @classmethod
    def from_payload(
        cls, kind: str, payload: Mapping, config: ServeConfig
    ) -> "QueryRequest":
        """Validate and normalise a JSON payload into a request.

        Args:
            kind: The endpoint's query kind.
            payload: Decoded JSON body.
            config: The daemon configuration (defaults).

        Returns:
            The request.

        Raises:
            RequestError: The payload is malformed.
        """
        if kind not in _BATCHED_KINDS + _PROFILE_KINDS:
            raise RequestError(f"unknown query kind {kind!r}")
        if not isinstance(payload, Mapping):
            raise RequestError("request body must be a JSON object")
        dataset = payload.get("dataset", config.datasets[0])
        if dataset not in DATASET_NAMES:
            raise RequestError(
                f"unknown dataset {dataset!r}; valid: {DATASET_NAMES}"
            )
        aggregate = str(payload.get("aggregate", "avg")).lower()
        try:
            Aggregate[aggregate.upper()]
        except KeyError:
            valid = ", ".join(m.name.lower() for m in Aggregate)
            raise RequestError(f"unknown aggregate {aggregate!r}; valid: {valid}")
        remove_raw = payload.get("remove", ())
        if isinstance(remove_raw, str):
            remove_raw = [p for p in remove_raw.split(",") if p.strip()]
        try:
            remove = tuple(
                sorted(ObjectClass.from_name(str(n).strip()).name.lower()
                       for n in remove_raw)
            )
        except Exception:
            raise RequestError(f"unknown removal classes {remove_raw!r}")
        try:
            fraction = payload.get("fraction")
            fraction = None if fraction is None else float(fraction)
            resolution = payload.get("resolution")
            resolution = None if resolution is None else int(resolution)
            seed = int(payload.get("seed", 0))
            delta = float(payload.get("delta", config.delta))
            trials = int(payload.get("trials", 1))
            fraction_step = float(payload.get("fraction_step", 0.25))
            resolution_count = int(payload.get("resolution_count", 3))
            max_error = payload.get("max_error")
            max_error = None if max_error is None else float(max_error)
            max_fraction = payload.get("max_fraction")
            max_fraction = None if max_fraction is None else float(max_fraction)
        except (TypeError, ValueError) as error:
            raise RequestError(f"malformed numeric field: {error}")
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise RequestError(f"fraction must lie in (0, 1], got {fraction}")
        if not 0.0 < delta < 1.0:
            raise RequestError(f"delta must lie in (0, 1), got {delta}")
        axis = str(payload.get("axis", "sampling"))
        if axis not in ("sampling", "resolution", "removal"):
            raise RequestError(f"unknown profile axis {axis!r}")
        if kind == "choose" and max_error is None:
            raise RequestError("choose requests need a max_error budget")
        return cls(
            kind=kind,
            dataset=str(dataset),
            aggregate=aggregate,
            fraction=fraction,
            resolution=resolution,
            remove=remove,
            method=str(payload.get("method", "smokescreen")),
            seed=seed,
            delta=delta,
            tenant=str(payload.get("tenant", "anonymous")),
            trials=trials,
            fraction_step=fraction_step,
            resolution_count=resolution_count,
            correction=bool(payload.get("correction", False)),
            axis=axis,
            max_error=max_error,
            max_fraction=max_fraction,
        )

    def batch_key(self) -> tuple:
        """The compatibility key micro-batching groups by.

        Requests coalesce when they share corpus, detector (implied by the
        corpus pairing), degradation plan, aggregate, estimator and delta
        — everything except the seed and the tenant, so each coalesced
        row keeps its own randomness.
        """
        return (
            self.dataset,
            self.aggregate,
            self.fraction,
            self.resolution,
            self.remove,
            self.method,
            round(self.delta, 12),
        )

    def profile_key(self) -> str:
        """Cache fingerprint of the profile this request implies."""
        return run_ledger.config_fingerprint(
            {
                "dataset": self.dataset,
                "aggregate": self.aggregate,
                "trials": self.trials,
                "seed": self.seed,
                "fraction_step": self.fraction_step,
                "resolution_count": self.resolution_count,
                "correction": self.correction,
                "delta": round(self.delta, 12),
            }
        )


class TokenBucket:
    """A per-tenant budget: ``rate`` tokens/second, ``burst`` capacity."""

    def __init__(self, rate: float, burst: float) -> None:
        rate = float(rate)
        burst = float(burst)
        if not math.isfinite(rate) or rate < 0.0:
            raise RequestError(
                f"token-bucket rate must be finite and >= 0 "
                f"(0 means a burst-only budget), got {rate}"
            )
        if not math.isfinite(burst) or burst < 1.0:
            raise RequestError(
                f"token-bucket burst must be finite and >= 1, got {burst}"
            )
        self._rate = rate
        self._capacity = burst
        self._tokens = self._capacity
        self._last = time.monotonic()

    def try_acquire(self, now: float | None = None) -> bool:
        """Take one token if available, refilling lazily."""
        now = time.monotonic() if now is None else now
        elapsed = max(now - self._last, 0.0)
        self._last = now
        self._tokens = min(self._capacity, self._tokens + elapsed * self._rate)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    @property
    def tokens(self) -> float:
        """Tokens currently available (diagnostics)."""
        return self._tokens


class ServeSession:
    """The daemon's hot state and kernels (usable without HTTP in tests).

    Holds built corpora (published through shared memory so any worker
    pool attaches zero-copy), cached query objects whose frame-value
    memos keep detector outputs warm, cached hypercubes for the profile
    path, and the authoritative request/batch counters.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self._config = config or ServeConfig()
        self._suite = shared_suite()
        self._processor = QueryProcessor(self._suite)
        self._queries: dict[tuple, AggregateQuery] = {}
        self._cubes: dict[str, object] = {}
        self._cube_meta: dict[str, dict] = {}
        self._started = time.monotonic()
        self._owns_cache = False
        self.stats: dict[str, int] = {
            "requests": 0,
            "rejected": 0,
            "errors": 0,
            "kernel_calls": 0,
            "batched_kernel_calls": 0,
            "batched_requests": 0,
            "profile_requests": 0,
            "profile_cache_hits": 0,
            "choose_requests": 0,
            "stream_requests": 0,
            "stream_opens": 0,
            "stream_violations": 0,
        }
        self.tenants: dict[str, dict[str, int]] = {}
        self._streams: dict[str, dict] = {}
        self._stream_counter = 0
        self._latency_windows: dict[str, deque] = {}
        if self._config.cache_dir and diskcache.active_cache() is None:
            diskcache.activate(
                self._config.cache_dir, self._config.cache_limit_bytes
            )
            self._owns_cache = True

    @property
    def config(self) -> ServeConfig:
        """The daemon configuration."""
        return self._config

    def warmup(self) -> dict[str, float]:
        """Build and publish every configured corpus; warm native outputs.

        Returns:
            Per-dataset warmup wall seconds (diagnostics; also logged).
        """
        timings: dict[str, float] = {}
        for name in self._config.datasets:
            started = time.perf_counter()
            dataset = load_dataset(name, self._config.frames)
            shm.publish_dataset(dataset)
            # Touch native-resolution outputs for every aggregate's value
            # transform: the detector run is cached on the model, the
            # predicate transform in the processor's per-query memo.
            for aggregate in ("avg", "count"):
                self._processor.frame_values(self._query_for(name, aggregate))
            timings[name] = round(time.perf_counter() - started, 4)
        telemetry.log_event(
            _LOG, logging.INFO, "serve.warmup",
            datasets=",".join(self._config.datasets), **{
                f"seconds_{k.replace('-', '_')}": v for k, v in timings.items()
            },
        )
        return timings

    #: Sliding SLO window size per endpoint (most recent observations).
    _SLO_WINDOW = 512

    def note_latency(self, endpoint: str, seconds: float) -> None:
        """Feed one request latency into the endpoint's sliding window."""
        window = self._latency_windows.get(endpoint)
        if window is None:
            window = deque(maxlen=self._SLO_WINDOW)
            self._latency_windows[endpoint] = window
        window.append(float(seconds))

    def slo_summary(self) -> dict:
        """Per-endpoint sliding p50/p95/p99 latency (``/stats`` ``slo``)."""
        summary: dict[str, dict] = {}
        for endpoint, window in sorted(self._latency_windows.items()):
            values = sorted(window)
            if not values:
                continue

            def rank(q: float) -> float:
                index = min(
                    max(math.ceil(q * len(values)) - 1, 0), len(values) - 1
                )
                return values[index]

            summary[endpoint] = {
                "count": len(values),
                "p50_seconds": round(rank(0.50), 6),
                "p95_seconds": round(rank(0.95), 6),
                "p99_seconds": round(rank(0.99), 6),
            }
        return summary

    def tenant_record(self, tenant: str) -> dict[str, int]:
        """The accounting record of one tenant (created on first touch)."""
        record = self.tenants.get(tenant)
        if record is None:
            record = {"requests": 0, "rejected": 0, "served": 0}
            self.tenants[tenant] = record
        return record

    def _query_for(
        self, dataset_name: str, aggregate: str, delta: float = 0.05
    ) -> AggregateQuery:
        key = (dataset_name, self._config.frames, aggregate, round(delta, 12))
        query = self._queries.get(key)
        if query is None:
            query = AggregateQuery(
                dataset=load_dataset(dataset_name, self._config.frames),
                model=model_for(dataset_name),
                aggregate=Aggregate[aggregate.upper()],
                delta=delta,
            )
            self._queries[key] = query
        return query

    def _plan_for(self, request: QueryRequest) -> InterventionPlan:
        return InterventionPlan.from_knobs(
            f=request.fraction,
            p=request.resolution,
            c=tuple(
                ObjectClass.from_name(name) for name in request.remove
            ),
            suite=self._suite,
        )

    # ------------------------------------------------------------------
    # The micro-batched estimate/bound kernel.
    # ------------------------------------------------------------------

    def estimate_group(
        self,
        requests: Sequence[QueryRequest],
        contexts: Sequence[tracing.TraceContext | None] | None = None,
    ) -> list[dict]:
        """Serve one compatible group through a single batched kernel call.

        Every request draws its own sample from its own seed stream; the
        stacked ``(N, n)`` value matrix is priced by **one**
        :func:`~repro.estimators.dispatch.estimate_rows` call. Row-wise
        results are bit-identical to serving each request alone (a 1-row
        call through the same kernel), because every operation the kernel
        performs is independent across rows.

        Args:
            requests: Compatible requests (equal :meth:`QueryRequest.
                batch_key`); at least one.
            contexts: The coalesced requests' trace contexts, aligned
                with ``requests``. The kernel span continues the first
                linked trace and records **fan-in links** (the trace and
                span ids of every coalesced request), so N request spans
                point at the 1 kernel span that served them.

        Returns:
            One response dict per request, in request order.
        """
        if not requests:
            return []
        head = requests[0]
        for other in requests[1:]:
            if other.batch_key() != head.batch_key():
                raise RequestError(
                    "incompatible requests cannot share a kernel call"
                )
        linked = [ctx for ctx in (contexts or []) if ctx is not None]
        with tracing.use(linked[0] if linked else None):
            with tracing.span(
                "serve.estimate_rows",
                batch=len(requests),
                link_trace_ids=tuple(ctx.trace_id for ctx in linked),
                link_span_ids=tuple(ctx.span_id for ctx in linked),
            ):
                return self._price_group(head, requests)

    def _price_group(
        self, head: QueryRequest, requests: Sequence[QueryRequest]
    ) -> list[dict]:
        """The batched kernel body of :meth:`estimate_group`."""
        started = time.perf_counter()
        query = self._query_for(head.dataset, head.aggregate, head.delta)
        plan = self._plan_for(head)
        rows = []
        universe_size = population_size = 0
        for request in requests:
            rng = np.random.default_rng(request.seed)
            sample = plan.draw(query.dataset, rng, self._suite)
            rows.append(self._processor.values_for_sample(query, sample))
            universe_size = sample.universe_size
            population_size = sample.population_size
        matrix = np.stack(rows)
        estimates = estimate_rows(
            query, matrix, universe_size, population_size, head.method
        )
        self.stats["kernel_calls"] += 1
        telemetry.count("serve.kernel_calls")
        if len(requests) > 1:
            self.stats["batched_kernel_calls"] += 1
            self.stats["batched_requests"] += len(requests)
            telemetry.count("serve.batched_kernel_calls")
            telemetry.count("serve.batched_requests", len(requests))
        telemetry.gauge("serve.batch_size", len(requests))
        telemetry.observe(
            "serve.kernel_seconds", time.perf_counter() - started
        )
        responses = []
        for request, estimate in zip(requests, estimates):
            self.tenant_record(request.tenant)["served"] += 1
            body = {
                "kind": request.kind,
                "dataset": request.dataset,
                "aggregate": request.aggregate,
                "plan": plan.label(),
                "method": estimate.method,
                "error_bound": float(estimate.error_bound),
                "n": int(estimate.n),
                "universe_size": int(estimate.universe_size),
                "delta": request.delta,
                "seed": request.seed,
                "batch_size": len(requests),
            }
            if request.kind == "estimate":
                body["value"] = float(estimate.value)
            responses.append(body)
        return responses

    # ------------------------------------------------------------------
    # The cached profile/choose path.
    # ------------------------------------------------------------------

    def profile_request(self, request: QueryRequest) -> dict:
        """Serve a profile query from the hypercube cache, pricing on miss.

        Args:
            request: A ``profile`` (or ``choose``) request.

        Returns:
            The profile summary (axis slices with knob values and bounds).
        """
        self.stats["profile_requests"] += 1
        telemetry.count("serve.profile_requests")
        key = request.profile_key()
        cached = key in self._cubes
        if cached:
            self.stats["profile_cache_hits"] += 1
            telemetry.count("serve.profile_cache_hits")
        else:
            started = time.perf_counter()
            system = Smokescreen(
                load_dataset(request.dataset, self._config.frames),
                model_for(request.dataset),
                suite=self._suite,
                delta=request.delta,
                trials=request.trials,
                seed=request.seed,
                workers=self._config.workers,
            )
            query = system.query(Aggregate[request.aggregate.upper()])
            correction = (
                system.build_correction_set(query) if request.correction else None
            )
            candidates = system.candidates(
                fraction_step=request.fraction_step,
                resolution_count=request.resolution_count,
            )
            cube = system.profile(query, candidates, correction=correction)
            self._cubes[key] = cube
            self._cube_meta[key] = {
                "profile_seconds": round(time.perf_counter() - started, 4),
                "model_invocations": system.ledger.total,
            }
            telemetry.observe(
                "serve.profile_seconds", time.perf_counter() - started
            )
        cube = self._cubes[key]
        sampling, resolution, removal = cube.initial_slices()
        slices = {}
        for profile in (sampling, resolution, removal):
            slices[profile.axis] = {
                "knobs": [str(k) for k in profile.knob_values()],
                "error_bounds": [
                    float(b) for b in profile.error_bounds()
                ],
            }
        return {
            "kind": "profile",
            "dataset": request.dataset,
            "aggregate": request.aggregate,
            "fingerprint": key,
            "cached": cached,
            "cells": int(cube.bounds.size),
            "slices": slices,
            **self._cube_meta[key],
        }

    def choose_request(self, request: QueryRequest) -> dict:
        """Serve a tradeoff choice over the (cached) profile.

        Args:
            request: A ``choose`` request carrying the error budget.

        Returns:
            The chosen setting and its bounded error.
        """
        self.stats["choose_requests"] += 1
        telemetry.count("serve.choose_requests")
        summary = self.profile_request(request)
        cube = self._cubes[request.profile_key()]
        if request.axis == "sampling":
            profile = cube.slice_sampling()
        elif request.axis == "resolution":
            profile = cube.slice_resolution()
        else:
            profile = cube.slice_removal()
        preferences = PublicPreferences(
            max_error=request.max_error,
            max_fraction=request.max_fraction,
        )
        choice = choose_tradeoff(profile, preferences)
        return {
            "kind": "choose",
            "dataset": request.dataset,
            "aggregate": request.aggregate,
            "axis": request.axis,
            "fingerprint": summary["fingerprint"],
            "cached": summary["cached"],
            "plan": choice.point.plan.label(),
            "fraction": float(choice.point.plan.fraction),
            "error_bound": float(choice.point.error_bound),
        }

    # ------------------------------------------------------------------
    # Hot streams: tenants push frames into a live sentinel.
    # ------------------------------------------------------------------

    _MAX_STREAM_VALUES = 10_000

    def stream_open(self, payload: Mapping) -> dict:
        """Arm a hot sentinel for a tenant's live feed (``POST /stream``).

        The profiling-time state comes from the warm session: the exact
        clean answer over the preloaded corpus is the reference, a clean
        seeded query's bound is the profiled promise, and a seeded clean
        sample is the Algorithm 3 correction set. The stream estimator is
        windowed, so the tenant can keep pushing frames forever and a
        drift dominates the answer within one window.

        Args:
            payload: JSON body — ``dataset``, ``aggregate``, ``delta``,
                ``window``, ``min_count``, ``patience``, ``seed``,
                ``profiled_bound`` (all optional), plus ``tenant``.

        Returns:
            The stream's first readout (includes the assigned ``id``).
        """
        dataset = str(payload.get("dataset") or self._config.datasets[0])
        if dataset not in self._config.datasets:
            raise RequestError(
                f"dataset {dataset!r} is not preloaded; "
                f"serving: {self._config.datasets}"
            )
        aggregate = str(payload.get("aggregate") or "avg")
        delta = float(payload.get("delta") or self._config.delta)
        tenant = str(payload.get("tenant") or "anonymous")
        seed = int(payload.get("seed") or 7)
        values = np.asarray(
            self._processor.frame_values(
                self._query_for(dataset, aggregate, delta)
            ),
            dtype=float,
        )
        total = int(values.size)
        window = int(payload.get("window") or 480)
        if not 1 <= window <= total:
            raise RequestError(
                f"window {window} must lie in [1, corpus size {total}]"
            )
        min_count = int(payload.get("min_count") or 30)
        patience = int(payload.get("patience") or 2)
        rng = np.random.default_rng(seed)
        reference = Estimate(
            value=float(values.mean()),
            error_bound=0.0,
            method="exact",
            n=total,
            universe_size=total,
        )
        correction = SmokescreenMeanEstimator().estimate(
            rng.choice(values, size=min(400, total), replace=False),
            total,
            delta,
        )
        profiled = payload.get("profiled_bound")
        if profiled is None:
            sample = rng.choice(
                values, size=max(2, total // 2), replace=False
            )
            profiled = (
                SmokescreenMeanEstimator()
                .estimate(sample, total, delta)
                .error_bound
            )
        profiled = float(profiled)
        self._stream_counter += 1
        stream_id = f"s{self._stream_counter:04d}"
        estimator = WindowedMeanEstimator(total, window, delta)
        sentinel = BoundSentinel(
            reference,
            profiled,
            total,
            delta=delta,
            min_count=min_count,
            patience=patience,
            correction=correction,
            label=f"{tenant}:{dataset}:{stream_id}",
            stream=estimator,
        )
        self._streams[stream_id] = {
            "sentinel": sentinel,
            "estimator": estimator,
            "tenant": tenant,
            "dataset": dataset,
            "aggregate": aggregate,
            "window": window,
            "profiled_bound": profiled,
            "created": time.monotonic(),
            "ingests": 0,
        }
        self.stats["stream_opens"] += 1
        telemetry.count("serve.stream_opens")
        self.tenant_record(tenant)["served"] += 1
        return self.stream_readout(stream_id)

    def stream_ingest(self, payload: Mapping) -> dict:
        """Push a batch of frame values into a hot stream.

        Args:
            payload: JSON body with the stream ``id`` and a non-empty
                ``values`` array of finite numbers (capped at
                ``_MAX_STREAM_VALUES`` per request).

        Returns:
            The stream readout after the batch (drift check included).
        """
        stream_id = str(payload.get("id") or "")
        state = self._stream_state(stream_id)
        raw = payload.get("values")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise RequestError(
                "values must be a non-empty array of numbers"
            )
        if len(raw) > self._MAX_STREAM_VALUES:
            raise RequestError(
                f"at most {self._MAX_STREAM_VALUES} values per ingest, "
                f"got {len(raw)}"
            )
        try:
            batch = [float(value) for value in raw]
        except (TypeError, ValueError):
            raise RequestError("values must be an array of numbers")
        if not all(math.isfinite(value) for value in batch):
            raise RequestError("values must be finite")
        sentinel: BoundSentinel = state["sentinel"]
        tripped_before = sentinel.tripped
        check = sentinel.extend(batch)
        state["ingests"] += 1
        telemetry.count("serve.stream_frames", len(batch))
        if check is not None and check.breached:
            self.stats["stream_violations"] += 1
        self.tenant_record(state["tenant"])["served"] += 1
        body = self.stream_readout(stream_id)
        body["ingested"] = len(batch)
        body["newly_tripped"] = sentinel.tripped and not tripped_before
        if check is not None:
            body["check"] = {
                "drift": check.drift,
                "allowance": check.allowance,
                "breached": check.breached,
            }
        return body

    def _stream_state(self, stream_id: str) -> dict:
        state = self._streams.get(stream_id)
        if state is None:
            raise RequestError(
                f"unknown stream {stream_id!r}; open one with "
                f"POST /stream (no id) first"
            )
        return state

    def stream_readout(self, stream_id: str) -> dict:
        """The readout body for ``GET /stream/<id>``."""
        state = self._stream_state(stream_id)
        sentinel: BoundSentinel = state["sentinel"]
        estimator: WindowedMeanEstimator = state["estimator"]
        body = {
            "id": stream_id,
            "dataset": state["dataset"],
            "aggregate": state["aggregate"],
            "tenant": state["tenant"],
            "window": state["window"],
            "profiled_bound": state["profiled_bound"],
            "ingests": state["ingests"],
            "count": estimator.count,
            "window_count": estimator.window_count,
            "verdict": sentinel.verdict().as_payload(),
        }
        if estimator.count:
            estimate = estimator.estimate()
            body["value"] = float(estimate.value)
            body["error_bound"] = float(estimate.error_bound)
        repair = sentinel.repair
        if repair is not None:
            body["repaired_bound"] = float(repair.error_bound)
        return body

    # ------------------------------------------------------------------
    # Diagnostics and teardown.
    # ------------------------------------------------------------------

    def snapshot_stats(self) -> dict:
        """Machine-readable session state for ``GET /stats``."""
        return {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "datasets": list(self._config.datasets),
            "frames": self._config.frames,
            "counters": dict(self.stats),
            "tenants": {k: dict(v) for k, v in sorted(self.tenants.items())},
            "cached_profiles": len(self._cubes),
            "streams": len(self._streams),
            "slo": self.slo_summary(),
            "pool": pool_diagnostics(),
            "pool_generation": pool_generation(),
            "shm_published_bytes": shm.published_bytes(),
        }

    def shutdown(self) -> None:
        """Tear the hot state down: annotate the run, close pool and shm."""
        run_ledger.annotate(
            serve={
                **{k: int(v) for k, v in self.stats.items()},
                "tenant_count": len(self.tenants),
                "slo": self.slo_summary(),
            },
            tenants={k: dict(v) for k, v in sorted(self.tenants.items())},
        )
        shutdown_pool()
        shm.release_all()
        if self._owns_cache and diskcache.active_cache() is not None:
            diskcache.deactivate()
        telemetry.log_event(
            _LOG, logging.INFO, "serve.shutdown", **{
                k: int(v) for k, v in self.stats.items()
            },
        )


@dataclass
class _Pending:
    """One queued request and the future its response resolves."""

    request: QueryRequest
    future: asyncio.Future
    ctx: tracing.TraceContext | None = None
    enqueued: float = 0.0


class MicroBatcher:
    """The admission-controlled queue and per-tick coalescing loop.

    One background task pulls the queue: after the first request arrives
    it waits ``tick_seconds`` for companions, drains everything queued,
    groups by :meth:`QueryRequest.batch_key`, and serves each group with
    one kernel call on a dedicated executor thread (keeping the event
    loop free for ``/metrics`` and admission while kernels run).
    """

    def __init__(self, session: ServeSession) -> None:
        self._session = session
        self._config = session.config
        self._queue: asyncio.Queue[_Pending | None] = asyncio.Queue()
        self._buckets: dict[str, TokenBucket] = {}
        self._depth = 0
        self._task: asyncio.Task | None = None
        self._accepting = False

    def start(self) -> None:
        """Start the batching loop on the running event loop."""
        self._accepting = True
        self._task = asyncio.get_running_loop().create_task(self._run())

    @property
    def depth(self) -> int:
        """Requests admitted but not yet answered."""
        return self._depth

    def admit(self, tenant: str) -> None:
        """Charge one request against the tenant budget and queue cap.

        Args:
            tenant: The accounting identity.

        Raises:
            AdmissionError: The tenant is over budget, or the global
                queue is full. The rejection is counted per tenant and
                recorded as a ``serve.rejected`` run-ledger event.
        """
        record = self._session.tenant_record(tenant)
        record["requests"] += 1
        self._session.stats["requests"] += 1
        telemetry.count("serve.requests")
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                self._config.tenant_rate, self._config.tenant_burst
            )
            self._buckets[tenant] = bucket
        reason = None
        if not self._accepting:
            reason = "shutting_down"
        elif self._depth >= self._config.max_queue:
            reason = "queue_full"
        elif not bucket.try_acquire():
            reason = "tenant_over_budget"
        if reason is not None:
            record["rejected"] += 1
            self._session.stats["rejected"] += 1
            telemetry.count("serve.rejected")
            run_ledger.record_event(
                "serve.rejected", tenant=tenant, reason=reason
            )
            raise AdmissionError(
                f"request rejected ({reason}); tenant budget is "
                f"{self._config.tenant_rate:g}/s with burst "
                f"{self._config.tenant_burst}"
            )

    async def submit(self, request: QueryRequest) -> dict:
        """Queue an (already admitted) request and await its response.

        The submitting task's trace context rides along, so the batch
        loop can link the coalesced kernel span back to every request.
        """
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._depth += 1
        await self._queue.put(
            _Pending(
                request,
                future,
                ctx=tracing.current_context(),
                enqueued=time.perf_counter(),
            )
        )
        return await future

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            head = await self._queue.get()
            if head is None:
                break
            batch = [head]
            if self._config.tick_seconds > 0:
                await asyncio.sleep(self._config.tick_seconds)
            while (
                len(batch) < self._config.max_batch
                and not self._queue.empty()
            ):
                nxt = self._queue.get_nowait()
                if nxt is None:
                    await self._serve_batch(loop, batch)
                    return
                batch.append(nxt)
            await self._serve_batch(loop, batch)

    async def _serve_batch(
        self, loop: asyncio.AbstractEventLoop, batch: list[_Pending]
    ) -> None:
        now = time.perf_counter()
        telemetry.gauge("serve.queue_depth", self._depth)
        telemetry.gauge(
            "serve.batch_occupancy", len(batch) / self._config.max_batch
        )
        groups: dict[tuple, list[_Pending]] = {}
        for pending in batch:
            if pending.enqueued > 0:
                telemetry.observe(
                    "serve.queue_wait_seconds", now - pending.enqueued
                )
            groups.setdefault(pending.request.batch_key(), []).append(pending)
        for group in groups.values():
            requests = [p.request for p in group]
            contexts = [p.ctx for p in group]
            try:
                responses = await loop.run_in_executor(
                    None,
                    partial(
                        self._session.estimate_group, requests, contexts
                    ),
                )
            except Exception as error:  # surfaced per request as HTTP 400
                self._session.stats["errors"] += len(group)
                telemetry.count("serve.request_errors", len(group))
                for pending in group:
                    self._depth -= 1
                    if not pending.future.done():
                        pending.future.set_exception(
                            RequestError(str(error))
                        )
                continue
            for pending, response in zip(group, responses):
                self._depth -= 1
                if not pending.future.done():
                    pending.future.set_result(response)

    async def drain(self) -> None:
        """Stop admitting, serve everything already queued, stop the loop."""
        self._accepting = False
        await self._queue.put(None)
        if self._task is not None:
            await self._task
            self._task = None
        # Anything that slipped in behind the sentinel is still served:
        # shutdown drains, it does not drop.
        leftovers: list[_Pending] = []
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not None:
                leftovers.append(item)
        if leftovers:
            await self._serve_batch(asyncio.get_running_loop(), leftovers)


class ServeDaemon:
    """The asyncio HTTP front end over a session and its batcher."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self._config = config or ServeConfig()
        self.session = ServeSession(self._config)
        self.batcher = MicroBatcher(self.session)
        self._server: asyncio.base_events.Server | None = None
        self._stopping: asyncio.Event | None = None
        self.port: int | None = None

    async def start(self) -> int:
        """Warm the session, start the batcher and bind the listener.

        Returns:
            The bound TCP port.
        """
        self._stopping = asyncio.Event()
        # /metrics must serve live repro_* families even when the caller
        # did not pass --telemetry; enable() installs a fresh registry,
        # so never call it when one is already live.
        if not telemetry.enabled():
            telemetry.enable()
        warmup = self.session.warmup()
        # Spawn the worker pool while the process is still quiet: forking
        # lazily on the first parallel /profile — with the event loop
        # mid-connection and executor threads live — can deadlock the
        # forked children on locks copied mid-acquisition.
        if ParallelExecutor(
            ExecutorConfig(workers=self._config.workers)
        ).prewarm():
            telemetry.count("serve.pool_prewarms")
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_client, self._config.host, self._config.port
        )
        self.port = int(self._server.sockets[0].getsockname()[1])
        run_ledger.annotate(
            serve_bind={"host": self._config.host, "port": self.port},
            serve_warmup_seconds=warmup,
        )
        telemetry.log_event(
            _LOG, logging.INFO, "serve.start",
            host=self._config.host, port=self.port,
        )
        return self.port

    async def stop(self) -> None:
        """Graceful shutdown: close, drain, tear down the hot state."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.drain()
        self.session.shutdown()
        if self._stopping is not None:
            self._stopping.set()

    def request_stop(self) -> None:
        """Shutdown trigger callable from signal handlers on the loop."""
        if self._stopping is not None and not self._stopping.is_set():
            asyncio.get_running_loop().create_task(self.stop())

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` completed."""
        assert self._stopping is not None
        await self._stopping.wait()

    # ------------------------------------------------------------------
    # HTTP plumbing (stdlib-only: asyncio streams + manual HTTP/1.1).
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, content_type, body = await self._handle_one(reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as error:  # pragma: no cover - defensive
            tracing.dump_flight_record("unhandled_error", error=str(error))
            status, content_type, body = 500, "application/json", json.dumps(
                {"error": str(error)}
            )
        payload = body.encode("utf-8")
        writer.write(
            (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            + payload
        )
        try:
            await writer.drain()
        except ConnectionError:
            pass
        writer.close()

    async def _handle_one(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, str, str]:
        request_line = await _read_line(reader)
        parts = (request_line or b"").decode("latin-1").split()
        if len(parts) < 2:
            return 400, "application/json", json.dumps({"error": "bad request"})
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        lines = 0
        while True:
            line = await _read_line(reader)
            if line is not None and not line.strip():
                break
            lines += 1
            if line is None or lines > _MAX_HEADERS:
                return 431, "application/json", json.dumps({"error": (
                    f"headers exceed {_MAX_HEADERS} lines of {_MAX_HEADER_LINE} bytes"
                )})
            name, _, value = line.decode("latin-1").strip().partition(":")
            headers[name.strip().lower()] = value.strip()
        payload: dict = {}
        declared = headers.get("content-length", "").strip() or "0"
        if not (declared.isascii() and declared.isdigit()):
            return 400, "application/json", json.dumps(
                {"error": f"Content-Length {declared[:32]!r} is not a "
                          "non-negative integer"}
            )
        # Compare digit counts before int(): a 5000-digit value must not
        # reach the int parser's digit limit.
        digits = declared.lstrip("0") or "0"
        if (
            len(digits) > len(str(_MAX_BODY_BYTES))
            or int(digits) > _MAX_BODY_BYTES
        ):
            return 413, "application/json", json.dumps(
                {"error": f"request body exceeds the {_MAX_BODY_BYTES}-byte "
                          "limit"}
            )
        length = int(digits)
        if length:
            raw = await asyncio.wait_for(reader.readexactly(length), timeout=30)
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                return 400, "application/json", json.dumps(
                    {"error": "request body is not valid JSON"}
                )
        if isinstance(payload, Mapping) and "tenant" not in payload:
            tenant = headers.get("x-tenant")
            if tenant:
                payload = {**payload, "tenant": tenant}
        return await self._route(
            method, path, payload, headers.get("x-repro-trace-id")
        )

    #: Endpoints that mint a trace context: query work, not scrapes —
    #: ``/metrics``, ``/stats`` and friends stay out of the trace ring.
    _TRACED_ENDPOINTS = _BATCHED_KINDS + _PROFILE_KINDS + ("stream",)

    async def _route(
        self,
        method: str,
        path: str,
        payload: dict,
        trace_header: str | None = None,
    ) -> tuple[int, str, str]:
        endpoint = path.lstrip("/").split("/", 1)[0] or "root"
        tenant = "anonymous"
        if isinstance(payload, Mapping):
            tenant = str(payload.get("tenant") or "anonymous")
        traced = method == "POST" and endpoint in self._TRACED_ENDPOINTS
        started = time.perf_counter()
        try:
            if traced:
                ctx = tracing.mint(tenant=tenant, trace_id=trace_header)
                with tracing.use(ctx):
                    with tracing.span("serve.request", endpoint=endpoint):
                        return await self._dispatch(method, path, payload)
            return await self._dispatch(method, path, payload)
        except AdmissionError as error:
            return 429, "application/json", json.dumps({"error": str(error)})
        except RequestError as error:
            return 400, "application/json", json.dumps({"error": str(error)})
        except ReproError as error:
            self.session.stats["errors"] += 1
            return 400, "application/json", json.dumps({"error": str(error)})
        finally:
            elapsed = time.perf_counter() - started
            telemetry.observe("serve.request_seconds", elapsed)
            if traced:
                telemetry.observe(
                    labeled_name(
                        "serve.request_seconds",
                        endpoint=endpoint,
                        tenant=tenant,
                    ),
                    elapsed,
                )
                self.session.note_latency(endpoint, elapsed)

    async def _dispatch(
        self, method: str, path: str, payload: dict
    ) -> tuple[int, str, str]:
        if method == "GET" and path == "/healthz":
            return 200, "application/json", json.dumps(
                {
                    "status": "ok",
                    "uptime_seconds": self.session.snapshot_stats()[
                        "uptime_seconds"
                    ],
                }
            )
        if method == "GET" and path == "/metrics":
            snapshot = telemetry.registry().snapshot()
            return (
                200,
                "text/plain; version=0.0.4",
                prometheus_exposition(snapshot),
            )
        if method == "GET" and path == "/stats":
            return 200, "application/json", json.dumps(
                self.session.snapshot_stats()
            )
        if method == "GET" and path == "/traces":
            return 200, "application/json", json.dumps(
                {"traces": tracing.ring().traces()}
            )
        if method == "GET" and path.startswith("/traces/"):
            trace_id = path[len("/traces/"):]
            events = tracing.ring().trace(trace_id)
            if not events:
                return 404, "application/json", json.dumps(
                    {"error": f"unknown trace {trace_id!r}"}
                )
            return 200, "application/json", json.dumps(
                {
                    "trace_id": events[0].trace_id,
                    "spans": [event.to_dict() for event in events],
                }
            )
        if method == "POST" and path == "/shutdown":
            asyncio.get_running_loop().create_task(self.stop())
            return 200, "application/json", json.dumps(
                {"status": "shutting down"}
            )
        if method == "GET" and path.startswith("/stream/"):
            stream_id = path[len("/stream/"):]
            return 200, "application/json", json.dumps(
                self.session.stream_readout(stream_id)
            )
        if method == "POST" and path == "/stream":
            tenant = str(payload.get("tenant") or "anonymous")
            self.batcher.admit(tenant)
            self.session.stats["stream_requests"] += 1
            telemetry.count("serve.stream_requests")
            if payload.get("id"):
                body = self.session.stream_ingest(payload)
            else:
                body = self.session.stream_open(payload)
            return 200, "application/json", json.dumps(body)
        if method == "POST" and path.lstrip("/") in (
            _BATCHED_KINDS + _PROFILE_KINDS
        ):
            kind = path.lstrip("/")
            request = QueryRequest.from_payload(
                kind, payload, self._config
            )
            self.batcher.admit(request.tenant)
            if kind in _BATCHED_KINDS:
                body = await self.batcher.submit(request)
            else:
                # run_in_executor does not propagate contextvars: hand
                # the trace context across the thread boundary explicitly.
                ctx = tracing.current_context()
                handler = (
                    self.session.profile_request
                    if kind == "profile"
                    else self.session.choose_request
                )
                body = await asyncio.get_running_loop().run_in_executor(
                    None, partial(tracing.run_with, ctx, handler, request)
                )
            return 200, "application/json", json.dumps(body)
        return 404, "application/json", json.dumps(
            {"error": f"no route for {method} {path}"}
        )


#: Largest request body read: a maximal stream ingest at 64 bytes per
#: value, far above any JSON rendering of a float.
_MAX_BODY_BYTES = 64 * ServeSession._MAX_STREAM_VALUES

#: Longest request or header line, and most header lines, per request.
_MAX_HEADER_LINE, _MAX_HEADERS = 8192, 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """One request or header line, or None when it is over-long (past the
    stream's buffer limit ``readline`` raises ``ValueError``)."""
    try:
        line = await asyncio.wait_for(reader.readline(), timeout=30)
    except ValueError:
        return None
    return line if len(line) <= _MAX_HEADER_LINE else None


async def post_json(
    host: str,
    port: int,
    path: str,
    payload: Mapping | None = None,
    method: str | None = None,
    timeout: float = 60.0,
    headers: Mapping[str, str] | None = None,
) -> tuple[int, object]:
    """A minimal asyncio HTTP client for the daemon (tests, benchmarks).

    Args:
        host: Daemon host.
        port: Daemon port.
        path: Request path (``"/estimate"``).
        payload: JSON body (None sends no body).
        method: HTTP method; defaults to POST with a body, GET without.
        timeout: Whole-call timeout in seconds.
        headers: Extra request headers (e.g. ``X-Repro-Trace-Id``).

    Returns:
        ``(status, body)`` with the body JSON-decoded when possible.
    """
    method = method or ("POST" if payload is not None else "GET")
    body = json.dumps(payload or {}).encode() if payload is not None else b""
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )

    async def _call() -> tuple[int, object]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                (
                    f"{method} {path} HTTP/1.1\r\n"
                    f"Host: {host}:{port}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    + extra
                    + "Connection: close\r\n\r\n"
                ).encode("ascii")
                + body
            )
            await writer.drain()
            status_line = await reader.readline()
            status = int(status_line.split()[1])
            while (await reader.readline()).strip():
                pass
            raw = await reader.read()
        finally:
            writer.close()
        text = raw.decode("utf-8")
        try:
            return status, json.loads(text)
        except json.JSONDecodeError:
            return status, text

    return await asyncio.wait_for(_call(), timeout=timeout)


def run_daemon(config: ServeConfig | None = None) -> int:
    """Run the daemon until SIGINT/SIGTERM or ``POST /shutdown``.

    Prints the bound address (tests parse it) and exits 0 on a graceful
    stop. The caller (``repro serve``) owns the run-ledger lifecycle: the
    session annotates the active run, and the CLI's ``finish_run`` flush
    happens after this returns — so the record lands even on signals.

    Args:
        config: The daemon configuration.

    Returns:
        Process exit code.
    """

    async def _main() -> int:
        daemon = ServeDaemon(config)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, lambda: loop.create_task(daemon.stop())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            # SIGQUIT dumps the flight record (last ring spans/events to
            # the run ledger) without stopping the daemon.
            loop.add_signal_handler(
                signal.SIGQUIT,
                lambda: tracing.dump_flight_record("sigquit"),
            )
        except (
            AttributeError, NotImplementedError, RuntimeError,
        ):  # pragma: no cover - platform-dependent
            pass
        port = await daemon.start()
        print(
            f"repro serve: listening on http://{daemon.session.config.host}:"
            f"{port} (datasets: {', '.join(daemon.session.config.datasets)})",
            flush=True,
        )
        await daemon.wait_stopped()
        print("repro serve: drained and stopped", flush=True)
        return 0

    return asyncio.run(_main())
