"""Open-loop load generation and output checks for ``serve-mixed``.

One process, one asyncio thread, at most ``nproc`` connections in flight.
Arrivals follow a seeded Poisson schedule at a fixed rate (the arrival
count is fixed, ``rate x seconds``, and the arrival times are the sorted
uniform points of a Poisson process given that count). Each request
records when it was due, when it was sent (a connection slot was free)
and when its answer arrived.

The traffic mix is in :data:`MIX`; the repository holds no record of
real tenant traffic, so every share is an assumption (``README.md``
gives the reason for each):

- ``/bound`` and ``/estimate`` (the majority): reads of hot state on two
  batch keys, one per corpus, so concurrent requests can coalesce;
- ``/stream`` ingests of the corpus's own frame values in corpus order,
  writing sentinel state beside the reads;
- ``/profile`` and ``/choose``: cube-cache hits, plus a small share with
  fresh seeds whose misses price a cube on the daemon;
- malformed requests: bad JSON, a bad field, and a non-numeric
  ``Content-Length``.

Tenants rotate round robin and each stays well inside the daemon's
default 50/s budget, so a 429 means admission misbehaved; every 429 and
5xx counts as failed, never as a fast answer.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

MIX = (
    ("bound", 0.42),
    ("estimate", 0.24),
    ("stream", 0.14),
    ("profile", 0.06),
    ("choose", 0.06),
    ("malformed", 0.08),
)
TENANTS = 4
CORPORA = ("ua-detrac", "night-street")
BOUND_FRACTION = 0.05
STREAM_CHUNK = 32
STREAM_WINDOW = 480
#: Share of profile/choose requests that carry a fresh seed, so their
#: cube misses price a cube on the daemon beside the kernel thread. The
#: count per run is fixed (this share of the profile/choose requests,
#: rounded), and only which requests carry them depends on the seed.
FRESH_SHARE = 0.05
HOT_PROFILE_SEEDS = (1, 2)
CHOOSE_BUDGET = 0.3
MALFORMED = ("bad_json", "bad_field", "bad_length")
TOLERANCE = 1e-9


@dataclass
class Request:
    """One scheduled request and, once sent, its outcome."""

    due: float
    kind: str
    path: str
    body: bytes
    tenant: str
    meta: dict = field(default_factory=dict)
    sent: float = math.nan
    done: float = math.nan
    status: int = 0
    answer: object = None

    @property
    def failed(self) -> bool:
        return self.status == 0 or self.status == 429 or self.status >= 500


def _payload(path: str, payload: dict, tenant: str, kind: str, due: float,
             **meta) -> Request:
    body = json.dumps({**payload, "tenant": tenant}).encode()
    return Request(due, kind, path, body, tenant, meta)


def profile_payload(corpus: str, seed: int) -> dict:
    return {"dataset": corpus, "aggregate": "avg", "seed": seed}


def schedule(seed: int, rate: float, seconds: float, streams: dict) -> list[Request]:
    """The seeded request schedule; ``due`` is relative to the start."""
    rng = np.random.default_rng([seed, 1])
    count = max(int(round(rate * seconds)), 1)
    dues = np.sort(rng.uniform(0.0, seconds, size=count))
    kinds = [k for k, _ in MIX]
    weights = np.array([w for _, w in MIX])
    picks = rng.choice(len(kinds), size=count, p=weights / weights.sum())
    profile_slots = [i for i, pick in enumerate(picks)
                     if kinds[int(pick)] in ("profile", "choose")]
    fresh_slots = set(rng.choice(
        profile_slots, size=max(1, round(len(profile_slots) * FRESH_SHARE)),
        replace=False).tolist()) if profile_slots else set()
    chunks = {corpus: 0 for corpus in streams}
    fresh = 0
    out = []
    for index, (due, pick) in enumerate(zip(dues, picks)):
        kind = kinds[int(pick)]
        tenant = f"bench-{index % TENANTS}"
        corpus = CORPORA[int(rng.random() < 0.4)]
        if kind in ("bound", "estimate"):
            request = _payload(
                f"/{kind}",
                {"dataset": corpus, "aggregate": "avg",
                 "fraction": BOUND_FRACTION,
                 "seed": int(rng.integers(2**31))},
                tenant, kind, float(due))
        elif kind == "stream":
            state = streams[corpus]
            start = (chunks[corpus] * STREAM_CHUNK) % (
                len(state["values"]) - STREAM_CHUNK)
            chunks[corpus] += 1
            values = state["values"][start:start + STREAM_CHUNK]
            request = _payload("/stream", {"id": state["id"], "values": values},
                               tenant, kind, float(due), corpus=corpus,
                               values=values)
        elif kind in ("profile", "choose"):
            if index in fresh_slots:
                fresh += 1
                profile_seed = 1_000_000 + seed * 10_000 + fresh
            else:
                profile_seed = HOT_PROFILE_SEEDS[int(rng.integers(2))]
            payload = profile_payload(corpus, profile_seed)
            if kind == "choose":
                payload["max_error"] = CHOOSE_BUDGET
            request = _payload(f"/{kind}", payload, tenant, kind, float(due))
        else:
            flavour = MALFORMED[index % len(MALFORMED)]
            if flavour == "bad_json":
                request = Request(float(due), kind, "/bound",
                                  b'{"dataset": "ua-detrac", ', tenant)
            elif flavour == "bad_field":
                request = _payload("/estimate", {"dataset": corpus,
                                                 "fraction": "lots"},
                                   tenant, kind, float(due))
            else:
                request = Request(float(due), kind, "/bound", b"{}", tenant,
                                  {"length": "abc"})
            request.meta["flavour"] = flavour
        out.append(request)
    return out


async def send(port: int, request: Request, timeout: float = 30.0) -> None:
    """Send one request over a fresh connection and record the answer."""
    length = request.meta.get("length", str(len(request.body)))
    method = request.meta.get("method", "POST")
    head = (
        f"{method} {request.path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {length}\r\n"
        f"X-Tenant: {request.tenant}\r\nConnection: close\r\n\r\n"
    ).encode("ascii")

    async def call() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(head + request.body)
            await writer.drain()
            status_line = await reader.readline()
            request.status = int(status_line.split()[1])
            while (await reader.readline()).strip():
                pass
            raw = await reader.read()
        finally:
            writer.close()
        try:
            request.answer = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            request.answer = raw.decode("utf-8", "replace")

    try:
        await asyncio.wait_for(call(), timeout)
    except (OSError, asyncio.TimeoutError, ValueError, IndexError):
        request.status = 0
    request.done = time.perf_counter()


async def run_open_loop(port: int, requests: list[Request], start: float,
                        concurrency: int) -> dict:
    """Send every request at its due time, at most ``concurrency`` at once.

    Returns:
        Generator diagnostics: the most requests in flight at once.
    """
    slots = asyncio.Semaphore(concurrency)
    in_flight = 0
    peak = 0

    async def one(request: Request) -> None:
        nonlocal in_flight, peak
        async with slots:
            in_flight += 1
            peak = max(peak, in_flight)
            request.sent = time.perf_counter()
            try:
                await send(port, request)
            finally:
                in_flight -= 1

    tasks = []
    for request in requests:
        request.due += start
        delay = request.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(request)))
    await asyncio.gather(*tasks)
    return {"in_flight_max": peak}


# ---------------------------------------------------------------------------
# Library-side state: corpus values for the stream and the reference checks.
# ---------------------------------------------------------------------------


class Reference:
    """The library objects the checks compare the daemon's answers with."""

    def __init__(self) -> None:
        from repro.experiments.workloads import load_dataset, model_for, shared_suite
        from repro.query.aggregates import Aggregate
        from repro.query.processor import QueryProcessor
        from repro.query.query import AggregateQuery

        self.processor = QueryProcessor(shared_suite())
        self.queries = {
            corpus: AggregateQuery(dataset=load_dataset(corpus),
                                   model=model_for(corpus),
                                   aggregate=Aggregate.AVG)
            for corpus in CORPORA
        }
        self.values = {
            corpus: [float(v) for v in self.processor.frame_values(query)]
            for corpus, query in self.queries.items()
        }

    def stream_open_payload(self, corpus: str, seed: int) -> dict:
        """An explicit stream configuration; the profiled bound is the
        library's bound for one window of clean values."""
        from repro.estimators.smokescreen import SmokescreenMeanEstimator

        values = np.asarray(self.values[corpus])
        rng = np.random.default_rng([seed, 3])
        sample = rng.choice(values, size=STREAM_WINDOW, replace=False)
        profiled = SmokescreenMeanEstimator().estimate(
            sample, values.size, 0.05).error_bound
        return {"dataset": corpus, "aggregate": "avg", "delta": 0.05,
                "window": STREAM_WINDOW, "min_count": 30, "patience": 2,
                "seed": 7 + seed, "profiled_bound": float(profiled)}

    def stream_replica(self, payload: dict):
        """A library sentinel configured as ``POST /stream`` configures one."""
        from repro.estimators.base import Estimate
        from repro.estimators.sentinel import BoundSentinel
        from repro.estimators.smokescreen import SmokescreenMeanEstimator
        from repro.estimators.streaming import WindowedMeanEstimator

        values = np.asarray(self.values[payload["dataset"]], dtype=float)
        total = int(values.size)
        delta = payload["delta"]
        rng = np.random.default_rng(payload["seed"])
        reference = Estimate(value=float(values.mean()), error_bound=0.0,
                             method="exact", n=total, universe_size=total)
        correction = SmokescreenMeanEstimator().estimate(
            rng.choice(values, size=min(400, total), replace=False), total, delta)
        estimator = WindowedMeanEstimator(total, payload["window"], delta)
        sentinel = BoundSentinel(
            reference, payload["profiled_bound"], total, delta=delta,
            min_count=payload["min_count"], patience=payload["patience"],
            correction=correction, label="replica", stream=estimator)
        return sentinel, estimator

    def bound_reference(self, answer: dict):
        """The scalar library estimate for the draw a bound answer priced."""
        from repro.estimators.dispatch import estimate_query
        from repro.interventions.plan import InterventionPlan

        query = self.queries[answer["dataset"]]
        plan = InterventionPlan.from_knobs(f=BOUND_FRACTION)
        execution = self.processor.execute(
            query, plan, np.random.default_rng(answer["seed"]))
        return estimate_query(query, execution, "smokescreen")


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of problems; empty means correct.
# ---------------------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def check_bounds(pairs) -> list[str]:
    """``pairs``: (answer, expected library Estimate) for bound/estimate."""
    problems = []
    for answer, expected in pairs:
        if not _close(answer["error_bound"], float(expected.error_bound)):
            problems.append(f"bound seed {answer['seed']}: {answer['error_bound']}"
                            f" != {expected.error_bound}")
        if "value" in answer and not _close(answer["value"], float(expected.value)):
            problems.append(f"value seed {answer['seed']}: {answer['value']}"
                            f" != {expected.value}")
    return problems


def check_coalesced(pairs) -> list[str]:
    """``pairs``: (coalesced answer, the same request answered alone)."""
    problems = []
    for batched, alone in pairs:
        for key in ("error_bound", "value"):
            if batched.get(key) != alone.get(key):
                problems.append(f"seed {batched['seed']}: coalesced {key} "
                                f"{batched.get(key)!r} != alone {alone.get(key)!r}")
    return problems


def check_stream(replica, answers) -> list[str]:
    """``answers``: successful ingest answers of one stream, any order;
    they are replayed through ``replica`` in the daemon's ingest order."""
    sentinel, estimator = replica
    problems = []
    for values, answer in sorted(answers, key=lambda item: item[1]["ingests"]):
        sentinel.extend(values)
        verdict = sentinel.verdict()
        expected = {"count": estimator.count, "tripped": verdict.tripped,
                    "breaches": verdict.breaches, "checks": verdict.checks}
        got = {"count": answer["count"], **{
            key: answer["verdict"][key] for key in ("tripped", "breaches", "checks")}}
        if expected != got:
            problems.append(f"stream ingest {answer['ingests']}: {got} != {expected}")
        elif estimator.count and not _close(answer["value"],
                                            float(estimator.estimate().value)):
            problems.append(f"stream ingest {answer['ingests']}: value differs")
    return problems


def check_malformed(requests) -> list[str]:
    """A malformed request must never be answered 2xx."""
    return [f"malformed {r.meta['flavour']} answered {r.status}"
            for r in requests if 200 <= r.status < 300]


def check_profiles(requests) -> list[str]:
    """Answers for one cube fingerprint must agree with each other."""
    first: dict[tuple, object] = {}
    problems = []
    for request in requests:
        answer = request.answer
        if request.kind == "profile":
            key, view = ("profile", answer["fingerprint"]), answer["slices"]
        else:
            key = ("choose", answer["fingerprint"], answer["axis"])
            view = (answer["plan"], answer["error_bound"])
        if key not in first:
            first[key] = view
        elif first[key] != view:
            problems.append(f"{key}: answers differ")
    return problems
