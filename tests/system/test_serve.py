"""Tests for the serving daemon: micro-batching, admission, lifecycle.

The contracts under test:

- **Determinism**: answers served through a coalesced multi-row kernel
  call are bit-identical to the same queries issued serially, and the
  served values agree with the scalar :func:`estimate_query` path to the
  repo's 1e-9 numerical-equivalence policy.
- **Admission control**: over-budget tenants get HTTP 429 plus a
  ``serve.rejected`` run-ledger event; everyone else is unaffected.
- **Concurrency**: a 10-client soak leaves no queued requests, no
  errors, and exact per-tenant accounting.
- **Lifecycle**: a daemon subprocess killed with SIGTERM drains, flushes
  its ledger record, exits 0, and leaves ``/dev/shm`` empty.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.estimators.dispatch import estimate_query, estimate_rows
from repro.experiments.workloads import load_dataset, model_for, shared_suite
from repro.interventions.plan import InterventionPlan
from repro.query.aggregates import Aggregate
from repro.query.processor import QueryProcessor
from repro.query.query import AggregateQuery
from repro.system import shm, telemetry
from repro.system.executor import shutdown_pool
from repro.system.observe import ledger as run_ledger
from repro.system.serve import (
    AdmissionError,
    QueryRequest,
    RequestError,
    ServeConfig,
    ServeDaemon,
    ServeSession,
    TokenBucket,
    _MAX_BODY_BYTES,
    post_json,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
DEV_SHM = Path("/dev/shm")

#: Reduced corpus for the in-process daemons; small enough that warmup
#: stays fast, large enough that fraction sampling is non-trivial.
FRAMES = 1200


def run_with_daemon(coro_factory, **config_overrides):
    """Run ``await coro_factory(daemon, port)`` against a live daemon."""
    settings = {
        "port": 0,
        "datasets": ("ua-detrac",),
        "frames": FRAMES,
        "tick_seconds": 0.002,
    }
    settings.update(config_overrides)

    async def wrapped():
        daemon = ServeDaemon(ServeConfig(**settings))
        port = await daemon.start()
        try:
            return await coro_factory(daemon, port)
        finally:
            await daemon.stop()

    return asyncio.run(wrapped())


@pytest.fixture(autouse=True)
def clean_process_state():
    shutdown_pool()
    shm.release_all()
    yield
    shutdown_pool()
    shm.release_all()
    if telemetry.enabled():
        telemetry.disable()


class TestQueryRequest:
    CONFIG = ServeConfig(datasets=("ua-detrac",))

    def test_payload_round_trip(self):
        request = QueryRequest.from_payload(
            "estimate",
            {
                "dataset": "ua-detrac",
                "aggregate": "count",
                "fraction": 0.5,
                "resolution": 416,
                "remove": "person",
                "seed": 9,
                "tenant": "alice",
            },
            self.CONFIG,
        )
        assert request.aggregate == "count"
        assert request.fraction == 0.5
        assert request.resolution == 416
        assert request.remove == ("person",)
        assert request.tenant == "alice"

    def test_batch_key_ignores_seed_and_tenant(self):
        base = {"dataset": "ua-detrac", "fraction": 0.25}
        one = QueryRequest.from_payload(
            "estimate", {**base, "seed": 1, "tenant": "a"}, self.CONFIG
        )
        two = QueryRequest.from_payload(
            "bound", {**base, "seed": 2, "tenant": "b"}, self.CONFIG
        )
        assert one.batch_key() == two.batch_key()

    def test_batch_key_splits_on_plan(self):
        one = QueryRequest.from_payload(
            "estimate", {"fraction": 0.25}, self.CONFIG
        )
        two = QueryRequest.from_payload(
            "estimate", {"fraction": 0.5}, self.CONFIG
        )
        assert one.batch_key() != two.batch_key()

    @pytest.mark.parametrize(
        "payload",
        [
            {"dataset": "nope"},
            {"aggregate": "median"},
            {"fraction": 0.0},
            {"fraction": 1.5},
            {"delta": 1.0},
            {"remove": "unicorn"},
            {"axis": "diagonal"},
            {"fraction": "not-a-number"},
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(RequestError):
            QueryRequest.from_payload("estimate", payload, self.CONFIG)

    def test_choose_requires_budget(self):
        with pytest.raises(RequestError):
            QueryRequest.from_payload("choose", {}, self.CONFIG)


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        now = 100.0
        assert bucket.try_acquire(now)
        assert bucket.try_acquire(now)
        assert not bucket.try_acquire(now)
        # 0.15s at 10/s refills ~1.5 tokens: one acquire succeeds, the
        # immediate next finds only the 0.5 remainder and fails.
        assert bucket.try_acquire(now + 0.15)
        assert not bucket.try_acquire(now + 0.15)

    def test_zero_rate_never_refills(self):
        bucket = TokenBucket(rate=0.0, burst=1)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(1e9)


class TestEstimateRows:
    """The batch entry point the micro-batcher rests on."""

    @pytest.fixture(scope="class")
    def query(self):
        return AggregateQuery(
            load_dataset("ua-detrac", FRAMES),
            model_for("ua-detrac"),
            Aggregate.AVG,
        )

    def test_rows_bit_identical_to_single_row_calls(self, query):
        rng = np.random.default_rng(11)
        matrix = rng.uniform(0.0, 4.0, size=(5, 200))
        batched = estimate_rows(query, matrix, 900, FRAMES)
        for row_index, estimate in enumerate(batched):
            alone = estimate_rows(
                query, matrix[row_index : row_index + 1], 900, FRAMES
            )[0]
            assert estimate.value == alone.value
            assert estimate.error_bound == alone.error_bound
            assert estimate.n == alone.n

    def test_matches_scalar_path_within_policy(self, query):
        processor = QueryProcessor(shared_suite())
        plan = InterventionPlan.from_knobs(f=0.25, suite=shared_suite())
        rng = np.random.default_rng(3)
        execution = processor.execute(query, plan, rng)
        scalar = estimate_query(query, execution)
        [rowwise] = estimate_rows(
            query,
            execution.values[None, :],
            execution.universe_size,
            execution.population_size,
        )
        assert rowwise.value == pytest.approx(scalar.value, abs=1e-9)
        assert rowwise.error_bound == pytest.approx(
            scalar.error_bound, abs=1e-9
        )
        assert rowwise.n == scalar.n

    def test_rejects_malformed_matrices(self, query):
        with pytest.raises(ConfigurationError):
            estimate_rows(query, np.zeros(5), 900, FRAMES)
        with pytest.raises(ConfigurationError):
            estimate_rows(query, np.zeros((2, 0)), 900, FRAMES)


class TestSessionBatching:
    """Session-level coalescing without the HTTP layer."""

    def test_group_bit_identical_to_singles(self):
        config = ServeConfig(datasets=("ua-detrac",), frames=FRAMES)
        session = ServeSession(config)
        session.warmup()
        try:
            requests = [
                QueryRequest.from_payload(
                    "estimate",
                    {"dataset": "ua-detrac", "fraction": 0.25, "seed": seed},
                    config,
                )
                for seed in range(6)
            ]
            grouped = session.estimate_group(requests)
            singles = [
                session.estimate_group([request])[0] for request in requests
            ]
            for merged, alone in zip(grouped, singles):
                assert merged["value"] == alone["value"]
                assert merged["error_bound"] == alone["error_bound"]
                assert merged["n"] == alone["n"]
            assert grouped[0]["batch_size"] == 6
            assert session.stats["batched_kernel_calls"] == 1
            assert session.stats["kernel_calls"] == 7
        finally:
            session.shutdown()

    def test_incompatible_requests_refused(self):
        config = ServeConfig(datasets=("ua-detrac",), frames=FRAMES)
        session = ServeSession(config)
        try:
            one = QueryRequest.from_payload(
                "estimate", {"fraction": 0.25}, config
            )
            two = QueryRequest.from_payload(
                "estimate", {"fraction": 0.5}, config
            )
            with pytest.raises(RequestError):
                session.estimate_group([one, two])
        finally:
            session.shutdown()


class TestDaemonHTTP:
    def test_concurrent_answers_bit_identical_to_serial(self):
        async def scenario(daemon, port):
            payload = {"dataset": "ua-detrac", "fraction": 0.25}
            serial = {}
            for seed in range(8):
                status, body = await post_json(
                    "127.0.0.1", port, "/estimate", {**payload, "seed": seed}
                )
                assert status == 200, body
                assert body["batch_size"] == 1
                serial[seed] = body
            calls_before = daemon.session.stats["kernel_calls"]
            results = await asyncio.gather(
                *(
                    post_json(
                        "127.0.0.1",
                        port,
                        "/estimate",
                        {**payload, "seed": seed, "tenant": f"t{seed % 3}"},
                    )
                    for seed in range(8)
                )
            )
            concurrent_calls = (
                daemon.session.stats["kernel_calls"] - calls_before
            )
            for seed, (status, body) in enumerate(results):
                assert status == 200, body
                assert body["value"] == serial[seed]["value"]
                assert body["error_bound"] == serial[seed]["error_bound"]
            # 8 concurrent compatible requests -> fewer kernel calls than
            # the 8 the serial pass paid.
            assert concurrent_calls < 8
            assert daemon.session.stats["batched_kernel_calls"] >= 1
            return True

        assert run_with_daemon(scenario)

    def test_bound_omits_value(self):
        async def scenario(daemon, port):
            status, body = await post_json(
                "127.0.0.1", port, "/bound",
                {"dataset": "ua-detrac", "fraction": 0.5},
            )
            assert status == 200
            assert "value" not in body
            assert body["error_bound"] > 0
            return True

        assert run_with_daemon(scenario)

    def test_soak_ten_clients(self):
        async def scenario(daemon, port):
            async def client(index: int) -> list[dict]:
                bodies = []
                for round_index in range(5):
                    status, body = await post_json(
                        "127.0.0.1",
                        port,
                        "/bound",
                        {
                            "dataset": "ua-detrac",
                            "fraction": 0.25,
                            "seed": index * 100 + round_index,
                            "tenant": f"tenant-{index}",
                        },
                    )
                    assert status == 200, body
                    bodies.append(body)
                return bodies

            all_bodies = await asyncio.gather(*(client(i) for i in range(10)))
            assert sum(len(bodies) for bodies in all_bodies) == 50
            assert daemon.batcher.depth == 0
            stats = daemon.session.snapshot_stats()
            assert stats["counters"]["errors"] == 0
            assert stats["counters"]["requests"] == 50
            assert len(stats["tenants"]) == 10
            for record in stats["tenants"].values():
                assert record["requests"] == 5
                assert record["served"] == 5
                assert record["rejected"] == 0
            return True

        assert run_with_daemon(scenario)

    def test_over_budget_tenant_gets_429_and_ledger_event(self):
        run_ledger.begin_run("serve-test", {}, None)

        async def scenario(daemon, port):
            payload = {
                "dataset": "ua-detrac",
                "fraction": 0.25,
                "tenant": "greedy",
            }
            statuses = []
            for seed in range(3):
                status, body = await post_json(
                    "127.0.0.1", port, "/bound", {**payload, "seed": seed}
                )
                statuses.append(status)
            # Another tenant is not affected by greedy's exhaustion.
            other_status, _ = await post_json(
                "127.0.0.1", port, "/bound",
                {**payload, "tenant": "frugal"},
            )
            rejected = daemon.session.tenants["greedy"]["rejected"]
            return statuses, other_status, rejected

        try:
            statuses, other_status, rejected = run_with_daemon(
                scenario, tenant_rate=0.0, tenant_burst=1
            )
        finally:
            record = run_ledger.finish_run("ok", 0)
        assert statuses[0] == 200
        assert statuses[1:] == [429, 429]
        assert other_status == 200
        assert rejected == 2
        events = [
            event
            for event in record["events"]
            if event["event"] == "serve.rejected"
        ]
        assert len(events) == 2
        assert all(event["tenant"] == "greedy" for event in events)
        assert all(
            event["reason"] == "tenant_over_budget" for event in events
        )

    def test_queue_full_rejects(self):
        config = ServeConfig(datasets=("ua-detrac",), max_queue=1)
        daemon = ServeDaemon(config)
        daemon.batcher._depth = 1  # simulate a full queue
        daemon.batcher._accepting = True
        with pytest.raises(AdmissionError):
            daemon.batcher.admit("anyone")
        assert daemon.session.stats["rejected"] == 1

    def test_multiworker_daemon_prewarms_the_pool(self):
        """A multi-worker daemon forks its pool during startup, while
        the process is quiet — forking lazily under live traffic can
        deadlock the children (fork-with-threads). The pool must be warm
        before the listener accepts, and a parallel /profile must reuse
        it rather than respawn."""
        from repro.system.executor import pool_diagnostics, pool_generation

        async def scenario(daemon, port):
            assert pool_diagnostics() is not None
            generation = pool_generation()
            status, body = await post_json(
                "127.0.0.1",
                port,
                "/profile",
                {"dataset": "ua-detrac", "trials": 2,
                 "fraction_step": 0.5, "resolution_count": 2},
                timeout=600,
            )
            assert status == 200, body
            assert pool_generation() == generation
            return True

        assert run_with_daemon(scenario, workers=2)

    def test_metrics_and_introspection_endpoints(self):
        async def scenario(daemon, port):
            status, _ = await post_json(
                "127.0.0.1", port, "/bound",
                {"dataset": "ua-detrac", "fraction": 0.5},
            )
            assert status == 200
            status, body = await post_json("127.0.0.1", port, "/healthz")
            assert status == 200 and body["status"] == "ok"
            status, text = await post_json("127.0.0.1", port, "/metrics")
            assert status == 200
            assert "repro_serve_requests_total" in text
            assert "repro_serve_kernel_calls_total" in text
            status, stats = await post_json("127.0.0.1", port, "/stats")
            assert status == 200
            assert stats["counters"]["requests"] == 1
            assert stats["datasets"] == ["ua-detrac"]
            assert "pool_generation" in stats
            status, body = await post_json(
                "127.0.0.1", port, "/nowhere", {}
            )
            assert status == 404
            status, body = await post_json(
                "127.0.0.1", port, "/estimate", {"dataset": "nope"}
            )
            assert status == 400
            return True

        assert run_with_daemon(scenario)

    def test_profile_is_cached_and_choose_rides_it(self):
        async def scenario(daemon, port):
            payload = {
                "dataset": "ua-detrac",
                "trials": 1,
                "fraction_step": 0.5,
                "resolution_count": 2,
            }
            status, first = await post_json(
                "127.0.0.1", port, "/profile", payload, timeout=600
            )
            assert status == 200 and first["cached"] is False
            status, second = await post_json(
                "127.0.0.1", port, "/profile", payload, timeout=600
            )
            assert status == 200 and second["cached"] is True
            assert second["slices"] == first["slices"]
            status, choice = await post_json(
                "127.0.0.1", port, "/choose",
                {**payload, "max_error": 0.9}, timeout=600,
            )
            assert status == 200
            assert choice["cached"] is True
            assert choice["error_bound"] <= 0.9
            return True

        assert run_with_daemon(scenario)

    def test_shutdown_endpoint_stops_the_daemon(self):
        async def scenario():
            daemon = ServeDaemon(
                ServeConfig(port=0, datasets=("ua-detrac",), frames=FRAMES)
            )
            port = await daemon.start()
            status, body = await post_json(
                "127.0.0.1", port, "/shutdown", {}
            )
            assert status == 200
            await asyncio.wait_for(daemon.wait_stopped(), timeout=30)
            return True

        assert asyncio.run(scenario())


class TestSubprocessLifecycle:
    """SIGTERM against a real daemon subprocess: drain, flush, unlink."""

    def _spawn(self, tmp_path: Path, extra: list[str] | None = None):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--frames", "800",
                "--run-ledger", str(tmp_path / "serve_runs.jsonl"),
                *(extra or []),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )

    def _await_port(self, proc) -> int:
        deadline = time.time() + 120
        while time.time() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            if match:
                return int(match.group(1))
        raise AssertionError("daemon never printed its bound address")

    def test_sigterm_drains_flushes_and_unlinks(self, tmp_path):
        proc = self._spawn(tmp_path)
        try:
            port = self._await_port(proc)

            async def one_request():
                return await post_json(
                    "127.0.0.1", port, "/estimate",
                    {"dataset": "ua-detrac", "fraction": 0.25, "seed": 4},
                )

            status, body = asyncio.run(one_request())
            assert status == 200, body
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 0, output
        assert "drained and stopped" in output
        # The PR-7 leak-check contract, extended to the daemon: no
        # published segment of this pid survives the graceful exit.
        if DEV_SHM.is_dir():
            prefix = f"{shm.SEGMENT_PREFIX}_{proc.pid}_"
            leaks = sorted(DEV_SHM.glob(f"{prefix}*"))
            assert leaks == [], leaks
        # The ledger record was flushed on the signal path, with the
        # session's accounting annotated.
        records = [
            json.loads(line)
            for line in (tmp_path / "serve_runs.jsonl").read_text().splitlines()
        ]
        assert len(records) == 1
        record = records[0]
        assert record["command"] == "serve"
        assert record["status"] == "ok"
        assert record["facts"]["serve"]["requests"] == 1
        assert record["facts"]["serve"]["kernel_calls"] == 1


async def raw_status(port: int, head: bytes, body: bytes = b"") -> int:
    """Send raw request bytes; return the answer's status code."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(head + body)
        await writer.drain()
        status_line = await asyncio.wait_for(reader.readline(), timeout=10)
        await reader.read()
        return int(status_line.split()[1])
    finally:
        writer.close()


def probe_raw(tmp_path: Path, head: bytes, body: bytes) -> tuple[int, list, dict]:
    """Send raw request bytes to a live daemon inside a ledger run.

    Returns the answer's status, the ledger records written before the run
    finished (a flight record would land there), and the finished record.
    The daemon must still answer ``/healthz``.
    """
    ledger = tmp_path / "runs.jsonl"
    run_ledger.begin_run("serve-test", {}, str(ledger))

    async def scenario(daemon, port):
        status = await raw_status(port, head, body)
        health, answer = await post_json("127.0.0.1", port, "/healthz")
        assert health == 200 and answer["status"] == "ok"
        return status

    try:
        status = run_with_daemon(scenario)
        records_before_finish = (
            run_ledger.read_runs(ledger) if ledger.exists() else []
        )
    finally:
        record = run_ledger.finish_run("ok", 0)
    return status, records_before_finish, record


class TestContentLengthFraming:
    """Regression: a bad ``Content-Length`` is the client's error.

    ``abc`` and ``-5`` used to reach ``int()``/``readexactly`` and come back
    as a 500 that dumped the flight recorder into the run ledger, and a
    huge length made the daemon wait for a body it would never read.
    """

    @staticmethod
    def _head(length: bytes) -> bytes:
        return (
            b"POST /bound HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + length + b"\r\nConnection: close\r\n\r\n"
        )

    def _probe(self, tmp_path: Path, length: bytes) -> tuple[int, list, dict]:
        return probe_raw(tmp_path, self._head(length), b'{"a": 1}')

    @pytest.mark.parametrize(
        "length",
        [b"abc", b"-5", b"1.5", b"+8", b"0x10", "²".encode("latin-1")],
        ids=["alpha", "negative", "decimal", "plus", "hex", "superscript"],
    )
    def test_non_integer_length_is_400(self, tmp_path, length):
        status, records, record = self._probe(tmp_path, length)
        assert status == 400
        assert records == []
        assert "flight_record" not in record["facts"]
        assert not [
            event for event in record["events"]
            if event["event"] == "flight.recorder"
        ]

    @pytest.mark.parametrize(
        "length",
        [
            str(_MAX_BODY_BYTES + 1).encode(),
            b"99999999999999999999",
            b"9" * 5000,
        ],
        ids=["limit-plus-one", "20-digits", "5000-digits"],
    )
    def test_oversized_length_is_413_without_reading(self, tmp_path, length):
        status, records, record = self._probe(tmp_path, length)
        assert status == 413
        assert records == []
        assert "flight_record" not in record["facts"]

    def test_limit_leaves_room_for_a_maximal_ingest(self):
        values = [-1.2345678901234567e-300] * ServeSession._MAX_STREAM_VALUES
        body = json.dumps({"id": "x" * 64, "values": values})
        assert len(body.encode()) <= _MAX_BODY_BYTES


class TestHeaderFraming:
    """Regression: over-long or too many header lines are the client's error.

    A line past asyncio's 64 KiB ``readline`` limit used to raise
    ``ValueError`` into the catch-all, answering 500 and dumping the flight
    recorder into the run ledger, and the header count was unbounded.
    """

    BODY = b'{"a": 1}'

    @classmethod
    def _head(cls, extra: list[bytes], target: bytes = b"/bound") -> bytes:
        return (
            b"POST " + target + b" HTTP/1.1\r\nHost: test\r\n"
            + b"".join(line + b"\r\n" for line in extra)
            + b"Content-Length: " + str(len(cls.BODY)).encode()
            + b"\r\nConnection: close\r\n\r\n"
        )

    @staticmethod
    def _assert_no_flight_record(records: list, record: dict) -> None:
        assert records == []
        assert "flight_record" not in record["facts"]
        assert not [
            event for event in record["events"]
            if event["event"] == "flight.recorder"
        ]

    @pytest.mark.parametrize(
        "extra",
        [
            [b"X-Long: " + b"a" * 9000],
            [b"X-Huge: " + b"a" * 70_000],
            [b"X-Many-%d: 1" % i for i in range(101)],
        ],
        ids=["9KiB-line", "70KiB-line", "104-headers"],
    )
    def test_oversized_headers_are_431(self, tmp_path, extra):
        status, records, record = probe_raw(
            tmp_path, self._head(extra), self.BODY
        )
        assert status == 431
        self._assert_no_flight_record(records, record)

    @pytest.mark.parametrize("length", [9000, 70_000], ids=["9KiB", "70KiB"])
    def test_overlong_request_line_is_400(self, tmp_path, length):
        head = self._head([], target=b"/" + b"a" * length)
        status, records, record = probe_raw(tmp_path, head, self.BODY)
        assert status == 400
        self._assert_no_flight_record(records, record)

    def test_limits_admit_a_full_header_block(self, tmp_path):
        # 100 lines in all (Host, Content-Length, Connection and 97 more),
        # one of them at the 8 KiB line limit including its CRLF.
        extra = [b"X-Pad: " + b"a" * (8192 - 9)]
        extra += [b"X-Many-%d: 1" % i for i in range(96)]
        status, records, record = probe_raw(
            tmp_path, self._head(extra), self.BODY
        )
        assert status == 200
        self._assert_no_flight_record(records, record)


class TestBudgetValidation:
    """Regression: malformed tenant budgets must be rejected, not coerced.

    ``TokenBucket`` used to silently clamp ``burst`` up to 1.0 (hiding a
    misconfigured fractional burst behind a working-looking bucket) and
    accepted a NaN ``rate`` (every refill computed ``nan`` tokens, so the
    bucket admitted the burst and then starved every tenant forever).
    """

    def test_token_bucket_rejects_fractional_burst(self):
        with pytest.raises(RequestError):
            TokenBucket(rate=10.0, burst=0.5)

    def test_token_bucket_rejects_nan_rate(self):
        with pytest.raises(RequestError):
            TokenBucket(rate=float("nan"), burst=10)

    @pytest.mark.parametrize(
        "rate, burst",
        [(float("inf"), 10), (-1.0, 10), (10.0, float("nan")), (10.0, 0)],
    )
    def test_token_bucket_rejects_other_degenerates(self, rate, burst):
        with pytest.raises(RequestError):
            TokenBucket(rate=rate, burst=burst)

    def test_token_bucket_accepts_burst_only_budget(self):
        TokenBucket(rate=0.0, burst=1)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"tenant_burst": 0.5},
            {"tenant_rate": float("nan")},
            {"tenant_rate": -1.0},
            {"tenant_burst": float("inf")},
        ],
    )
    def test_serve_config_rejects_bad_budgets(self, overrides):
        with pytest.raises(RequestError):
            ServeConfig(datasets=("ua-detrac",), **overrides)


class TestHotStreams:
    """Session-level /stream semantics without the HTTP layer."""

    @pytest.fixture(scope="class")
    def session(self):
        config = ServeConfig(datasets=("ua-detrac",), frames=FRAMES)
        session = ServeSession(config)
        session.warmup()
        yield session
        session.shutdown()

    def test_open_returns_fresh_readout(self, session):
        body = session.stream_open({"tenant": "cam-7"})
        assert body["id"].startswith("s")
        assert body["tenant"] == "cam-7"
        assert body["count"] == 0
        assert body["ingests"] == 0
        assert body["profiled_bound"] > 0.0
        assert body["verdict"]["tripped"] is False

    def test_open_rejects_unloaded_dataset(self, session):
        with pytest.raises(RequestError):
            session.stream_open({"dataset": "night-street"})

    def test_open_rejects_oversized_window(self, session):
        with pytest.raises(RequestError):
            session.stream_open({"window": FRAMES + 1})

    def test_ingest_unknown_stream_rejected(self, session):
        with pytest.raises(RequestError, match="unknown stream"):
            session.stream_ingest({"id": "s9999", "values": [1.0]})

    @pytest.mark.parametrize(
        "values",
        [None, [], "not-a-list", [1.0, float("nan")], [1.0, "x"]],
    )
    def test_ingest_rejects_malformed_values(self, session, values):
        stream_id = session.stream_open({})["id"]
        with pytest.raises(RequestError):
            session.stream_ingest({"id": stream_id, "values": values})

    def test_ingest_rejects_oversized_batch(self, session):
        stream_id = session.stream_open({})["id"]
        with pytest.raises(RequestError, match="at most"):
            session.stream_ingest(
                {"id": stream_id, "values": [1.0] * 10_001}
            )

    def test_hostile_feed_trips_and_repairs(self, session):
        opened = session.stream_open(
            {
                "tenant": "cam-drift",
                "window": 100,
                "profiled_bound": 0.05,
                "min_count": 30,
                "patience": 2,
            }
        )
        stream_id = opened["id"]
        violations_before = session.stats["stream_violations"]
        # An all-zero feed is total drift (the clean reference mean is
        # positive): first breach at the first post-warm-up check, the
        # second confirms it past patience.
        first = session.stream_ingest(
            {"id": stream_id, "values": [0.0] * 50}
        )
        assert first["check"]["breached"]
        assert not first["verdict"]["tripped"]
        second = session.stream_ingest(
            {"id": stream_id, "values": [0.0] * 50}
        )
        assert second["newly_tripped"]
        assert second["verdict"]["tripped"]
        assert second["repaired_bound"] > 0.0
        assert session.stats["stream_violations"] >= violations_before + 2
        readout = session.stream_readout(stream_id)
        assert readout["verdict"]["tripped"]
        assert readout["count"] == 100
        assert readout["ingests"] == 2


class TestStreamHTTP:
    """The /stream endpoints over the wire."""

    def test_open_ingest_readout_round_trip(self):
        async def scenario(daemon, port):
            status, opened = await post_json(
                "127.0.0.1", port, "/stream",
                {"tenant": "cam-http", "window": 100,
                 "profiled_bound": 0.05},
            )
            assert status == 200, opened
            stream_id = opened["id"]
            status, ingested = await post_json(
                "127.0.0.1", port, "/stream",
                {"id": stream_id, "values": [0.0] * 50,
                 "tenant": "cam-http"},
            )
            assert status == 200, ingested
            assert ingested["ingested"] == 50
            status, readout = await post_json(
                "127.0.0.1", port, f"/stream/{stream_id}"
            )
            assert status == 200, readout
            assert readout["count"] == 50
            status, missing = await post_json(
                "127.0.0.1", port, "/stream/s9999"
            )
            assert status == 400, missing
            status, stats = await post_json("127.0.0.1", port, "/stats")
            assert stats["streams"] == 1
            assert stats["counters"]["stream_requests"] == 2
            assert stats["counters"]["stream_opens"] == 1
            return True

        assert run_with_daemon(scenario)
