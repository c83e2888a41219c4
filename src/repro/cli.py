"""Command-line interface: profile, choose, estimate, experiment.

The administrator workflow without writing Python::

    repro profile  --dataset ua-detrac --aggregate avg --output cube.json
    repro choose   --cube cube.json --axis sampling --max-error 0.2
    repro estimate --dataset ua-detrac --aggregate avg --fraction 0.1
    repro experiment fig4 --dataset ua-detrac --aggregate avg --trials 50
    repro chaos    --rates 0,0.2,0.5 --trials 10
    repro info     --dataset night-street

Every subcommand accepts ``--frames`` to run on a reduced corpus and
``--seed`` for reproducibility.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.serialization import load_hypercube, save_hypercube
from repro.core.smokescreen import Smokescreen
from repro.detection import diskcache
from repro.core.tradeoff import PublicPreferences, choose_tradeoff
from repro.errors import ReproError
from repro.estimators.dispatch import estimate_query
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
from repro.system import telemetry
from repro.system import observe
from repro.video.frame import ObjectClass
from repro.video.geometry import Resolution


def _parse_workers(text: str) -> int | str:
    if text.strip().lower() == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise SystemExit(f"invalid --workers {text!r}; expected an int or 'auto'")


def _parse_aggregate(name: str) -> Aggregate:
    try:
        return Aggregate[name.upper()]
    except KeyError:
        valid = ", ".join(member.name.lower() for member in Aggregate)
        raise SystemExit(f"unknown aggregate {name!r}; valid: {valid}")


def _parse_classes(text: str | None) -> tuple[ObjectClass, ...]:
    if not text:
        return ()
    return tuple(ObjectClass.from_name(part.strip()) for part in text.split(","))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", choices=DATASET_NAMES, required=True, help="corpus preset"
    )
    parser.add_argument(
        "--aggregate", default="avg", help="avg | sum | count | max | min | var"
    )
    parser.add_argument(
        "--frames", type=int, default=None, help="reduced corpus size (default: full)"
    )
    parser.add_argument("--seed", type=int, default=0, help="randomness seed")


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level", default="warning",
        choices=("debug", "info", "warning", "error"),
        help="threshold of the repro.* structured loggers",
    )
    parser.add_argument(
        "--log-format", default="human", choices=("human", "json"),
        help="log line format (human key=value, or one JSON object per line)",
    )
    parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="collect metrics/spans and write the snapshot JSON here on exit "
             "(collection is off without this flag)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="also export the span forest as Chrome trace-event JSON "
             "(open in ui.perfetto.dev); implies telemetry collection",
    )
    parser.add_argument(
        "--prometheus", default=None, metavar="PATH",
        help="also export counters/gauges/histograms in the Prometheus "
             "text exposition format; implies telemetry collection",
    )
    parser.add_argument(
        "--run-ledger", default=None, metavar="PATH",
        help="append a run record (config fingerprint, wall seconds, "
             "invocations, cache hit ratio, bound widths) to this JSONL "
             "ledger; inspect with 'repro runs'",
    )


def _write_telemetry_snapshot(
    snapshot: telemetry.MetricsSnapshot | None, path: str, run_id: str
) -> None:
    """Write the snapshot JSON atomically, without clobbering a peer.

    The payload lands in a run-id-suffixed temporary file first and is
    renamed into place, so a reader never sees a partial snapshot. If
    another run is mid-write to the same path (its temporary marker is
    visible), this run diverts its snapshot to a run-id-suffixed final
    path instead of racing for the shared one.
    """
    payload = snapshot.to_dict() if snapshot is not None else {}
    destination = Path(path)
    if destination.parent != Path(""):
        destination.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = destination.with_name(f".{destination.name}.{run_id}.tmp")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    peers = [
        marker
        for marker in glob.glob(
            str(destination.with_name(f".{destination.name}.*.tmp"))
        )
        if Path(marker) != tmp_path
    ]
    if peers:
        destination = destination.with_name(
            f"{destination.stem}.{run_id}{destination.suffix}"
        )
    os.replace(tmp_path, destination)
    counters = payload.get("counters", {})
    interesting = {
        name: value
        for name, value in counters.items()
        if name.startswith(("cache.", "executor.", "fleet.", "breaker."))
    }
    summary = ", ".join(
        f"{name}={value:g}" for name, value in sorted(interesting.items())
    )
    print(f"telemetry snapshot written to {destination}"
          + (f" ({summary})" if summary else ""))


def _build_query(args: argparse.Namespace) -> tuple[AggregateQuery, QueryProcessor]:
    dataset = load_dataset(args.dataset, args.frames)
    query = AggregateQuery(dataset, model_for(args.dataset), _parse_aggregate(args.aggregate))
    return query, QueryProcessor(shared_suite())


def cmd_profile(args: argparse.Namespace) -> int:
    """Generate a degradation hypercube and persist it."""
    if args.cache_dir:
        limit = (
            int(args.cache_limit_mb * 1_000_000)
            if args.cache_limit_mb is not None
            else None
        )
        cache = diskcache.activate(args.cache_dir, limit)
        if args.clear_cache:
            removed = cache.clear()
            print(f"detector cache cleared ({removed} entries)")
    dataset = load_dataset(args.dataset, args.frames)
    system = Smokescreen(
        dataset,
        model_for(args.dataset),
        suite=shared_suite(),
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
    )
    query = system.query(_parse_aggregate(args.aggregate))

    correction = None
    if not args.no_correction:
        correction = system.build_correction_set(query)
        print(
            f"correction set: {correction.size} frames "
            f"({correction.fraction(dataset.frame_count):.1%}), "
            f"own bound {correction.error_bound:.3f}"
        )
    candidates = system.candidates(
        fraction_step=args.fraction_step,
        resolution_count=args.resolution_count,
    )
    cube = system.profile(query, candidates, correction=correction)
    save_hypercube(cube, args.output)
    print(f"hypercube written to {args.output} "
          f"({len(candidates.fractions)}x{len(candidates.resolutions)}"
          f"x{len(candidates.removals)} cells)")
    print(f"model invocations: {system.ledger.total} "
          f"(workers={args.workers}"
          + (", persistent cache on" if args.cache_dir else "")
          + ")")

    sampling, resolution, removal = cube.initial_slices()
    for profile in (sampling, resolution, removal):
        print(f"\n{profile.axis} slice:")
        for knob, bound in zip(profile.knob_values(), profile.error_bounds()):
            print(f"  {knob!s:>16}  err_b={bound:.3f}")
    return 0


def cmd_choose(args: argparse.Namespace) -> int:
    """Choose a tradeoff from a persisted hypercube."""
    cube = load_hypercube(args.cube)
    if args.axis == "sampling":
        profile = cube.slice_sampling()
    elif args.axis == "resolution":
        profile = cube.slice_resolution()
    else:
        profile = cube.slice_removal()
    preferences = PublicPreferences(
        max_error=args.max_error,
        max_resolution=Resolution(args.max_resolution) if args.max_resolution else None,
        required_removed=_parse_classes(args.require_removed),
        max_fraction=args.max_fraction,
    )
    choice = choose_tradeoff(profile, preferences)
    print(f"chosen setting: {choice.point.plan.label()}")
    print(f"bounded error:  {choice.point.error_bound:.3f}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    """Run one degraded query and print the estimate."""
    query, processor = _build_query(args)
    plan = InterventionPlan.from_knobs(
        f=args.fraction,
        p=args.resolution,
        c=_parse_classes(args.remove),
        suite=processor.suite,
    )
    rng = np.random.default_rng(args.seed)
    execution = processor.execute(query, plan, rng)
    estimate = estimate_query(query, execution, args.method)
    print(f"query:     {query.label()}")
    print(f"plan:      {plan.label()}")
    print(f"estimate:  {estimate.value:.4f}")
    print(f"bound:     {estimate.error_bound:.4f} (delta={query.delta})")
    print(f"sample:    n={estimate.n} of universe {estimate.universe_size}")
    if not plan.is_random_for(query.dataset):
        print(
            "warning: the plan contains non-random interventions; the basic "
            "bound is not guaranteed — use a correction set (see 'profile')"
        )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one paper experiment and print its table."""
    from repro.experiments.registry import ExperimentRequest, run_experiment

    request = ExperimentRequest(
        dataset=args.dataset,
        aggregate=_parse_aggregate(args.aggregate),
        axis=args.axis,
        frames=args.frames,
        trials=args.trials,
        seed=args.seed,
    )
    result = run_experiment(args.name, request)
    result.print(chart=args.chart)
    return 0


def _experiment_names() -> tuple[str, ...]:
    from repro.experiments.registry import experiment_names

    return experiment_names()


def cmd_report(args: argparse.Namespace) -> int:
    """Run every experiment and write the markdown reproduction report."""
    from repro.experiments.registry import ExperimentRequest
    from repro.experiments.report import generate_report

    names = tuple(args.only.split(",")) if args.only else None
    request = ExperimentRequest(
        frames=args.frames, trials=args.trials, seed=args.seed
    )
    entries = generate_report(args.output, request, names)
    failed = [entry.name for entry in entries if not entry.succeeded]
    print(
        f"report written to {args.output}: {len(entries)} experiments, "
        f"{len(entries) - len(failed)} succeeded"
    )
    if failed:
        print(f"failed: {', '.join(failed)}")
        return 1
    return 0


def _scenario_names() -> tuple[str, ...]:
    """Zoo scenario names for the ``--scenario`` choices (lazy import)."""
    from repro.experiments.chaos_sweep import SCENARIOS

    return tuple(SCENARIOS)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Sweep outage rates (or a zoo scenario) and print the defense table."""
    from repro.experiments.chaos_sweep import run_chaos, run_scenario_chaos

    # Scenario mode defaults to a denser sample: the streaming bound must
    # be tight enough that mid-severity drifts are detectable at all.
    fraction = args.fraction
    if fraction is None:
        fraction = 0.5 if args.scenario is not None else 0.2

    if args.scenario is not None:
        severities = None
        if args.severities:
            try:
                severities = tuple(
                    float(part)
                    for part in args.severities.split(",")
                    if part.strip()
                )
            except ValueError:
                raise SystemExit(
                    f"invalid --severities list: {args.severities!r}"
                )
        result = run_scenario_chaos(
            args.scenario,
            trials=args.trials,
            frame_count=args.frames,
            seed=args.seed,
            severities=severities,
            camera_count=args.cameras,
            fraction=fraction,
            delta=args.delta,
            victim_index=args.victim,
            workers=args.workers,
        )
        result.print(chart=args.chart)
        return 0

    try:
        rates = tuple(
            float(part) for part in args.rates.split(",") if part.strip()
        )
    except ValueError:
        raise SystemExit(f"invalid --rates list: {args.rates!r}")
    if not rates:
        raise SystemExit("--rates needs at least one outage rate")
    result = run_chaos(
        trials=args.trials,
        frame_count=args.frames,
        seed=args.seed,
        outage_rates=rates,
        camera_count=args.cameras,
        fraction=fraction,
        delta=args.delta,
        workers=args.workers,
    )
    result.print(chart=args.chart)
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Replay a corpus as a live feed through the windowed sentinel."""
    from repro.system.stream import StreamConfig, replay_stream

    config = StreamConfig(
        dataset=args.dataset,
        frames=args.frames,
        scenario=args.scenario,
        severity=args.severity,
        onset=args.onset,
        window=args.window,
        estimator=args.estimator,
        decay=args.decay,
        delta=args.delta,
        min_count=args.min_count,
        patience=args.patience,
        fraction=args.fraction,
        fps=args.fps,
        seed=args.seed,
    )
    report = replay_stream(config)
    report.print()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the hot serving daemon until SIGINT/SIGTERM."""
    from repro.system.serve import ServeConfig, run_daemon

    datasets = tuple(
        part.strip() for part in args.datasets.split(",") if part.strip()
    )
    limit = (
        int(args.cache_limit_mb * 1_000_000)
        if args.cache_limit_mb is not None
        else None
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        datasets=datasets,
        frames=args.frames,
        workers=args.workers,
        cache_dir=args.cache_dir,
        cache_limit_bytes=limit,
        tick_seconds=args.tick_ms / 1000.0,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        delta=args.delta,
    )
    return run_daemon(config)


def cmd_call(args: argparse.Namespace) -> int:
    """Send one query to a running daemon and print the JSON response."""
    import asyncio

    from repro.system.serve import post_json

    get_paths = ("healthz", "metrics", "stats")
    path = f"/{args.endpoint}"
    payload: dict | None = None
    if args.endpoint not in get_paths:
        payload = {
            "dataset": args.dataset,
            "aggregate": args.aggregate,
            "seed": args.seed,
            "tenant": args.tenant,
        }
        if args.fraction is not None:
            payload["fraction"] = args.fraction
        if args.resolution is not None:
            payload["resolution"] = args.resolution
        if args.remove:
            payload["remove"] = args.remove
        if args.method != "smokescreen":
            payload["method"] = args.method
        if args.trials != 1:
            payload["trials"] = args.trials
        if args.fraction_step is not None:
            payload["fraction_step"] = args.fraction_step
        if args.resolution_count is not None:
            payload["resolution_count"] = args.resolution_count
        if args.max_error is not None:
            payload["max_error"] = args.max_error
        if args.json:
            payload.update(json.loads(args.json))
    status, body = asyncio.run(
        post_json(args.host, args.port, path, payload, timeout=args.timeout)
    )
    if isinstance(body, str):
        print(body, end="" if body.endswith("\n") else "\n")
    else:
        json.dump(body, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0 if status < 400 else 1


def cmd_pool(args: argparse.Namespace) -> int:
    """Inspect the persistent worker pool (local, or a daemon's)."""
    from repro.system.executor import pool_diagnostics, pool_generation

    if args.host is not None:
        import asyncio

        from repro.system.serve import post_json

        status, body = asyncio.run(
            post_json(args.host, args.port, "/stats", timeout=args.timeout)
        )
        if status >= 400 or not isinstance(body, dict):
            print(f"error: daemon /stats returned {status}", file=sys.stderr)
            return 1
        payload = {
            "pool": body.get("pool"),
            "generation": body.get("pool_generation"),
            "shm_published_bytes": body.get("shm_published_bytes"),
            "uptime_seconds": body.get("uptime_seconds"),
        }
    else:
        payload = {
            "pool": pool_diagnostics(),
            "generation": pool_generation(),
        }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()
    if payload["pool"] is None:
        where = "on the daemon" if args.host is not None else "in this process"
        print(f"no persistent pool is warm {where}", file=sys.stderr)
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """Print a corpus calibration summary."""
    dataset = load_dataset(args.dataset, args.frames)
    model = model_for(args.dataset)
    suite = shared_suite()
    counts = model.run(dataset).counts
    person = suite.presence(dataset, ObjectClass.PERSON).mean()
    face = suite.presence(dataset, ObjectClass.FACE).mean()
    print(f"dataset:          {dataset.name}")
    print(f"frames:           {dataset.frame_count} @ {dataset.frame_rate:g} FPS")
    print(f"native:           {dataset.native_resolution}")
    print(f"query model:      {model.name} (threshold {model.threshold})")
    print(f"mean cars/frame:  {counts.mean():.3f} (max {counts.max()})")
    print(f"person frames:    {person:.2%}")
    print(f"face frames:      {face:.2%}")
    return 0


def _load_baseline(path: str) -> dict:
    """A pinned baseline record: a single-record JSON file, or the
    newest record of a ledger JSONL."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise ReproError(f"baseline not found: {path}")
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict) and "run_id" in payload:
        return payload
    return observe.latest_run(path)


def _candidate_run(args: argparse.Namespace) -> dict:
    return observe.latest_run(
        args.ledger,
        command=getattr(args, "filter_command", None),
        run_id=getattr(args, "run", None),
    )


def _format_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def cmd_runs_list(args: argparse.Namespace) -> int:
    """List ledger records, oldest first."""
    records = observe.read_runs(args.ledger)
    if args.filter_command:
        records = [
            r for r in records if r.get("command") == args.filter_command
        ]
    if args.limit:
        records = records[-args.limit:]
    if not records:
        print("no runs recorded")
        return 0
    header = (
        f"{'run_id':<22} {'command':<10} {'status':<6} "
        f"{'wall_s':>9} {'invocations':>11} {'hit_ratio':>9}"
    )
    print(header)
    for record in records:
        metrics = record.get("metrics", {})
        print(
            f"{record.get('run_id', '?'):<22} "
            f"{record.get('command', '?'):<10} "
            f"{record.get('status', '?'):<6} "
            f"{_format_cell(record.get('wall_seconds')):>9} "
            f"{_format_cell(metrics.get('model_invocations')):>11} "
            f"{_format_cell(metrics.get('cache_hit_ratio')):>9}"
        )
    return 0


def cmd_runs_show(args: argparse.Namespace) -> int:
    """Print one full ledger record as JSON (latest by default)."""
    record = _candidate_run(args)
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    print()
    rollup = (
        record.get("facts", {}).get("fleet", {}).get("telemetry")
        if isinstance(record.get("facts"), dict)
        else None
    )
    if isinstance(rollup, dict) and rollup.get("fleet"):
        _render_fleet_rollup(rollup)
    return 0


def _render_fleet_rollup(rollup: dict) -> None:
    """Render ``facts.fleet.telemetry`` as a camera→shard→fleet summary."""
    fleet = rollup.get("fleet", {})
    print()
    print(
        f"fleet rollup: {fleet.get('cameras', 0)} cameras / "
        f"{fleet.get('shards', 0)} shards, "
        f"{fleet.get('total_frames', 0)} frames"
    )
    print(
        f"  latency mean {_format_cell(fleet.get('mean_latency_s'))}s "
        f"max {_format_cell(fleet.get('max_latency_s'))}s, "
        f"violations {fleet.get('violations', 0)} "
        f"(concentration {_format_cell(fleet.get('violation_concentration'))}), "
        f"cache-hit dispersion {_format_cell(fleet.get('cache_hit_dispersion'))}"
    )
    shards = rollup.get("shards", {})
    if shards:
        print(
            f"  {'shard':<12} {'cameras':>7} {'frames':>8} "
            f"{'mean_s':>9} {'max_s':>9} {'viol':>5} {'degraded':>8} "
            f"{'hit_ratio':>9}"
        )
        for name in sorted(shards):
            shard = shards[name]
            print(
                f"  {name:<12} "
                f"{_format_cell(shard.get('cameras')):>7} "
                f"{_format_cell(shard.get('frames')):>8} "
                f"{_format_cell(shard.get('mean_latency_s')):>9} "
                f"{_format_cell(shard.get('max_latency_s')):>9} "
                f"{_format_cell(shard.get('violations')):>5} "
                f"{_format_cell(shard.get('degraded')):>8} "
                f"{_format_cell(shard.get('mean_cache_hit_ratio')):>9}"
            )
    slowest = fleet.get("top_slowest", [])
    if slowest:
        rendered = ", ".join(
            f"{entry.get('name', '?')} "
            f"({_format_cell(entry.get('latency_s'))}s)"
            for entry in slowest
        )
        print(f"  slowest cameras: {rendered}")


def cmd_runs_diff(args: argparse.Namespace) -> int:
    """Compare the latest run against the pinned baseline, field by field."""
    baseline = _load_baseline(args.baseline)
    candidate = _candidate_run(args)
    rows = observe.diff_runs(baseline, candidate)
    print(
        f"baseline {baseline.get('run_id', '?')} vs "
        f"candidate {candidate.get('run_id', '?')}"
    )
    print(
        f"{'metric':<20} {'baseline':>12} {'candidate':>12} "
        f"{'delta':>12} {'ratio':>8}"
    )
    for row in rows:
        print(
            f"{row['metric']:<20} "
            f"{_format_cell(row['baseline']):>12} "
            f"{_format_cell(row['candidate']):>12} "
            f"{_format_cell(row['delta']):>12} "
            f"{_format_cell(row['ratio']):>8}"
        )
    return 0


def cmd_runs_check(args: argparse.Namespace) -> int:
    """Gate the latest run against the baseline; non-zero on regression."""
    baseline = _load_baseline(args.baseline)
    candidate = _candidate_run(args)
    thresholds = observe.GateThresholds(
        max_wall_ratio=args.max_wall_ratio,
        max_invocation_ratio=args.max_invocation_ratio,
        min_cache_hit_ratio=args.min_cache_hit_ratio,
        max_bound_ratio=args.max_bound_ratio,
        min_sentinel_recall=args.min_sentinel_recall,
        max_sentinel_fpr=args.max_sentinel_fpr,
        max_executor_fallbacks=args.max_executor_fallbacks,
        min_serve_speedup=args.min_serve_speedup,
        min_serve_coalescing=args.min_serve_coalescing,
        min_stream_fps=args.min_stream_fps,
        max_p99_latency=args.max_p99_latency,
    )
    result = observe.check_run(baseline, candidate, thresholds)
    print(
        f"checked {candidate.get('run_id', '?')} against baseline "
        f"{baseline.get('run_id', '?')} "
        f"({', '.join(result.checked) or 'nothing comparable'})"
    )
    if result.passed:
        print("regression gate: PASS")
        return 0
    for violation in result.violations:
        print(f"regression gate: FAIL - {violation.message}")
    return 1


def cmd_runs_pin(args: argparse.Namespace) -> int:
    """Write one ledger record out as a pinned baseline JSON file."""
    record = _candidate_run(args)
    output = Path(args.output)
    if output.parent != Path(""):
        output.parent.mkdir(parents=True, exist_ok=True)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"baseline pinned to {output} (run {record.get('run_id', '?')})")
    return 0


def _fetch_traces(args: argparse.Namespace, path: str) -> tuple[int, object]:
    """GET a trace endpoint from a running daemon."""
    import asyncio

    from repro.system.serve import post_json

    return asyncio.run(
        post_json(args.host, args.port, path, timeout=args.timeout)
    )


def cmd_trace_list(args: argparse.Namespace) -> int:
    """List recent traces held in a running daemon's trace ring."""
    status, body = _fetch_traces(args, "/traces")
    if status >= 400 or not isinstance(body, dict):
        print(f"error: daemon /traces returned {status}", file=sys.stderr)
        return 1
    traces = body.get("traces", [])
    if not traces:
        print("no traces recorded")
        return 0
    print(
        f"{'trace_id':<18} {'root':<22} {'spans':>5} "
        f"{'duration_s':>10} {'tenants'}"
    )
    for summary in traces:
        tenants = ",".join(summary.get("tenants", [])) or "-"
        print(
            f"{summary.get('trace_id', '?'):<18} "
            f"{summary.get('root', '?'):<22} "
            f"{_format_cell(summary.get('spans')):>5} "
            f"{_format_cell(summary.get('duration_s')):>10} "
            f"{tenants}"
        )
    return 0


def cmd_trace_show(args: argparse.Namespace) -> int:
    """Print every span of one trace (by id or unique id prefix)."""
    status, body = _fetch_traces(args, f"/traces/{args.trace_id}")
    if status >= 400 or not isinstance(body, dict):
        print(
            f"error: trace {args.trace_id!r} not found (daemon "
            f"returned {status})",
            file=sys.stderr,
        )
        return 1
    json.dump(body, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    """Export one trace as a Chrome ``chrome://tracing`` JSON file."""
    from repro.system.observe import tracing

    status, body = _fetch_traces(args, f"/traces/{args.trace_id}")
    if status >= 400 or not isinstance(body, dict):
        print(
            f"error: trace {args.trace_id!r} not found (daemon "
            f"returned {status})",
            file=sys.stderr,
        )
        return 1
    payload = tracing.chrome_payload(body.get("spans", []))
    output = Path(args.output)
    if output.parent != Path(""):
        output.parent.mkdir(parents=True, exist_ok=True)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"chrome trace written to {output} "
        f"({len(payload.get('traceEvents', []))} events)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Smokescreen: controlled intentional video degradation",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    profile = subparsers.add_parser("profile", help="generate a hypercube")
    _add_common(profile)
    profile.add_argument("--output", default="hypercube.json", help="output path")
    profile.add_argument("--trials", type=int, default=3)
    profile.add_argument("--fraction-step", type=float, default=0.05)
    profile.add_argument("--resolution-count", type=int, default=5)
    profile.add_argument(
        "--no-correction", action="store_true",
        help="skip the correction set (non-random bounds become untrusted)",
    )
    profile.add_argument(
        "--workers", type=_parse_workers, default=1,
        help="worker processes for profile generation, or 'auto' to defer "
             "to the host (the hypercube is bit-identical for any value)",
    )
    profile.add_argument(
        "--cache-dir", default=None,
        help="persistent detector-output cache directory (shared across "
             "runs and workers); omit to disable",
    )
    profile.add_argument(
        "--cache-limit-mb", type=float, default=None,
        help="LRU byte budget for --cache-dir, in megabytes",
    )
    profile.add_argument(
        "--clear-cache", action="store_true",
        help="empty --cache-dir before profiling",
    )
    _add_telemetry(profile)
    profile.set_defaults(handler=cmd_profile)

    choose = subparsers.add_parser("choose", help="pick a tradeoff from a hypercube")
    choose.add_argument("--cube", required=True, help="hypercube JSON path")
    choose.add_argument(
        "--axis", choices=("sampling", "resolution", "removal"), default="sampling"
    )
    choose.add_argument("--max-error", type=float, required=True)
    choose.add_argument("--max-resolution", type=int, default=None)
    choose.add_argument("--max-fraction", type=float, default=None)
    choose.add_argument(
        "--require-removed", default=None, help="comma list, e.g. person,face"
    )
    _add_telemetry(choose)
    choose.set_defaults(handler=cmd_choose)

    estimate = subparsers.add_parser("estimate", help="run one degraded query")
    _add_common(estimate)
    estimate.add_argument("--fraction", type=float, default=None)
    estimate.add_argument("--resolution", type=int, default=None)
    estimate.add_argument("--remove", default=None, help="comma list, e.g. person")
    estimate.add_argument("--method", default="smokescreen")
    _add_telemetry(estimate)
    estimate.set_defaults(handler=cmd_estimate)

    experiment = subparsers.add_parser(
        "experiment", help="run one paper experiment"
    )
    experiment.add_argument("name", choices=_experiment_names())
    experiment.add_argument("--dataset", choices=DATASET_NAMES, default="ua-detrac")
    experiment.add_argument("--aggregate", default="avg")
    experiment.add_argument(
        "--axis", choices=("sampling", "resolution", "removal"), default="resolution"
    )
    experiment.add_argument("--frames", type=int, default=None)
    experiment.add_argument("--trials", type=int, default=20)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--chart", action="store_true", help="render an ASCII chart too"
    )
    _add_telemetry(experiment)
    experiment.set_defaults(handler=cmd_experiment)

    chaos = subparsers.add_parser(
        "chaos",
        help=(
            "sweep outage rates -> bound-width table, or with --scenario "
            "hit one camera with a zoo scenario and audit the sentinel"
        ),
    )
    chaos.add_argument(
        "--rates", default="0,0.1,0.2,0.3,0.5",
        help="comma list of per-query camera outage probabilities",
    )
    chaos.add_argument(
        "--scenario",
        default=None,
        choices=sorted(_scenario_names()),
        help="run the scenario zoo sweep instead of the outage sweep",
    )
    chaos.add_argument(
        "--severities", default=None,
        help="comma list of scenario severities (default: the zoo's)",
    )
    chaos.add_argument(
        "--victim", type=int, default=0,
        help="index of the camera the scenario hits",
    )
    chaos.add_argument("--cameras", type=int, default=5, help="fleet size")
    chaos.add_argument(
        "--fraction", type=float, default=None,
        help=(
            "per-camera sampling fraction (default 0.2 for the outage "
            "sweep, 0.5 for scenario mode)"
        ),
    )
    chaos.add_argument(
        "--delta", type=float, default=0.05, help="total failure probability"
    )
    chaos.add_argument("--frames", type=int, default=None)
    chaos.add_argument("--trials", type=int, default=10)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--workers", type=_parse_workers, default=1,
        help="worker processes for the per-camera values stage, or 'auto' "
             "(results are identical for any value)",
    )
    chaos.add_argument(
        "--chart", action="store_true", help="render an ASCII chart too"
    )
    _add_telemetry(chaos)
    chaos.set_defaults(handler=cmd_chaos)

    stream = subparsers.add_parser(
        "stream",
        help="replay a corpus as a live feed through the bound sentinel "
             "(optionally drifting into a zoo scenario mid-stream)",
    )
    stream.add_argument(
        "--dataset", choices=DATASET_NAMES, default="ua-detrac",
        help="corpus preset to replay",
    )
    stream.add_argument(
        "--frames", type=int, default=2000,
        help="corpus frame count (the replay's universe)",
    )
    stream.add_argument(
        "--scenario", default=None, choices=sorted(_scenario_names()),
        help="zoo scenario that takes over the feed at --onset",
    )
    stream.add_argument(
        "--severity", type=float, default=None,
        help="scenario severity (default: the zoo's harshest)",
    )
    stream.add_argument(
        "--onset", type=float, default=0.5,
        help="fraction of the feed after which the scenario is live",
    )
    stream.add_argument(
        "--window", type=int, default=480,
        help="sliding-window capacity (also the per-check batch size)",
    )
    stream.add_argument(
        "--estimator", default="windowed",
        choices=("windowed", "decayed", "cumulative"),
        help="stream estimator feeding the sentinel",
    )
    stream.add_argument(
        "--decay", type=float, default=0.999,
        help="weight multiplier for --estimator decayed",
    )
    stream.add_argument(
        "--delta", type=float, default=0.05,
        help="per-read bound failure probability",
    )
    stream.add_argument(
        "--min-count", type=int, default=30,
        help="sentinel warm-up floor (frames before any drift check)",
    )
    stream.add_argument(
        "--patience", type=int, default=2,
        help="consecutive breaches required to confirm a violation",
    )
    stream.add_argument(
        "--fraction", type=float, default=0.5,
        help="clean seeded-query fraction pricing the profiled bound",
    )
    stream.add_argument(
        "--fps", type=float, default=0.0,
        help="throttle the replay to this many frames/second "
             "(0 = as fast as possible)",
    )
    stream.add_argument("--seed", type=int, default=7, help="replay seed")
    _add_telemetry(stream)
    stream.set_defaults(handler=cmd_stream)

    serve = subparsers.add_parser(
        "serve",
        help="run the hot serving daemon (profile-as-a-service over "
             "HTTP+JSON with request micro-batching)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8177,
        help="bind port (0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--datasets", default="ua-detrac",
        help="comma list of corpus presets to build and keep hot",
    )
    serve.add_argument(
        "--frames", type=int, default=None,
        help="reduced corpus size shared by every preloaded dataset",
    )
    serve.add_argument(
        "--workers", type=_parse_workers, default=1,
        help="worker processes for profile generation, or 'auto'",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="persistent detector-output cache directory",
    )
    serve.add_argument(
        "--cache-limit-mb", type=float, default=None,
        help="LRU byte budget for --cache-dir, in megabytes",
    )
    serve.add_argument(
        "--tick-ms", type=float, default=5.0,
        help="micro-batch window: how long the first queued request "
             "waits for compatible companions (milliseconds)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="max requests coalesced into one kernel call",
    )
    serve.add_argument(
        "--max-queue", type=int, default=256,
        help="global admission cap on queued requests",
    )
    serve.add_argument(
        "--tenant-rate", type=float, default=50.0,
        help="per-tenant sustained budget, requests/second",
    )
    serve.add_argument(
        "--tenant-burst", type=int, default=100,
        help="per-tenant token-bucket burst capacity",
    )
    serve.add_argument(
        "--delta", type=float, default=0.05,
        help="default bound failure probability",
    )
    _add_telemetry(serve)
    serve.set_defaults(handler=cmd_serve)

    call = subparsers.add_parser(
        "call", help="query a running serve daemon over HTTP+JSON"
    )
    call.add_argument(
        "endpoint",
        choices=(
            "estimate", "bound", "profile", "choose",
            "stats", "healthz", "metrics", "shutdown",
        ),
        help="daemon endpoint",
    )
    call.add_argument("--host", default="127.0.0.1", help="daemon host")
    call.add_argument("--port", type=int, default=8177, help="daemon port")
    call.add_argument(
        "--dataset", choices=DATASET_NAMES, default="ua-detrac",
        help="corpus preset",
    )
    call.add_argument(
        "--aggregate", default="avg", help="avg | sum | count | max | min | var"
    )
    call.add_argument("--fraction", type=float, default=None)
    call.add_argument("--resolution", type=int, default=None)
    call.add_argument("--remove", default=None, help="comma list, e.g. person")
    call.add_argument("--method", default="smokescreen")
    call.add_argument("--seed", type=int, default=0)
    call.add_argument("--trials", type=int, default=1)
    call.add_argument(
        "--fraction-step", type=float, default=None,
        help="profile-path fraction grid step",
    )
    call.add_argument(
        "--resolution-count", type=int, default=None,
        help="profile-path resolution grid size",
    )
    call.add_argument(
        "--max-error", type=float, default=None,
        help="error budget (choose endpoint)",
    )
    call.add_argument(
        "--tenant", default="cli", help="accounting identity (X-Tenant)"
    )
    call.add_argument(
        "--json", default=None, metavar="OBJECT",
        help="extra payload fields as a JSON object (merged last)",
    )
    call.add_argument(
        "--timeout", type=float, default=120.0, help="call timeout, seconds"
    )
    _add_telemetry(call)
    call.set_defaults(handler=cmd_call)

    pool = subparsers.add_parser(
        "pool",
        help="inspect the persistent worker pool (calibrated costs, "
             "generation) locally or on a running daemon",
    )
    pool.add_argument(
        "--host", default=None,
        help="daemon host; omit to inspect this process's pool",
    )
    pool.add_argument("--port", type=int, default=8177, help="daemon port")
    pool.add_argument(
        "--timeout", type=float, default=30.0, help="daemon call timeout"
    )
    _add_telemetry(pool)
    pool.set_defaults(handler=cmd_pool)

    info = subparsers.add_parser("info", help="corpus calibration summary")
    _add_common(info)
    _add_telemetry(info)
    info.set_defaults(handler=cmd_info)

    report = subparsers.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    report.add_argument("--output", default="REPRODUCTION.md")
    report.add_argument("--frames", type=int, default=None)
    report.add_argument("--trials", type=int, default=20)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--only", default=None,
        help="comma list of experiment names (default: all)",
    )
    _add_telemetry(report)
    report.set_defaults(handler=cmd_report)

    runs = subparsers.add_parser(
        "runs", help="inspect the run ledger and gate regressions"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    def _add_runs_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--ledger", default="runs.jsonl", metavar="PATH",
            help="run ledger JSONL (written by --run-ledger)",
        )
        sub.add_argument(
            "--command", dest="filter_command", default=None,
            help="only consider runs of this subcommand",
        )
        sub.add_argument(
            "--run", default=None, metavar="ID",
            help="select a run by id (or unique id prefix) instead of "
                 "the latest",
        )

    runs_list = runs_sub.add_parser("list", help="list recorded runs")
    _add_runs_common(runs_list)
    runs_list.add_argument(
        "--limit", type=int, default=None, help="show only the newest N"
    )
    runs_list.set_defaults(handler=cmd_runs_list)

    runs_show = runs_sub.add_parser("show", help="print one run record")
    _add_runs_common(runs_show)
    runs_show.set_defaults(handler=cmd_runs_show)

    runs_diff = runs_sub.add_parser(
        "diff", help="compare a run against a pinned baseline"
    )
    _add_runs_common(runs_diff)
    runs_diff.add_argument(
        "--baseline", required=True, metavar="PATH",
        help="pinned baseline record JSON (or another ledger JSONL)",
    )
    runs_diff.set_defaults(handler=cmd_runs_diff)

    runs_check = runs_sub.add_parser(
        "check", help="regression-gate a run against a pinned baseline"
    )
    _add_runs_common(runs_check)
    runs_check.add_argument(
        "--baseline", required=True, metavar="PATH",
        help="pinned baseline record JSON (or another ledger JSONL)",
    )
    runs_check.add_argument(
        "--max-wall-ratio", type=float, default=10.0,
        help="fail if wall seconds exceed this multiple of the baseline",
    )
    runs_check.add_argument(
        "--max-invocation-ratio", type=float, default=1.0,
        help="fail if model invocations exceed this multiple of the "
             "baseline (profiling is seed-deterministic, so 1.0 is safe)",
    )
    runs_check.add_argument(
        "--min-cache-hit-ratio", type=float, default=None,
        help="absolute cache hit-ratio floor (default: baseline - 0.02)",
    )
    runs_check.add_argument(
        "--max-bound-ratio", type=float, default=1.001,
        help="fail if the max bound width exceeds this multiple of the "
             "baseline",
    )
    runs_check.add_argument(
        "--min-sentinel-recall", type=float, default=None,
        help="absolute floor on chaos-run sentinel recall "
             "(default: the baseline's recall)",
    )
    runs_check.add_argument(
        "--max-sentinel-fpr", type=float, default=None,
        help="absolute ceiling on chaos-run sentinel false-positive "
             "rate (default: the baseline's FPR)",
    )
    runs_check.add_argument(
        "--max-executor-fallbacks", type=float, default=None,
        help="absolute ceiling on executor serial fallbacks "
             "(default: the baseline's count)",
    )
    runs_check.add_argument(
        "--min-serve-speedup", type=float, default=None,
        help="absolute floor on the serve benchmark's warm-daemon "
             "speedup over a cold CLI run (default: not checked — both "
             "sides are machine-dependent wall times)",
    )
    runs_check.add_argument(
        "--min-serve-coalescing", type=float, default=None,
        help="absolute floor on the serve benchmark's requests-per-"
             "kernel-call coalescing ratio (default: not checked)",
    )
    runs_check.add_argument(
        "--min-stream-fps", type=float, default=None,
        help="absolute floor on the stream replay's steady-state ingest "
             "throughput, frames/second (default: not checked — wall "
             "times are machine-dependent)",
    )
    runs_check.add_argument(
        "--max-p99-latency", type=float, default=None,
        help="absolute ceiling, in seconds, on the serve benchmark's "
             "warm p99 request latency (default: not checked — tail "
             "latency is machine-dependent)",
    )
    runs_check.set_defaults(handler=cmd_runs_check)

    runs_pin = runs_sub.add_parser(
        "pin", help="write a run record out as the pinned baseline"
    )
    _add_runs_common(runs_pin)
    runs_pin.add_argument(
        "--output", required=True, metavar="PATH",
        help="baseline JSON file to write",
    )
    runs_pin.set_defaults(handler=cmd_runs_pin)

    trace = subparsers.add_parser(
        "trace", help="inspect a running daemon's distributed traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def _add_trace_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--host", default="127.0.0.1", help="daemon host")
        sub.add_argument(
            "--port", type=int, default=8177, help="daemon port"
        )
        sub.add_argument(
            "--timeout", type=float, default=30.0,
            help="daemon call timeout, seconds",
        )

    trace_list = trace_sub.add_parser(
        "list", help="list recent traces in the daemon's ring buffer"
    )
    _add_trace_common(trace_list)
    trace_list.set_defaults(handler=cmd_trace_list)

    trace_show = trace_sub.add_parser(
        "show", help="print every span of one trace"
    )
    _add_trace_common(trace_show)
    trace_show.add_argument(
        "trace_id", help="trace id (or unique id prefix)"
    )
    trace_show.set_defaults(handler=cmd_trace_show)

    trace_export = trace_sub.add_parser(
        "export", help="export one trace as Chrome tracing JSON"
    )
    _add_trace_common(trace_export)
    trace_export.add_argument(
        "trace_id", help="trace id (or unique id prefix)"
    )
    trace_export.add_argument(
        "--output", default="trace.json", metavar="PATH",
        help="chrome://tracing JSON file to write",
    )
    trace_export.set_defaults(handler=cmd_trace_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    Args:
        argv: Argument list; defaults to ``sys.argv[1:]``.

    Returns:
        Process exit code.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    telemetry.setup_logging(
        level=getattr(args, "log_level", "warning"),
        fmt=getattr(args, "log_format", "human"),
    )
    snapshot_path = getattr(args, "telemetry", None)
    trace_path = getattr(args, "trace", None)
    prometheus_path = getattr(args, "prometheus", None)
    collect = bool(snapshot_path or trace_path or prometheus_path)
    registry = telemetry.enable() if collect else None
    # Every working subcommand records a ledger run (the ``runs``
    # inspection commands do not run anything worth recording). The run
    # handle exists even without --run-ledger: its id also keys the
    # snapshot temporary files so concurrent runs never collide.
    run = None
    if args.command not in ("runs", "trace"):
        config = {
            key: value
            for key, value in vars(args).items()
            if key not in (
                "handler", "command", "runs_command", "telemetry",
                "trace", "prometheus", "run_ledger", "log_level",
                "log_format",
            )
        }
        run = observe.begin_run(
            args.command, config, getattr(args, "run_ledger", None)
        )
    # ``--cache-dir`` handlers install the process-global detector cache;
    # an in-process caller (tests, notebooks) must not inherit it after
    # main() returns, so restore the no-cache state unless the caller had
    # activated one itself.
    entry_cache = diskcache.active_cache()
    handler: Callable[[argparse.Namespace], int] = args.handler
    exit_code = 1
    try:
        with telemetry.span(f"cli.{args.command}"):
            exit_code = handler(args)
        return exit_code
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if entry_cache is None and diskcache.active_cache() is not None:
            diskcache.deactivate()
        snapshot = registry.snapshot() if registry is not None else None
        if run is not None:
            observe.finish_run(
                status="ok" if exit_code == 0 else "error",
                exit_code=exit_code,
                snapshot=snapshot,
            )
        if registry is not None:
            run_id = run.run_id if run is not None else observe.new_run_id()
            if snapshot_path:
                _write_telemetry_snapshot(snapshot, snapshot_path, run_id)
            if trace_path:
                observe.export_chrome_trace(snapshot, trace_path)
                print(f"chrome trace written to {trace_path}")
            if prometheus_path:
                observe.export_prometheus(snapshot, prometheus_path)
                print(f"prometheus metrics written to {prometheus_path}")
            telemetry.disable()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
