"""The traced layers and the per-layer metrics computed from their spans.

Each span name is the ``repro`` module (minus the ``repro.`` prefix) plus
the callable, so every per-layer metric points at the module a change
would touch. All ``*_s`` metrics are seconds per operation (per profile
job or per serve request) inside the traced measurement window; unless a
metric says "inclusive", it is self time (the span minus its traced
children), so the layer seconds of one operation add up to its covered
time.
"""

from __future__ import annotations

from tracer import END, EXTRA, NAME, PARENT, START, Layer, self_times


def _prefix_build_note(args, kwargs):
    matrix = args[1] if len(args) > 1 else kwargs["matrix"]
    shape = getattr(matrix, "shape", None) or (1, len(matrix))
    size = 1
    for dim in shape:
        size *= int(dim)
    return [id(args[0]), size, int(shape[-1])]


def _prefix_read_note(args, kwargs):
    n = args[1] if len(args) > 1 else kwargs.get("n")
    return [id(args[0]), int(n)]


def _group_note(args, kwargs):
    requests = args[1] if len(args) > 1 else kwargs["requests"]
    return [id(r) for r in requests]


def _map_note(args, kwargs):
    payloads = args[2] if len(args) > 2 else kwargs.get("payloads")
    return len(payloads) if hasattr(payloads, "__len__") else 0


def _submit_note(args, kwargs):
    return id(args[1] if len(args) > 1 else kwargs["request"])


class _DetectorPasses:
    """Marks each detector ``run`` as a first pass or a reuse.

    A pass is first when this process has not run the same detector on
    the same corpus, resolution and quality before: it evaluates the model
    or loads the outputs from disk. Later runs are served from memory.
    Set-up time only; model evaluations are counted by the library.
    """

    def __init__(self) -> None:
        self._seen: set[tuple] = set()

    def __call__(self, args, kwargs):
        model, dataset = args[0], args[1]
        resolution = args[2] if len(args) > 2 else kwargs.get("resolution")
        quality = args[3] if len(args) > 3 else kwargs.get("quality", 1.0)
        side = (resolution or dataset.native_resolution).side
        key = (id(model), dataset.cache_key, side, round(float(quality), 9))
        if key in self._seen:
            return 0
        self._seen.add(key)
        return 1


_PREFIX = "repro.stats.prefix_moments:PrefixMoments."
_READS = ("mean", "second_moment", "variance", "std", "minimum", "maximum",
          "value_range", "prefix_mean_matrix", "prefix_variance_matrix")


def detector_layer() -> Layer:
    """The detector-pass layer, installed before set-up so the passes the
    set-up pays are known when the timed loop starts."""
    return Layer("detection.run", "repro.detection.simulated:SimulatedDetector.run",
                 note=_DetectorPasses())


def all_layers() -> list[Layer]:
    """Every traced callable; one table serves all workloads."""
    layers = [
        # Profiling.
        Layer("core.profiler", "repro.core.profiler:DegradationProfiler."
              "generate_hypercube_seeded", root=True),
        Layer("core.profiler", "repro.core.profiler:DegradationProfiler."
              "sweep_fractions_seeded"),
        Layer("core.correction.build",
              "repro.core.correction:determine_correction_set", root=True),
        Layer("system.executor.map", "repro.system.executor:ParallelExecutor.map",
              note=_map_note),
        Layer("system.executor.unit", "repro.system.executor:run_sweep_unit"),
        Layer("system.executor.child_rng", "repro.system.executor:child_rng"),
        Layer("system.executor.prewarm",
              "repro.system.executor:ParallelExecutor.prewarm", root=True),
        Layer("system.shm.publish", "repro.system.shm:publish_dataset"),
        Layer("stats.sampling.sampler_init",
              "repro.stats.sampling:ProgressiveSampler.__init__"),
        Layer("stats.prefix_moments.build", _PREFIX + "__init__",
              note=_prefix_build_note),
        *[Layer("stats.prefix_moments.read", _PREFIX + name,
                note=_prefix_read_note, timed=False) for name in _READS],
        Layer("estimators.smokescreen.batch",
              "repro.estimators.smokescreen:SmokescreenMeanEstimator.estimate_batch"),
        Layer("estimators.quantile.estimate",
              "repro.estimators.quantile:SmokescreenQuantileEstimator.estimate"),
        *[Layer("estimators.repair.correction",
                "repro.estimators.repair:ProfileRepair." + name)
          for name in ("corrected_mean_bound", "corrected_mean_bound_batch",
                       "corrected_quantile_bound")],
        Layer("query.processor.frame_values",
              "repro.query.processor:QueryProcessor.frame_values"),
        Layer("query.processor.values_for_sample",
              "repro.query.processor:QueryProcessor.values_for_sample"),
        Layer("video.corpus_build", "repro.experiments.workloads:load_dataset"),
        # Serving: the handler entry points are the coverage roots.
        Layer("system.serve.warmup", "repro.system.serve:ServeSession.warmup",
              root=True),
        Layer("system.serve.admit", "repro.system.serve:MicroBatcher.admit",
              root=True),
        Layer("system.serve.parse", "repro.system.serve:QueryRequest.from_payload",
              root=True),
        Layer("system.serve.submit", "repro.system.serve:MicroBatcher.submit",
              root=True, note=_submit_note),
        Layer("system.serve.estimate_group",
              "repro.system.serve:ServeSession.estimate_group", note=_group_note),
        Layer("system.serve.profile_request",
              "repro.system.serve:ServeSession.profile_request", root=True),
        Layer("system.serve.choose_request",
              "repro.system.serve:ServeSession.choose_request", root=True),
        Layer("system.serve.stream_open",
              "repro.system.serve:ServeSession.stream_open", root=True),
        Layer("system.serve.stream_ingest",
              "repro.system.serve:ServeSession.stream_ingest", root=True),
        Layer("estimators.sentinel.extend",
              "repro.estimators.sentinel:BoundSentinel.extend"),
        Layer("interventions.plan.draw",
              "repro.interventions.plan:InterventionPlan.draw"),
        Layer("estimators.dispatch.estimate_rows",
              "repro.estimators.dispatch:estimate_rows"),
    ]
    return layers


#: Per-layer metrics: name -> (unit, definition). Set-up metrics come from
#: the set-up phase; ``detection.model_invocations`` from the library's
#: ``detector.evaluations`` counter; ``loadgen.*`` and ``system.serve.{
#: rejected,errors_5xx,outside_s,profile_cache_hit_ratio}`` from the load
#: generator; the rest from spans. Every workload reports every metric
#: (0 where the layer is not on its path).
PER_LAYER: dict[str, tuple[str, str]] = {
    "setup.import_s": ("s", "import of the repro package (and CLI for serve)"),
    "video.corpus_build_s": ("s", "corpus generation during set-up"),
    "detection.cold_pass_s": ("s", "new detector passes during set-up"),
    "detection.model_invocations": (
        "count", "detector model evaluations inside the traced timed window, "
                 "pool workers included"),
    "system.executor.pool_spawn_s": ("s", "worker-pool prewarm during set-up"),
    "system.serve.warmup_s": ("s", "ServeSession.warmup during set-up"),
    "system.executor.child_rng_s": ("s", "self time of child_rng per op"),
    "system.executor.child_rng_calls": ("count", "child_rng calls per op"),
    "stats.sampling.sampler_init_s": (
        "s", "self time of ProgressiveSampler construction per op"),
    "stats.sampling.samplers": ("count", "ProgressiveSampler objects per op"),
    "stats.prefix_moments.build_s": (
        "s", "self time of PrefixMoments construction per op"),
    "stats.prefix_moments.elements": (
        "count", "matrix elements PrefixMoments accumulated per op"),
    "stats.prefix_moments.read_ratio": (
        "ratio", "distinct prefix lengths read / prefix lengths computed"),
    "estimators.smokescreen.batch_s": (
        "s", "self time of SmokescreenMeanEstimator.estimate_batch per op"),
    "query.processor.frame_values_s": (
        "s", "self time of QueryProcessor.frame_values per op"),
    "core.profiler.self_s": (
        "s", "self time of the hypercube and sweep methods per op"),
    "estimators.quantile.estimate_s": (
        "s", "self time of SmokescreenQuantileEstimator.estimate per op"),
    "estimators.quantile.calls": ("count", "scalar quantile estimates per op"),
    "estimators.repair.correction_s": (
        "s", "self time of the Eq. 12/13 corrected-bound methods per op"),
    "core.correction.build_s": (
        "s", "self time of determine_correction_set per op"),
    "system.executor.map_s": (
        "s", "inclusive time of ParallelExecutor.map per op"),
    "system.executor.wait_s": (
        "s", "self time of ParallelExecutor.map per op: dispatch and "
             "waiting on pool workers"),
    "system.executor.parallel_share": (
        "ratio", "share of map work units run outside the calling process"),
    "system.shm.publish_s": ("s", "self time of shm.publish_dataset per op"),
    "system.serve.linger_wait_s": (
        "s", "batched request: submit time not spent in its estimate_group, "
             "per batched request"),
    "system.serve.estimate_group_s": (
        "s", "self time of ServeSession.estimate_group per request"),
    "interventions.plan.draw_s": ("s", "self time of InterventionPlan.draw per op"),
    "query.processor.values_for_sample_s": (
        "s", "self time of QueryProcessor.values_for_sample per op"),
    "estimators.dispatch.estimate_rows_s": (
        "s", "self time of estimate_rows per op"),
    "system.serve.outside_s": (
        "s", "client-seen service time not covered by handler spans, per "
             "request: framing, routing, tracing, encode"),
    "system.serve.stream_ingest_s": (
        "s", "self time of ServeSession.stream_ingest per request"),
    "estimators.sentinel.extend_s": ("s", "self time of BoundSentinel.extend per op"),
    "system.serve.requests_per_kernel": (
        "ratio", "requests per estimate_group call"),
    "system.serve.profile_request_s": (
        "s", "inclusive time of ServeSession.profile_request per request"),
    "system.serve.profile_cache_hit_ratio": (
        "ratio", "profile/choose answers served from the cube cache"),
    "system.serve.rejected": ("count", "HTTP 429 answers in the traced window"),
    "system.serve.errors_5xx": ("count", "HTTP 5xx answers in the traced window"),
    "loadgen.lateness_p99_s": (
        "s", "p99 of send time minus due time (open loop only)"),
    "loadgen.in_flight_max": ("count", "most requests in flight at once"),
    "trace.coverage": (
        "ratio", "operation wall time covered by parentless root-layer spans"),
    "trace.overhead_ratio": ("ratio", "traced op_p50_s / untraced op_p50_s"),
}

SETUP_METRICS = ("setup.import_s", "video.corpus_build_s", "detection.cold_pass_s",
                 "system.executor.pool_spawn_s", "system.serve.warmup_s")

_SELF_METRICS = {
    "system.executor.child_rng_s": "system.executor.child_rng",
    "stats.sampling.sampler_init_s": "stats.sampling.sampler_init",
    "stats.prefix_moments.build_s": "stats.prefix_moments.build",
    "estimators.smokescreen.batch_s": "estimators.smokescreen.batch",
    "query.processor.frame_values_s": "query.processor.frame_values",
    "core.profiler.self_s": "core.profiler",
    "estimators.quantile.estimate_s": "estimators.quantile.estimate",
    "estimators.repair.correction_s": "estimators.repair.correction",
    "core.correction.build_s": "core.correction.build",
    "system.executor.wait_s": "system.executor.map",
    "system.shm.publish_s": "system.shm.publish",
    "system.serve.estimate_group_s": "system.serve.estimate_group",
    "interventions.plan.draw_s": "interventions.plan.draw",
    "query.processor.values_for_sample_s": "query.processor.values_for_sample",
    "estimators.dispatch.estimate_rows_s": "estimators.dispatch.estimate_rows",
    "system.serve.stream_ingest_s": "system.serve.stream_ingest",
    "estimators.sentinel.extend_s": "estimators.sentinel.extend",
}

_CALL_COUNTS = {
    "system.executor.child_rng_calls": "system.executor.child_rng",
    "stats.sampling.samplers": "stats.sampling.sampler_init",
    "estimators.quantile.calls": "estimators.quantile.estimate",
}


def setup_from_spans(spans: list[list], ready: float) -> dict[str, float]:
    """Set-up split of a traced process from the spans it recorded before
    it reported ready (the daemon's set-up runs inside the library)."""
    own = self_times(spans)
    totals = {name: 0.0 for name in SETUP_METRICS}
    for span, self_s in zip(spans, own):
        if span[START] > ready:
            continue
        if span[NAME] == "video.corpus_build":
            totals["video.corpus_build_s"] += self_s
        elif span[NAME] == "detection.run" and span[EXTRA]:
            totals["detection.cold_pass_s"] += self_s
        elif span[NAME] == "system.serve.warmup":
            totals["system.serve.warmup_s"] += span[END] - span[START]
        elif span[NAME] == "system.executor.prewarm":
            totals["system.executor.pool_spawn_s"] += span[END] - span[START]
    return totals


def window_metrics(spans: list[list], t0: float, t1: float, ops: int) -> dict:
    """Span-derived per-layer metrics over spans that start in ``[t0, t1]``.

    Returns a dict of metric name -> value, plus ``covered_s``: the summed
    duration of parentless root-layer spans, for ``trace.coverage``.
    """
    roots = {layer.name for layer in all_layers() if layer.root}
    own = self_times(spans)
    self_by: dict[str, float] = {}
    total_by: dict[str, float] = {}
    calls_by: dict[str, int] = {}
    covered = 0.0
    prefix_built: dict[int, int] = {}
    prefix_read: dict[int, set] = {}
    computed = read = elements = 0
    submits: list[tuple[int, float]] = []
    group_of: dict[int, float] = {}
    group_requests = 0
    unit_spans: list[list] = []
    for index, span in enumerate(spans):
        if not t0 <= span[START] <= t1:
            continue
        name = span[NAME]
        duration = span[END] - span[START]
        self_by[name] = self_by.get(name, 0.0) + own[index]
        total_by[name] = total_by.get(name, 0.0) + duration
        calls_by[name] = calls_by.get(name, 0) + 1
        if span[PARENT] < 0 and name in roots:
            covered += duration
        extra = span[EXTRA]
        if name == "stats.prefix_moments.build":
            key, size, width = extra
            if key in prefix_built:  # the id was reused after collection
                read += len(prefix_read.pop(key, ()))
            prefix_built[key] = width
            prefix_read[key] = set()
            computed += width
            elements += size
        elif name == "stats.prefix_moments.read":
            key, n = extra
            if key in prefix_read:
                prefix_read[key].add(n)
        elif name == "system.serve.submit":
            submits.append((extra, duration))
        elif name == "system.serve.estimate_group":
            group_requests += len(extra)
            for request_id in extra:
                group_of[request_id] = duration
        elif name == "system.executor.unit":
            unit_spans.append(span)
    read += sum(len(reads) for reads in prefix_read.values())

    per_op = max(ops, 1)
    out: dict[str, float] = {}
    for metric_name, span_name in _SELF_METRICS.items():
        out[metric_name] = self_by.get(span_name, 0.0) / per_op
    for metric_name, span_name in _CALL_COUNTS.items():
        out[metric_name] = calls_by.get(span_name, 0) / per_op
    out["stats.prefix_moments.elements"] = elements / per_op
    out["stats.prefix_moments.read_ratio"] = read / computed if computed else 0.0
    out["system.executor.map_s"] = total_by.get("system.executor.map", 0.0) / per_op
    # Units the map ran in this process are traced; the rest ran in pool
    # workers. A serial map runs every unit here.
    maps = [s for s in spans if s[NAME] == "system.executor.map"
            and t0 <= s[START] <= t1]
    dispatched = sum(s[EXTRA] or 0 for s in maps)
    local_units = sum(
        1 for s in unit_spans if s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "system.executor.map")
    out["system.executor.parallel_share"] = (
        (dispatched - local_units) / dispatched if dispatched else 0.0)
    lingers = [max(duration - group_of.get(key, 0.0), 0.0)
               for key, duration in submits]
    out["system.serve.linger_wait_s"] = (
        sum(lingers) / len(lingers) if lingers else 0.0)
    groups = calls_by.get("system.serve.estimate_group", 0)
    out["system.serve.requests_per_kernel"] = (
        group_requests / groups if groups else 0.0)
    out["system.serve.profile_request_s"] = (
        total_by.get("system.serve.profile_request", 0.0) / per_op)
    out["covered_s"] = covered
    return out
