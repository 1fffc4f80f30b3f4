"""One run of one workload: measure, check against the oracle, derive metrics.

An untraced run (``trace=False``) yields the end-to-end metrics.  A
traced run (``trace=True``) measures the workload untraced for half of
``seconds`` and then with the layer wrappers installed for the other
half; it yields the per-layer metrics, the share of statement time no
layer covers, and the tracing overhead (traced minus untraced p50).

Every wall-clock end-to-end metric is host-normalised (see
:mod:`perfbench.hostspeed`); the raw wall-clock figures go into the
run's record under ``details["wall"]``.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import spans as sp
from perfbench import workloads as wl
from repro.serve.admission import SHED_REASONS

Metrics = Dict[str, Tuple[float, str]]

#: End-to-end metrics, in the order they are printed.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("qps", "1/s"),
    ("write_p50_ms", "ms"),
    ("blocks_per_query", "blocks"),
    ("rows_scanned_per_query", "rows"),
    ("model_ms_per_query", "ms"),
    ("cache_mb", "MiB"),
    ("peak_rss_mb", "MiB"),
)

#: Per-layer metrics that are not a span's per-statement self time.
LAYER_EXTRAS: Tuple[Tuple[str, str], ...] = (
    ("core.hit_ratio", "ratio"),
    ("core.evictions_per_query", "count"),
    ("core.entries", "count"),
    ("reuse.serve_ratio", "ratio"),
    ("reuse.recheck_ratio", "ratio"),
    ("rowrange.to_row_ids_per_slice", "count"),
    ("predicates.rows_evaluated_per_query", "rows"),
    ("storage.read_block_calls_per_query", "count"),
    ("storage.local_hit_ratio", "ratio"),
    ("storage.remote_fetches_per_query", "blocks"),
    ("storage.pruned_block_ratio", "ratio"),
    ("engine.bloom_pass_ratio", "ratio"),
    ("engine.unattributed_share", "ratio"),
    ("engine.catchall_share", "ratio"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.lock_wait_read_ms", "ms"),
    ("serve.lock_wait_write_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.busy_ratio", "ratio"),
    ("serve.admission_us", "us"),
    ("serve.queue_depth_max", "count"),
) + tuple((f"serve.rejections_{reason}", "count") for reason in SHED_REASONS) + (
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
)

#: Every per-layer metric, in the order they are printed.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple((f"{name}_ms", "ms") for name in sp.TIMED_LAYERS) + LAYER_EXTRAS
)

WORKLOADS = ("dashboard", "drilldown", "served-ingest")


@dataclass
class Outcome:
    """Everything one run reports."""

    metrics: Metrics
    attempted: int
    failed: int
    mismatches: List[str]
    params: Dict[str, object]
    notes: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.mismatches


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_CLEAR_REFS = Path("/proc/self/clear_refs")
_STATUS = Path("/proc/self/status")


def reset_peak_rss() -> bool:
    """Restart the process's peak-RSS mark at its current RSS.

    Called after set-up, so ``peak_rss_mb`` covers the timed phase only.
    Returns False where Linux's ``clear_refs`` is not available; the peak
    then also covers set-up.
    """
    gc.collect()
    try:
        _CLEAR_REFS.write_text("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """Peak RSS since the last :func:`reset_peak_rss` (or process start)."""
    try:
        for line in _STATUS.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_RSS_NOTE = "peak RSS mark could not be reset: peak_rss_mb includes set-up"

#: A validity note is printed when the two catch-all spans
#: (``engine.scan_self``, ``engine.operator``) hold more than this share
#: of statement time: work below them that no wrapper names is growing.
CATCHALL_LIMIT = 0.35


def _wall_figures(
    setup: wl.Setup, records: Sequence[wl.Record], seconds: float
) -> Dict[str, float]:
    """The run's raw wall-clock figures, kept in the record beside the metrics."""
    latencies = [r.latency for r in records]
    return {
        "setup_s": statistics.median(setup.seconds),
        "query_p50_ms": wl.percentile_ms(latencies, 50),
        "query_p99_ms": wl.percentile_ms(latencies, 99),
        "statements_per_s": len(records) / seconds,
        "host_scale_median": float(np.median([r.scale for r in records])),
    }


def _paper_counts(records: Sequence[wl.Record]) -> Metrics:
    n = max(1, len(records))
    return {
        "blocks_per_query": (sum(r.blocks for r in records) / n, "blocks"),
        "rows_scanned_per_query": (sum(r.rows_scanned for r in records) / n, "rows"),
        "model_ms_per_query": (
            sum(r.model_seconds for r in records) * 1000.0 / n,
            "ms",
        ),
    }


def _base_params(
    workload: str, seed: int, seconds: float, trace: bool
) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale_factor": wl.SCALE_FACTOR,
        "lineorder_rows": int(6_000_000 * wl.SCALE_FACTOR),
        "cache_bytes": wl.CACHE_BYTES,
        "cache_variant": "range",
        "reuse": True,
        "scan_workers": 0,
        "setup_repeats": wl.SETUP_REPEATS,
    }


# -- layer metrics ---------------------------------------------------------------------


@dataclass
class Snapshots:
    """Cache and storage counters around the traced phase."""

    cache: object
    reuse: object
    storage: object

    @classmethod
    def take(cls, engine) -> "Snapshots":
        cache = engine.predicate_cache
        return cls(
            cache.stats.snapshot(),
            cache.reuse_stats.snapshot(),
            engine.database.rms.stats.snapshot(),
        )


def layer_metrics(
    recorder: sp.Recorder,
    engine,
    before: Snapshots,
    records: Sequence[wl.Record],
) -> Metrics:
    """Per-layer metrics of one traced phase (serving fields left at zero)."""
    spans = recorder.spans()
    names = recorder.names
    counts = recorder.counts()
    by_name = sp.self_time_by_name(spans, names)
    statement_times = sp.durations(spans, names, sp.STATEMENT)
    n = max(1, len(statement_times))
    total = float(np.sum(statement_times))
    after = Snapshots.take(engine)
    cache_delta = after.cache.delta(before.cache)
    reuse_delta = after.reuse.delta(before.reuse)
    storage_delta = after.storage.delta(before.storage)
    rows_per_block = engine.database.rows_per_block
    pruned_blocks = counts["storage.pruned_rows"] / rows_per_block
    accessed = sum(r.blocks for r in records)
    out: Metrics = {
        f"{name}_ms": (by_name.get(name, 0.0) * 1000.0 / n, "ms")
        for name in sp.TIMED_LAYERS
    }
    out.update(
        {
            "core.hit_ratio": (_ratio(cache_delta.hits, cache_delta.lookups), "ratio"),
            "core.evictions_per_query": (cache_delta.evictions / n, "count"),
            "core.entries": (float(len(engine.predicate_cache)), "count"),
            "reuse.serve_ratio": (
                _ratio(reuse_delta.serves, cache_delta.misses),
                "ratio",
            ),
            "reuse.recheck_ratio": (
                _ratio(
                    reuse_delta.recheck_rows,
                    reuse_delta.recheck_rows + reuse_delta.skipped_rows,
                ),
                "ratio",
            ),
            "rowrange.to_row_ids_per_slice": (
                _ratio(
                    len(sp.durations(spans, names, "rowrange.to_row_ids")),
                    counts["engine.slice_scans"],
                ),
                "count",
            ),
            "predicates.rows_evaluated_per_query": (
                counts["predicates.rows"] / n,
                "rows",
            ),
            "storage.read_block_calls_per_query": (
                len(sp.durations(spans, names, "storage.read_block")) / n,
                "count",
            ),
            "storage.local_hit_ratio": (
                _ratio(
                    storage_delta.local_hits,
                    storage_delta.local_hits + storage_delta.remote_fetches,
                ),
                "ratio",
            ),
            "storage.remote_fetches_per_query": (
                storage_delta.remote_fetches / n,
                "blocks",
            ),
            "storage.pruned_block_ratio": (
                _ratio(pruned_blocks, pruned_blocks + accessed),
                "ratio",
            ),
            "engine.bloom_pass_ratio": (
                _ratio(
                    sum(r.bloom_positives for r in records),
                    sum(r.bloom_probes for r in records),
                ),
                "ratio",
            ),
            "engine.unattributed_share": (
                _ratio(by_name.get(sp.STATEMENT, 0.0), total),
                "ratio",
            ),
            "engine.catchall_share": (
                _ratio(sum(by_name.get(name, 0.0) for name in sp.CATCHALL), total),
                "ratio",
            ),
        }
    )
    for name, unit in LAYER_EXTRAS:
        out.setdefault(name, (0.0, unit))
    return out


def coverage_notes(metrics: Metrics) -> List[str]:
    share = metrics["engine.catchall_share"][0]
    if share <= CATCHALL_LIMIT:
        return []
    return [
        f"engine.scan_self and engine.operator hold {share:.2f} of statement "
        f"time (limit {CATCHALL_LIMIT}): unnamed work below them has grown"
    ]


def _overhead(out: Metrics, plain_p50_ms: float, traced_p50_ms: float) -> None:
    overhead = traced_p50_ms - plain_p50_ms
    out["trace.overhead_ms"] = (overhead, "ms")
    out["trace.overhead_share"] = (_ratio(overhead, plain_p50_ms), "ratio")


# -- closed loops ----------------------------------------------------------------------


def run_closed(
    workload: str, seed: int, seconds: float, trace: bool, out_dir: Optional[Path]
) -> Outcome:
    setup = wl.set_up(workload, seed)
    engine, database = setup.engine, setup.database
    if workload == "dashboard":
        stream = wl.dashboard_stream(seed)
    else:
        stream = wl.drilldown_stream(seed)
    window = wl.COUNT_WINDOW[workload]
    writes = wl.WriteStream(seed, 5, 0, table=wl.PROBE_TABLE)
    params = _base_params(workload, seed, seconds, trace)
    params.update(
        {
            "loop": "closed, one client",
            "block_cache": (
                wl.DRILLDOWN_BLOCK_CACHE if workload == "drilldown" else None
            ),
            "count_window": window,
            "write_every": wl.WRITE_EVERY,
            "write_table": wl.PROBE_TABLE,
        }
    )
    notes: List[str] = []
    if not trace:
        if not reset_peak_rss():
            notes.append(_RSS_NOTE)
        loop = wl.closed_loop(engine, stream, writes, workload, seconds, window)
        peak_mb = peak_rss_mb()
        records = loop.records
        mismatches = _check(database, records)
        latencies = [r.normalised for r in records]
        qps = len(records) / loop.normalised_seconds
        metrics: Metrics = {
            "setup_s": (statistics.median(setup.normalised), "s"),
            "query_p50_ms": (wl.percentile_ms(latencies, 50), "ms"),
            "query_p99_ms": (wl.percentile_ms(latencies, 99), "ms"),
            "qps": (qps, "1/s"),
            "write_p50_ms": (wl.percentile_ms(loop.writes, 50), "ms"),
            "cache_mb": (loop.window_cache_bytes / 2**20, "MiB"),
        }
        metrics.update(_paper_counts(records[:window]))
        metrics["peak_rss_mb"] = (peak_mb, "MiB")
        if len(records) < 1000:
            notes.append(_FEW.format(len(records)))
        return Outcome(
            metrics, len(records) + len(loop.writes), 0, mismatches, params, notes,
            {
                "statements": len(records),
                "wall": _wall_figures(setup, records, loop.seconds),
            },
        )
    plain = wl.closed_loop(engine, stream, writes, workload, seconds / 2, 0)
    recorder = sp.Recorder()
    before = Snapshots.take(engine)
    sp.install_layer_wrappers(recorder)
    try:
        traced = wl.closed_loop(engine, stream, writes, workload, seconds / 2, 0)
    finally:
        recorder.uninstall()
    metrics = layer_metrics(recorder, engine, before, traced.records)
    notes.extend(coverage_notes(metrics))
    _overhead(
        metrics,
        wl.percentile_ms([r.normalised for r in plain.records], 50),
        wl.percentile_ms([r.normalised for r in traced.records], 50),
    )
    records = plain.records + traced.records
    mismatches = _check(database, records)
    if out_dir is not None:
        path = out_dir / f"spans-{workload}.tsv"
        sp.write_spans(recorder.spans(), recorder.names, path)
    attempted = len(records) + len(plain.writes) + len(traced.writes)
    return Outcome(
        metrics, attempted, 0, mismatches, params, notes,
        {
            "plain_statements": len(plain.records),
            "traced_statements": len(traced.records),
        },
    )


# -- served-ingest ---------------------------------------------------------------------


def _check(database, records: Sequence[wl.Record]) -> List[str]:
    return wl.oracle_mismatches(database, [(r.sql, r.digest) for r in records])


_FEW = "only {} timed statements: p99 has < 10 beyond it"


def _served_records(phase: wl.ServedPhase) -> List[wl.Record]:
    """One record per request; a failed one counts as waiting the whole phase."""
    records = []
    rows = zip(
        phase.kinds, phase.statements, phase.latencies, phase.responses, phase.scales
    )
    for kind, sql, latency, response, scale in rows:
        if not response.ok:
            latency = phase.seconds
        record = wl.Record(sql, kind, latency, ok=response.ok, scale=scale)
        if response.ok and kind not in wl.WRITE_KINDS:
            wl.with_counters(record, response.result)
        records.append(record)
    return records


def run_served(
    seed: int, seconds: float, trace: bool, out_dir: Optional[Path]
) -> Outcome:
    workload = "served-ingest"
    setup = wl.set_up(workload, seed)
    workers = os.cpu_count() or 1
    served = wl.Served(setup.engine, seed, workers)
    params = _base_params(workload, seed, seconds, trace)
    params.update(
        {
            "loop": f"closed, {workers} clients through QueryServer",
            "block_cache": None,
            "workers": workers,
            "mix": dict(wl.MIX),
            "insert_rows": wl.INSERT_ROWS,
        }
    )
    notes: List[str] = []
    try:
        if not trace:
            if not reset_peak_rss():
                notes.append(_RSS_NOTE)
            phase = served.run(seconds)
            peak_mb = peak_rss_mb()
            cache_bytes = setup.engine.predicate_cache.total_nbytes
        else:
            plain = served.run(seconds / 2)
            recorder = sp.Recorder()
            before = Snapshots.take(setup.engine)
            sp.install_layer_wrappers(recorder)
            try:
                phase = served.run(seconds / 2)
            finally:
                recorder.uninstall()
        mismatches = served.final_check()
    finally:
        served.close()
    records = _served_records(phase)
    reads = [r for r in records if r.kind not in wl.WRITE_KINDS and r.ok]
    writes = [r for r in records if r.kind in wl.WRITE_KINDS and r.ok]
    latencies = [r.normalised for r in records]
    failed = phase.failures()
    details: Dict[str, object] = {"statements": len(records)}
    if not trace:
        details["wall"] = _wall_figures(setup, records, phase.seconds)
        qps = (len(records) - failed) / phase.normalised_seconds
        metrics: Metrics = {
            "setup_s": (statistics.median(setup.normalised), "s"),
            "query_p50_ms": (wl.percentile_ms(latencies, 50), "ms"),
            "query_p99_ms": (wl.percentile_ms(latencies, 99), "ms"),
            "qps": (qps, "1/s"),
            "write_p50_ms": (
                wl.percentile_ms([r.normalised for r in writes], 50),
                "ms",
            ),
            "cache_mb": (cache_bytes / 2**20, "MiB"),
        }
        metrics.update(_paper_counts(reads))
        metrics["peak_rss_mb"] = (peak_mb, "MiB")
        if len(records) < 1000:
            notes.append(_FEW.format(len(records)))
        return Outcome(
            metrics, len(records), failed, mismatches, params, notes, details
        )
    metrics = layer_metrics(recorder, setup.engine, before, reads)
    notes.extend(coverage_notes(metrics))
    spans, names = recorder.spans(), recorder.names
    statements = sp.durations(spans, names, sp.STATEMENT)
    queued = [r.queued_seconds for r in phase.responses if r.ok]
    metrics.update(
        {
            "serve.queue_wait_p50_ms": (wl.percentile_ms(queued, 50), "ms"),
            "serve.queue_wait_p99_ms": (wl.percentile_ms(queued, 99), "ms"),
            "serve.lock_wait_read_ms": (
                _mean_ms(sp.durations(spans, names, "serve.lock_wait_read")),
                "ms",
            ),
            "serve.lock_wait_write_ms": (
                _mean_ms(sp.durations(spans, names, "serve.lock_wait_write")),
                "ms",
            ),
            "serve.execute_ms": (_mean_ms(statements), "ms"),
            "serve.busy_ratio": (
                float(np.sum(statements)) / (phase.seconds * workers),
                "ratio",
            ),
            "serve.admission_us": (
                _mean_ms(sp.durations(spans, names, "serve.admission")) * 1000.0,
                "us",
            ),
            "serve.queue_depth_max": (
                float(max(phase.queue_depths, default=0)),
                "count",
            ),
        }
    )
    for reason in SHED_REASONS:
        shed = sum(1 for r in phase.responses if r.shed_reason == reason)
        metrics[f"serve.rejections_{reason}"] = (float(shed), "count")
    _overhead(
        metrics,
        wl.percentile_ms([r.normalised for r in _served_records(plain)], 50),
        wl.percentile_ms(latencies, 50),
    )
    if out_dir is not None:
        sp.write_spans(spans, names, out_dir / f"spans-{workload}.tsv")
    return Outcome(
        metrics,
        len(records) + len(plain.responses),
        failed + plain.failures(),
        mismatches,
        params,
        notes,
        details,
    )


def _mean_ms(durations: np.ndarray) -> float:
    return float(np.mean(durations)) * 1000.0 if len(durations) else 0.0


def run(
    workload: str, seed: int, seconds: float, trace: bool, out_dir: Optional[Path]
) -> Outcome:
    if workload == "served-ingest":
        return run_served(seed, seconds, trace, out_dir)
    if workload in ("dashboard", "drilldown"):
        return run_closed(workload, seed, seconds, trace, out_dir)
    raise ValueError(f"unknown workload {workload!r}")
