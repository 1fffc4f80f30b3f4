"""The three benchmark workloads over the SSB star schema.

Everything here is seeded from the run's ``--seed``: the SSB data, the
order in which the dashboard cycles its queries, the drill-down
sessions' literals, the served clients' statement mix and the write
statements.  The engine only ever sees the generated SQL and rows.

Every workload uses one engine configuration (:func:`make_engine`):
range entries, the reuse lattice on, a fixed predicate-cache byte budget
and serial slice scans, so ``REPRO_PARALLEL`` in the environment cannot
change what is measured.  What differs per workload is the traffic and
the size of the decoded-block cache in front of storage.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    Database,
    PredicateCache,
    PredicateCacheConfig,
    QueryEngine,
    QueryServer,
    Request,
    RequestStatus,
)
from repro.workloads import ssb

from perfbench import hostspeed

#: SSB scale: 120,000 ``lineorder`` rows, 1,200 sealed ``lineorder`` blocks.
SCALE_FACTOR = 0.02
#: The predicate cache's byte budget, the same for every workload.  The
#: dashboard's entries fit (about 2 MiB); the drill-down stream's do not.
CACHE_BYTES = 16 * 2**20
#: Decoded-block cache of the drill-down database, in blocks: well below
#: the blocks its scans touch, so most reads decode.
DRILLDOWN_BLOCK_CACHE = 100
#: Set-ups per run; ``setup_s`` is their host-normalised median.
SETUP_REPEATS = 3
#: The closed loops compute the paper's counts over this many first
#: statements, so they repeat exactly at one seed whatever the speed.
COUNT_WINDOW = {"dashboard": 260, "drilldown": 600}
#: A closed loop times one batched append after every this many reads.
#: The appends are a measurement probe, not modelled traffic: the rate is
#: an assumption, dense enough for about 400 samples in a 30 s run while
#: taking under a tenth of the loop's time.
WRITE_EVERY = 4
#: The table those appends go to: ``lineorder``'s schema under another
#: name, so the probe never changes what the reads scan or cache.
PROBE_TABLE = "lineorder_ingest"
#: Rows per batched ``INSERT ... VALUES`` statement (an assumption).
INSERT_ROWS = 50

# -- served-ingest ------------------------------------------------------------------

#: Fleet-wide statement shares of Amazon Redshift from the paper's
#: Table 2 (Sec. 2), the same figures ``repro.workloads.fleet`` is
#: calibrated to.
FLEET_STATEMENTS = {
    "select": 0.423,
    "insert": 0.178,
    "copy": 0.069,
    "delete": 0.063,
    "update": 0.036,
    "other": 0.233,
}
#: Share of SELECTs that repeat an earlier query, fleet-wide (Fig. 4).
FLEET_REPEATING = 0.719


def fleet_mix() -> Tuple[Tuple[str, float], ...]:
    """served-ingest's request shares, derived from the fleet figures.

    "other" (DDL, utility statements) is left out and the rest
    renormalized.  COPY counts as an append, as INSERT does.  Repeating
    SELECTs are dashboard repeats; the rest are ad-hoc drill-downs.
    """
    fleet = FLEET_STATEMENTS
    modelled = sum(share for kind, share in fleet.items() if kind != "other")
    select = fleet["select"] / modelled
    return (
        ("dashboard", select * FLEET_REPEATING),
        ("adhoc", select * (1.0 - FLEET_REPEATING)),
        ("insert", (fleet["insert"] + fleet["copy"]) / modelled),
        ("delete", fleet["delete"] / modelled),
        ("update", fleet["update"] / modelled),
    )


#: Traffic mix of served-ingest (shares of requests): about 40% dashboard,
#: 16% ad-hoc, 32% appends, 8% point deletes, 5% point updates.
MIX: Tuple[Tuple[str, float], ...] = fleet_mix()
WRITE_KINDS = frozenset({"insert", "delete", "update"})
#: Segment length of the served phase (see :mod:`perfbench.hostspeed`):
#: longer than a closed loop's, since every cut waits for the requests
#: in flight.
SERVED_SEGMENT_SECONDS = 0.5

clock = time.perf_counter


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream) pair."""
    return np.random.default_rng([seed, stream])


# -- set-up -------------------------------------------------------------------------


def make_engine(database: Database) -> QueryEngine:
    cache = PredicateCache(
        PredicateCacheConfig(variant="range", enable_reuse=True, max_bytes=CACHE_BYTES)
    )
    return QueryEngine(database, predicate_cache=cache, scan_workers=0)


def build_database(seed: int, block_cache: Optional[int]) -> Database:
    data = ssb.generate(scale_factor=SCALE_FACTOR, seed=seed)
    database = Database(cache_capacity=block_cache)
    for name, schema in ssb.SCHEMAS.items():
        database.create_table(schema).insert(data[name], database.begin())
    database.create_table(replace(ssb.SCHEMAS["lineorder"], name=PROBE_TABLE))
    return database


@dataclass
class Setup:
    database: Database
    engine: QueryEngine
    #: Wall seconds of each set-up.
    seconds: List[float]
    #: The same, host-normalised (see :mod:`perfbench.hostspeed`).
    normalised: List[float]


def set_up(workload: str, seed: int) -> Setup:
    """Generate, load and warm up ``SETUP_REPEATS`` times; keep the last.

    Each set-up is one segment between two reference passes.
    """
    block_cache = DRILLDOWN_BLOCK_CACHE if workload == "drilldown" else None
    speed = hostspeed.Segments()
    for _ in range(SETUP_REPEATS):
        database = engine = None  # let the previous copy go first
        database = build_database(seed, block_cache)
        engine = make_engine(database)
        if workload == "drilldown":
            warm = ssb.drilldown_queries(
                rounds=1, seed=int(rng_for(seed, 99).integers(2**31))
            )
        else:
            warm = list(ssb.queries().values())
        for sql in warm:
            engine.execute(sql)
        speed.cut()
    normalised = (np.asarray(speed.durations) * speed.scales()).tolist()
    return Setup(database, engine, speed.durations, normalised)


# -- statement streams ----------------------------------------------------------------


def dashboard_stream(seed: int) -> Iterator[str]:
    """The 13 SSB queries, each cycle in a fresh seeded order."""
    rng = rng_for(seed, 1)
    texts = [sql for _, sql in sorted(ssb.queries().items())]
    while True:
        for index in rng.permutation(len(texts)):
            yield texts[index]


def drilldown_stream(seed: int, stream: int = 2) -> Iterator[str]:
    """Endless drill-down sessions, fresh literals per session."""
    rng = rng_for(seed, stream)
    while True:
        yield from ssb.drilldown_queries(rounds=1, seed=int(rng.integers(2**31)))


class WriteStream:
    """Seeded DML against ``lineorder``: batched appends and point writes."""

    def __init__(
        self, seed: int, stream: int, num_rows: int, table: str = "lineorder"
    ) -> None:
        self.rng = rng_for(seed, stream)
        self.num_rows = num_rows
        self.table = table
        self.next_key = num_rows + 1

    def statement(self, kind: str) -> str:
        rng = self.rng
        if kind == "insert":
            rows = []
            for _ in range(INSERT_ROWS):
                key = self.next_key
                self.next_key += 1
                price = round(float(rng.uniform(100.0, 10_000.0)), 2)
                discount = int(rng.integers(0, 11))
                rows.append(
                    f"({key}, {int(rng.integers(1, 6000))}, "
                    f"{int(rng.integers(1, 4000))}, "
                    f"{int(rng.integers(1, 400))}, {int(rng.choice(_DATES))}, "
                    f"{int(rng.integers(1, 51))}, {price}, {discount}, "
                    f"{round(price * (100 - discount) / 100.0, 2)}, "
                    f"{round(price * 0.6, 2)})"
                )
            return f"insert into {self.table} values " + ", ".join(rows)
        key = int(rng.integers(1, self.num_rows + 1))
        if kind == "delete":
            return f"delete from {self.table} where lo_orderkey = {key}"
        if kind == "update":
            return (
                f"update {self.table} set lo_discount = {int(rng.integers(0, 11))} "
                f"where lo_orderkey = {key}"
            )
        raise ValueError(f"unknown write kind {kind!r}")


_DATES = np.array(
    [
        year * 10_000 + month * 100 + day
        for year in range(1992, 1999)
        for month in (1, 6, 12)
        for day in (1, 15)
    ]
)


# -- results --------------------------------------------------------------------------


def result_digest(result) -> str:
    """A digest of a query result's columns, names, dtypes and row order."""
    h = hashlib.blake2b(digest_size=16)
    for name in result.column_order:
        column = np.asarray(result.columns[name])
        h.update(name.encode())
        h.update(str(column.dtype).encode())
        if column.dtype == object:
            h.update(repr(column.tolist()).encode())
        else:
            h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


def oracle_mismatches(
    database: Database, checked: Sequence[Tuple[str, str]]
) -> List[str]:
    """Statements whose digest differs from a cache-off engine's on ``database``.

    ``checked`` holds ``(sql, digest)`` pairs; each distinct statement
    runs once on the oracle.
    """
    oracle = QueryEngine(database, scan_workers=0)
    expected: Dict[str, str] = {}
    bad: List[str] = []
    # Keep every decoded block while checking: the check is not timed.
    capacity, database.rms.cache_capacity = database.rms.cache_capacity, None
    try:
        for sql, digest in checked:
            if sql not in expected:
                expected[sql] = result_digest(oracle.execute(sql))
            if expected[sql] != digest:
                bad.append(sql)
    finally:
        database.rms.cache_capacity = capacity
    return bad


@dataclass
class Record:
    """One timed statement."""

    sql: str
    kind: str
    latency: float
    digest: Optional[str] = None
    blocks: int = 0
    rows_scanned: int = 0
    model_seconds: float = 0.0
    bloom_probes: int = 0
    bloom_positives: int = 0
    ok: bool = True
    #: Host-speed scale of the segment the statement ran in.
    scale: float = 1.0

    @property
    def normalised(self) -> float:
        """The latency, host-normalised (see :mod:`perfbench.hostspeed`)."""
        return self.latency * self.scale


def with_counters(record: Record, result) -> Record:
    counters = result.counters
    record.blocks = counters.blocks_accessed
    record.rows_scanned = counters.rows_scanned
    record.model_seconds = counters.model_seconds
    record.bloom_probes = counters.bloom_probes
    record.bloom_positives = counters.bloom_positives
    return record


# -- closed loop ----------------------------------------------------------------------


@dataclass
class ClosedLoop:
    records: List[Record]
    #: Host-normalised latencies of the appends timed between reads.
    writes: List[float]
    #: Wall seconds of the loop, reference passes included.
    seconds: float
    #: Host-normalised seconds of the loop, reference passes excluded.
    normalised_seconds: float
    #: ``PredicateCache.total_nbytes`` after the count window's last statement.
    window_cache_bytes: int


def closed_loop(
    engine: QueryEngine,
    stream: Iterator[str],
    writes: WriteStream,
    kind: str,
    seconds: float,
    window: int,
) -> ClosedLoop:
    """One client, next statement only after the previous one returned.

    Runs for ``seconds`` and at least ``window`` reads.  After every
    :data:`WRITE_EVERY` reads it times one append from ``writes``, so
    write latency is sampled across the whole run.  Every latency is
    host-normalised by the segment it ran in.
    """
    records: List[Record] = []
    segments: List[int] = []
    write_times: List[Tuple[float, int]] = []
    window_bytes = -1
    started = clock()
    speed = hostspeed.Segments()
    while len(records) < window or clock() - started < seconds:
        sql = next(stream)
        t0 = clock()
        result = engine.execute(sql)
        latency = clock() - t0
        record = Record(sql, kind, latency, result_digest(result))
        records.append(with_counters(record, result))
        segments.append(speed.index)
        if len(records) == window:
            window_bytes = engine.predicate_cache.total_nbytes
        if len(records) % WRITE_EVERY == 0:
            sql = writes.statement("insert")
            t0 = clock()
            engine.execute(sql)
            write_times.append((clock() - t0, speed.index))
        speed.tick()
    speed.cut()
    elapsed = clock() - started
    scales = speed.scales()
    for record, index in zip(records, segments):
        record.scale = float(scales[index])
    normalised_writes = [latency * scales[index] for latency, index in write_times]
    return ClosedLoop(
        records, normalised_writes, elapsed, speed.normalised_seconds(), window_bytes
    )


# -- served-ingest clients ----------------------------------------------------------


@dataclass
class ServedPhase:
    """What the served clients measured, one entry per request."""

    kinds: List[str]
    statements: List[str]
    latencies: List[float]
    responses: list
    #: Server queue depth sampled right after each submit.
    queue_depths: List[int]
    #: Host-speed scale of each request's segment.
    scales: List[float]
    #: Wall seconds of the phase, reference passes included.
    seconds: float
    #: Host-normalised seconds of the phase, reference passes excluded.
    normalised_seconds: float

    def failures(self) -> int:
        return sum(1 for r in self.responses if r.status is not RequestStatus.OK)


class Served:
    """``workers`` closed-loop clients sharing one :class:`QueryServer`.

    Each client submits its next request only after the previous one
    returned.  The statement sequence is drawn from the seed under a
    lock, so it is the same in every run; which client sends which
    statement depends on timing.
    """

    def __init__(self, engine: QueryEngine, seed: int, workers: int) -> None:
        self.engine = engine
        self.workers = workers
        self.server = QueryServer(engine, max_workers=workers)
        self._rng = rng_for(seed, 6)
        self._dashboard = dashboard_stream(seed)
        self._adhoc = drilldown_stream(seed, stream=3)
        num_rows = engine.database.table("lineorder").num_rows
        self._writes = WriteStream(seed, 4, num_rows)
        self._lock = threading.Lock()

    def next_request(self) -> Tuple[str, str]:
        with self._lock:
            kind = MIX[int(self._rng.choice(len(MIX), p=_SHARES))][0]
            if kind == "dashboard":
                return kind, next(self._dashboard)
            if kind == "adhoc":
                return kind, next(self._adhoc)
            return kind, self._writes.statement(kind)

    def run(self, seconds: float) -> ServedPhase:
        """All clients send requests until ``seconds`` have passed.

        The phase is cut into segments of :data:`SERVED_SEGMENT_SECONDS`.
        At each cut every client finishes its request in flight and
        waits; the reference pass runs on the idle process and the next
        segment starts.
        """
        per_client: List[list] = [[] for _ in range(self.workers)]
        started = clock()
        speed = hostspeed.Segments(SERVED_SEGMENT_SECONDS)
        state = {"end": clock() + speed.length, "stop": False}

        def between() -> None:
            speed.cut()
            state["stop"] = clock() - started >= seconds
            state["end"] = clock() + speed.length

        barrier = threading.Barrier(self.workers, action=between)

        def client(out: list) -> None:
            try:
                while not state["stop"]:
                    segment = speed.index
                    while clock() < state["end"]:
                        kind, sql = self.next_request()
                        t0 = clock()
                        future = self.server.submit(Request(sql))
                        depth = self.server.queue_depth
                        response = future.result(timeout=120.0)
                        out.append((kind, sql, clock() - t0, response, depth, segment))
                    barrier.wait(timeout=150.0)
            except threading.BrokenBarrierError:
                pass
            finally:
                barrier.abort()

        threads = [
            threading.Thread(target=client, args=(out,), name=f"perfbench-client-{i}")
            for i, out in enumerate(per_client)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 150.0)
        elapsed = clock() - started
        if not state["stop"]:
            speed.cut()  # a client broke off inside a segment
        scales = speed.scales()
        rows = [row for out in per_client for row in out]
        kinds, statements, latencies, responses, depths, segments = (
            [list(column) for column in zip(*rows)] if rows else [[] for _ in range(6)]
        )
        return ServedPhase(
            kinds,
            statements,
            latencies,
            responses,
            depths,
            [float(scales[index]) for index in segments],
            elapsed,
            speed.normalised_seconds(),
        )

    def final_check(self) -> List[str]:
        """Post-run dashboard and ad-hoc results vs a cache-off engine's."""
        statements = list(ssb.queries().values())
        statements += [next(self._adhoc) for _ in range(24)]
        checked = []
        for sql in statements:
            checked.append((sql, result_digest(self.engine.execute(sql))))
        return oracle_mismatches(self.engine.database, checked)

    def close(self) -> None:
        self.server.shutdown(drain=True, timeout=60.0)


_SHARES = np.array([share for _, share in MIX])


def percentile_ms(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of seconds, in ms (0.0 when empty)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values), q)) * 1000.0
