"""Traced run: per-layer metrics and an outside-in layer budget.

End-to-end runs keep tracing off.  This run times the benchmark's own
calls into each layer's public functions (``core``, ``stage``, ``engine``,
``search``, ``mapping``, ``shard``, ``serve``, ``obs``) with spans from a
private :class:`repro.obs.Tracer`, keeps them in memory and writes them out
once, at the end, as a Chrome trace that must pass
``repro.obs.validate_chrome_trace``.  No span comes from inside the
program.

Every traced run reports every per-layer metric.  The ``core``, ``stage``,
``engine`` and ``serve`` probes run on the §V read x window shape in every
workload, so the paper's per-backend kernel rate sits in every result set;
the ``serve`` probe drives :class:`workloads.ServeOpen` for 200 requests
per rate.  A layer
a workload does not use reports 0 there (``mapping.*`` on ``search_pool``,
for instance).  Times and counts are means per ``hi`` call.

``budget.residual_share`` is the part of a workload's wall clock that the
timed layer calls do not cover:

* ``map_reads`` composes ``search -> extend_hit -> merge_mapped`` under one
  root span per batch; the residual is root time minus its child spans.
* ``search_pool``: the pool call runs in worker processes the benchmark
  cannot time from outside, so the same call is composed in-process from
  the same public calls (per-shard ``search`` with the workers' engine
  configuration, then ``merge_topk``).  The residual is the pool call's
  wall minus the slowest shard's search, the merge and one ``ping`` round
  trip: what spawn-side IPC, pickling and imbalance cost.

Each composition is checked to return exactly what the end-to-end call
returns, so the budget measures the same work.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import inputs
from measure import Result, check, median, pct

#: Per-layer metrics and their units, in report order (``BENCHMARK.json``
#: lists the same names).
PER_LAYER = {
    "core.rowscan_mcups": "MCUPS",
    "core.simd_mcups": "MCUPS",
    "core.banded_lane_mcups": "MCUPS",
    "core.align_ms": "ms",
    "stage.first_call_s": "s",
    "engine.dispatch1_ms": "ms",
    "engine.batch_mcups": "MCUPS",
    "engine.overhead_share": "share",
    "search.index_s": "s",
    "search.scan_s": "s",
    "search.candidates": "count",
    "search.admitted": "count",
    "search.admit_ratio": "share",
    "search.run_s": "s",
    "search.verify_s": "s",
    "search.verify_cells": "count",
    "search.verify_mcups": "MCUPS",
    "search.lane_fill": "share",
    "search.hit_ratio": "share",
    "mapping.extend_s": "s",
    "mapping.hits": "count",
    "mapping.extend_cells": "count",
    "mapping.fallback_share": "share",
    "mapping.dedup_s": "s",
    "shard.start_s": "s",
    "shard.ping_ms": "ms",
    "shard.call_s": "s",
    "shard.speedup": "x",
    "serve.closed_rps": "1/s",
    "serve.occupancy_lo": "req/batch",
    "serve.occupancy_hi": "req/batch",
    "serve.batches_lo": "count",
    "serve.batches_hi": "count",
    "serve.rejected": "count",
    "serve.expired": "count",
    "serve.failed": "count",
    "client.lag_p99_ms": "ms",
    "obs.trace_overhead": "share",
    "budget.residual_share": "share",
}

#: Largest ``budget.residual_share`` each workload may show.  A larger one
#: means the timed calls no longer explain the wall clock.  (The fixed key
#: set of ``BENCHMARK.json`` has no slot for these, so they live here.)
RESIDUAL_BOUND = {"map_reads": 0.05, "search_pool": 0.50}

SV_PAIRS = 256  # core probe stack, one lane block per 64
ENGINE_PAIRS = 1024
DISPATCH_CALLS = 40
ALIGN_CALLS = 16
PING_CALLS = 20
SERVE_BURST = 256
#: Open-loop requests per rate in the serve probe (about 5 s at 60 + 100 req/s).
SERVE_REQUESTS = 200
RESULTS = Path(__file__).resolve().parent / "results"


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _median_of(n, fn, *args):
    """Median wall of ``n`` identical calls (the result of the last)."""
    walls, out = [], None
    for _ in range(n):
        wall, out = _timed(fn, *args)
        walls.append(wall)
    return median(walls), out


def _global_tracing(fn, *args):
    """Wall of ``fn`` with the program's own tracer on; its spans are dropped."""
    from repro.obs import disable_tracing, enable_tracing, get_tracer

    enable_tracing()
    try:
        return _timed(fn, *args)
    finally:
        disable_tracing()
        get_tracer().clear()


# -- probes every workload runs ------------------------------------------------
def probe_core(tracer, seed: int, m: dict) -> None:
    from repro.core import Aligner
    from repro.core.banded import band_cells, banded_score_lanes
    from repro.search import default_search_scheme

    sv = inputs.sv_pairs(seed, SV_PAIRS)
    qs, ss = list(sv.reads), list(sv.windows)
    n, w = sv.reads.shape[1], sv.windows.shape[1]
    cells = SV_PAIRS * n * w
    scores = {}
    for backend in ("rowscan", "simd"):
        aligner = Aligner(backend=backend)
        aligner.score_batch(qs[:2], ss[:2])  # compile outside the timing
        with tracer.span(f"core.{backend}", pairs=SV_PAIRS):
            wall, scores[backend] = _median_of(3, aligner.score_batch, qs, ss)
        m[f"core.{backend}_mcups"] = cells / wall / 1e6
    check(
        np.array_equal(scores["rowscan"], scores["simd"]),
        "rowscan and simd score_batch disagree",
    )

    scheme = default_search_scheme()
    band = abs(w - n) + 16  # the search's window-extent band for this shape
    banded_score_lanes(sv.reads[:2], sv.windows[:2], scheme, band)
    with tracer.span("core.banded_lanes", pairs=SV_PAIRS, band=band):
        wall, _ = _median_of(3, banded_score_lanes, sv.reads, sv.windows, scheme, band)
    m["core.banded_lane_mcups"] = SV_PAIRS * band_cells(n, w, band) / wall / 1e6

    aligner = Aligner()
    walls = []
    with tracer.span("core.align", pairs=ALIGN_CALLS):
        for i in range(ALIGN_CALLS):
            walls.append(_timed(aligner.align, qs[i], ss[i])[0])
    m["core.align_ms"] = median(walls) * 1e3


def probe_engine(tracer, seed: int, m: dict) -> None:
    from repro.core import Aligner
    from repro.engine import ExecutionEngine

    sv = inputs.sv_pairs(seed, ENGINE_PAIRS)
    qs, ss = list(sv.reads), list(sv.windows)
    cells = ENGINE_PAIRS * sv.reads.shape[1] * sv.windows.shape[1]
    with ExecutionEngine() as engine:
        engine.submit_batch(qs[:1], ss[:1])
        walls = []
        with tracer.span("engine.dispatch1", calls=DISPATCH_CALLS):
            for i in range(DISPATCH_CALLS):
                walls.append(_timed(engine.submit_batch, qs[i : i + 1], ss[i : i + 1])[0])
        m["engine.dispatch1_ms"] = median(walls) * 1e3
        with tracer.span("engine.batch", pairs=ENGINE_PAIRS):
            engine_s, got = _median_of(3, engine.submit_batch, qs, ss)
    with tracer.span("core.batch", pairs=ENGINE_PAIRS):
        core_s, want = _median_of(3, Aligner().score_batch, qs, ss)
    check(np.array_equal(got, want), "engine batch differs from Aligner.score_batch")
    m["engine.batch_mcups"] = cells / engine_s / 1e6
    m["engine.overhead_share"] = 1.0 - core_s / engine_s


def probe_first_call(tracer, seed: int, m: dict) -> None:
    """First engine call minus a warm one, in a fresh interpreter."""
    run_py = Path(__file__).resolve().parent / "run.py"
    cmd = [sys.executable, str(run_py), "--role", "first-call", "--seed", str(seed)]
    with tracer.span("stage.first_call"):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    m["stage.first_call_s"] = probe["first_s"] - probe["warm_s"]


def first_call(seed: int) -> dict:
    """Body of the fresh-process probe (``run.py --role first-call``)."""
    from repro.engine import ExecutionEngine

    sv = inputs.sv_pairs(seed, 64)
    qs, ss = list(sv.reads), list(sv.windows)
    with ExecutionEngine() as engine:
        first_s, _ = _timed(engine.submit_batch, qs, ss)
        warm_s, _ = _median_of(3, engine.submit_batch, qs, ss)
    return {"first_s": first_s, "warm_s": warm_s}


# -- search layer, shared by map_reads and search_pool ------------------------
class SearchTally:
    """Per-batch sums of the search-layer probes."""

    def __init__(self):
        self.batches = 0
        self.index_s = self.scan_s = self.run_s = 0.0
        self.candidates = self.admitted = self.cells = 0
        self.verify_batches = self.retained = 0

    def probe(self, tracer, queries, reference, cfg) -> None:
        """Time the index build and the seed scan the search will repeat."""
        from repro.search import QueryIndex, SeedPrefilter, resolve_windowing
        from repro.workloads import chunk_sequence

        with tracer.span("search.index", queries=len(queries)):
            wall, index = _timed(QueryIndex, queries, cfg.kmer)
        self.index_s += wall
        qmax = int(index.lengths.max())
        window, overlap = resolve_windowing(qmax, cfg.window, cfg.overlap, cfg.band_pad)
        prefilter = SeedPrefilter(index, min_seeds=cfg.min_seeds)
        with tracer.span("search.scan"):
            t0 = time.perf_counter()
            for chunk in chunk_sequence(reference, window, overlap):
                prefilter.expand(chunk)
            self.scan_s += time.perf_counter() - t0

    def run(self, tracer, queries, reference, cfg):
        from repro.search import search

        with tracer.span("search.run", queries=len(queries)):
            t0 = time.perf_counter()
            run = search(queries, reference, **cfg.search_kwargs())
            hits = run.topk()
            self.run_s += time.perf_counter() - t0
        st = run.stats
        self.batches += 1
        self.candidates += st.candidates
        self.admitted += st.admitted
        self.cells += st.cells_computed
        self.verify_batches += st.batches
        self.retained += sum(len(h) for h in hits)
        return hits

    def put(self, m: dict) -> None:
        from repro.engine import EngineConfig

        n = self.batches
        verify_s = (self.run_s - self.index_s - self.scan_s) / n  # derived
        m["search.index_s"] = self.index_s / n
        m["search.scan_s"] = self.scan_s / n
        m["search.candidates"] = self.candidates / n
        m["search.admitted"] = self.admitted / n
        m["search.admit_ratio"] = self.admitted / self.candidates
        m["search.run_s"] = self.run_s / n
        m["search.verify_s"] = verify_s
        m["search.verify_cells"] = self.cells / n
        m["search.verify_mcups"] = self.cells / n / verify_s / 1e6
        lanes = EngineConfig().lanes
        m["search.lane_fill"] = self.admitted / (self.verify_batches * lanes)
        m["search.hit_ratio"] = self.retained / self.admitted


def _residual(tracer, root: str) -> float:
    """1 - (child span time / root span time) over every ``root`` span."""
    spans = tracer.spans()
    roots = {s.span_id: s for s in spans if s.name == root}
    covered = sum(s.dur_us for s in spans if s.parent_id in roots)
    return 1.0 - covered / sum(s.dur_us for s in roots.values())


# -- workloads -----------------------------------------------------------------
def trace_map_reads(w, tracer, m: dict, deadline: float) -> tuple:
    from repro.mapping import ExtendStats, extend_hit, map_reads, merge_mapped, resolve_config
    from repro.util.encoding import reverse_complement

    cfg = resolve_config(None, min_score=inputs.MIN_SCORE)
    scfg = replace(cfg.search, hit_window=True)
    scheme = scfg.resolved_scheme()
    rs0 = w.batch("hi", 0)
    plain_s, e2e = _timed(map_reads, rs0, w.reference, min_score=inputs.MIN_SCORE)
    traced_s, _ = _global_tracing(
        lambda: map_reads(rs0, w.reference, min_score=inputs.MIN_SCORE)
    )
    m["obs.trace_overhead"] = traced_s / plain_s - 1.0

    tally = SearchTally()
    ext = ExtendStats()
    extend_s = dedup_s = 0.0
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        rs = rs0 if index == 0 else w.batch("hi", index)
        index += len(inputs.MAP_CYCLE)  # the hi batches of the timed run
        reads = list(rs.reads)
        oriented = reads + [reverse_complement(r) for r in reads]
        tally.probe(tracer, oriented, w.reference, scfg)
        with tracer.span("map_reads", reads=len(reads)):
            hits = tally.run(tracer, oriented, w.reference, scfg)
            per_read = [[] for _ in reads]
            with tracer.span("mapping.extend", hits=sum(len(h) for h in hits)):
                for qid, qhits in enumerate(hits):
                    read_id = qid % len(reads)
                    strand = "-" if qid >= len(reads) else "+"
                    for hit in qhits:
                        wall, p = _timed(
                            extend_hit, oriented[qid], hit, scheme,
                            mode=cfg.traceback, extend_pad=cfg.extend_pad,
                            query_id=read_id, strand=strand, stats=ext,
                        )
                        extend_s += wall
                        per_read[read_id].append(p)
            with tracer.span("mapping.dedup"):
                wall, final = _timed(
                    merge_mapped, [per_read], num_reads=len(reads),
                    num_oriented=len(oriented), hit_k=cfg.search.k, k=cfg.k,
                    min_score=cfg.search.min_score,
                )
                dedup_s += wall
        if rs is rs0:
            check(final == e2e.placements, "composed mapping differs from map_reads")

    tally.put(m)
    n = tally.batches
    m["mapping.extend_s"] = extend_s / n
    m["mapping.hits"] = ext.hits / n
    m["mapping.extend_cells"] = ext.cells / n
    m["mapping.fallback_share"] = (ext.hits - ext.banded) / ext.hits
    m["mapping.dedup_s"] = dedup_s / n
    m["budget.residual_share"] = _residual(tracer, "map_reads")
    return n * len(rs0), 0


def trace_search_pool(w, tracer, m: dict, deadline: float) -> tuple:
    from repro.search import merge_topk, search
    from repro.shard import shard_engine_workers
    from repro.workloads import chunk_sequence, shard_chunks

    pool = w.pool
    m["shard.start_s"] = w.start_s
    walls = []
    with tracer.span("shard.ping", calls=PING_CALLS):
        for _ in range(PING_CALLS):
            walls.append(_timed(pool.ping)[0])
    ping_s = median(walls)
    m["shard.ping_ms"] = ping_s * 1e3

    qs0 = w.queries("hi", 0)
    plain_s, _ = _timed(pool.search_topk, qs0)
    traced_s, _ = _global_tracing(pool.search_topk, qs0)
    m["obs.trace_overhead"] = traced_s / plain_s - 1.0

    plan = pool.plan.resolved_for(inputs.READ_LENGTH)
    cfg = plan.search
    shards = plan.num_shards
    tally = SearchTally()
    call_s, residuals = 0.0, []
    engine = plan.engine.build(cfg.resolved_scheme(), max_workers=shard_engine_workers(plan))
    try:
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            qs = w.queries("hi", index)
            index += len(inputs.SEARCH_CYCLE)
            tally.probe(tracer, qs, w.reference, cfg)
            local = tally.run(tracer, qs, w.reference, cfg)
            with tracer.span("search_pool", queries=len(qs)):
                with tracer.span("shard.call"):
                    wall, got = _timed(pool.search_topk, qs)
            call_s += wall
            per_shard, shard_s = [], []
            for shard in range(shards):
                chunks = shard_chunks(
                    chunk_sequence(w.reference, cfg.window, cfg.overlap), shards, shard
                )
                with tracer.span("shard.search", shard=shard):
                    t0 = time.perf_counter()
                    per_shard.append(search(qs, chunks, engine=engine, **cfg.search_kwargs()).topk())
                    shard_s.append(time.perf_counter() - t0)
            with tracer.span("shard.merge"):
                merge_s, merged = _timed(merge_topk, per_shard, len(qs), cfg.k, cfg.min_score)
            check(got == local, "pool search_topk differs from in-process search")
            check(merged == got, "composed shard search differs from the pool")
            residuals.append(1.0 - (max(shard_s) + merge_s + ping_s) / wall)
    finally:
        engine.close()

    tally.put(m)
    m["shard.call_s"] = call_s / tally.batches
    m["shard.speedup"] = tally.run_s / call_s
    m["budget.residual_share"] = float(np.mean(residuals))
    return tally.batches * len(qs0), 0


def probe_serve(tracer, seed: int, m: dict) -> tuple:
    """The serve layer: a closed burst, then a short open loop at both rates.

    A default ``AlignmentService`` answers the §V pairs; every answer is
    checked against the engine and ``Aligner.align``.  Returns the
    requests offered and failed.
    """
    from workloads import ServeOpen

    w = ServeOpen(seed, SERVE_REQUESTS)
    w.setup()
    try:
        sv = inputs.sv_pairs(seed, SERVE_BURST)
        burst = list(zip(sv.reads, sv.windows))

        async def closed(pairs):
            return await asyncio.gather(*(w.service.submit(q, s) for q, s in pairs))

        with tracer.span("serve.closed_burst", requests=SERVE_BURST):
            burst_s, _ = _timed(w.loop.run_until_complete, closed(burst))
        m["serve.closed_rps"] = SERVE_BURST / burst_s

        phases = w.phases(SERVE_REQUESTS)
        w.check(phases)
        for p in phases:
            m[f"serve.occupancy_{p.level}"] = p.batched / p.batches
            m[f"serve.batches_{p.level}"] = p.batches
            for due, lat in zip(p.due_wall, p.latency_s):
                if np.isfinite(lat):
                    tracer.record_span("serve.request", float(lat), start_wall=due, level=p.level)
        final = w.service.stats.snapshot()
    finally:
        w.close()
    m["serve.rejected"] = sum(final["rejected"].values())
    m["serve.expired"] = sum(final["deadline_exceeded"].values())
    m["serve.failed"] = final["failed"]
    m["client.lag_p99_ms"] = pct(np.concatenate([p.lag_s for p in phases]), 99) * 1e3
    attempted = sum(len(p.outputs) for p in phases)
    return attempted, attempted - sum(p.completed for p in phases)


TRACERS = {"map_reads": trace_map_reads, "search_pool": trace_search_pool}


def trace(w, seconds: float) -> Result:
    """The traced run of workload ``w`` (already set up)."""
    from repro.obs import Tracer, to_chrome_trace, validate_chrome_trace

    deadline = time.perf_counter() + seconds
    tracer = Tracer(capacity=1 << 16, process="perfbench", enabled=True)
    m: dict = {}
    probe_core(tracer, w.seed, m)
    probe_engine(tracer, w.seed, m)
    probe_first_call(tracer, w.seed, m)
    serve_attempted, serve_failed = probe_serve(tracer, w.seed, m)
    attempted, failed = TRACERS[w.name](w, tracer, m, deadline)
    attempted += serve_attempted
    failed += serve_failed

    bound = RESIDUAL_BOUND[w.name]
    residual = m["budget.residual_share"]
    check(
        residual <= bound,
        f"{w.name}: budget.residual_share {residual:.3f} exceeds its bound {bound}",
    )
    doc = to_chrome_trace(tracer.spans(), label=f"perfbench.{w.name}")
    summary = validate_chrome_trace(doc)
    RESULTS.mkdir(exist_ok=True)
    trace_file = RESULTS / f"trace_{w.name}_{w.seed}.json"
    trace_file.write_text(json.dumps(doc))

    res = Result(attempted=attempted, failed=failed)
    for name, unit in PER_LAYER.items():
        res.put(name, m.get(name, 0.0), unit)
    res.info.update(
        residual_bound=bound, spans=summary["spans"], trace_file=str(trace_file.name)
    )
    return res
