"""Hit extension: window-level search hits → exact reference placements.

A :class:`~repro.search.topk.Hit` says "this read scores S somewhere in
this window"; a :class:`Placement` says exactly where, with the CIGAR to
prove it.  :func:`extend_hits` traces every retained hit of a call with
the lane-batched traceback kernel
(:func:`repro.core.kernels.traceback_lanes`), in chunks of
:data:`LANE_CHUNK` lanes:

* **banded path** — the hit's seed-diagonal envelope (``diag_lo`` /
  ``diag_hi``, carried opaquely through the top-K merge in ``Hit.meta``)
  bounds where the read can sit, so traceback runs on just the envelope's
  column slice of the window (diagonal ``d`` puts query position 0 at
  window column ``d``; the slice ``[diag_lo − pad, diag_hi + qlen + pad)``
  therefore covers every seeded placement plus indel drift).  All the
  call's slices go into one lane call;
* **certificate** — a lane's result is accepted only if its score
  equals the hit's verified window score *and* the aligned segment stays
  clear of any artificially cut slice edge.  Slicing turns a cut column
  into a free-end-gap border that the full window does not have, so an
  edge-touching result proves nothing; score equality proves an optimal
  whole-window placement lies inside the slice (a slice alignment is a
  window alignment with the same score, so slice score ≤ window score
  always, with equality exactly when the slice contains an optimum).
* **fallback** — every miss (no envelope, score mismatch — e.g. a
  band-clipped shoulder hit — or an edge-touching segment) is re-traced
  on its *full* window in a second lane call, which is what the
  exhaustive oracle does for every hit.

:func:`extend_hit` is the one-hit case of the same path.

Determinism note: the lane kernel picks end cells and breaks ties
exactly like :func:`repro.core.recurrence.align_reference` (diagonal,
then vertical gap, then horizontal gap; first maximum of the last row,
then of the last column), on a slice as on the full window, so the
certificate makes the banded path bit-identical to full-window traceback
whenever the optimal placement is unique inside the window.  An exact
equal-scoring repeat of the read inside one window shares the read's
k-mers, which widens the seed envelope to span both copies — so repeats
resolve inside one slice with full-window tie order, not across slices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.kernels import traceback_lanes
from repro.mapping.cigar import cigar_string
from repro.obs import get_registry

__all__ = ["ExtendStats", "Placement", "extend_hit", "extend_hits"]


@dataclass(slots=True)
class Placement:
    """One exact reference placement of a read (mapping's unit result).

    Coordinates are forward-reference, 0-based half-open; for a ``-``
    strand placement the CIGAR (and ``query_start``/``query_end``) are
    relative to the reverse-complemented read, SAM-style.  ``hit`` keeps
    the source search hit (opaque to equality) so shard merges can
    replay the hit-level top-K retention exactly.
    """

    query_id: int  # read index (strand-folded)
    record: str
    ref_start: int
    ref_end: int
    strand: str  # "+" or "-"
    score: int
    cigar: str
    query_start: int  # soft-clipped prefix of the oriented read
    query_end: int
    chunk_id: int  # provenance: the window that produced it
    seeds: int = 0
    hit: object = field(default=None, compare=False, repr=False)

    def __repr__(self):
        return (
            f"Placement(q{self.query_id} {self.record}:{self.ref_start}-"
            f"{self.ref_end}{self.strand} score={self.score} {self.cigar})"
        )


def placement_key(p: Placement) -> tuple:
    """Identity of a placement — what overlapping-window duplicates share.

    Deliberately excludes ``query_id``: dedup buckets per read already,
    and a read's placements must compare equal whether it was mapped
    alone (``map_one``, service traffic — id 0) or at position ``i`` of
    a batch.
    """
    return (
        p.record,
        p.ref_start,
        p.ref_end,
        p.strand,
        p.query_start,
        p.cigar,
    )


@dataclass
class ExtendStats:
    """Accounting for one extension pass (perf.report's extend row)."""

    hits: int = 0
    banded: int = 0  # envelope slice accepted by the certificate
    fallback_score: int = 0  # slice score ≠ hit score → full window
    fallback_edge: int = 0  # segment touched a cut slice edge → full window
    full: int = 0  # no envelope / full mode from the start
    cells_banded: int = 0
    cells_full: int = 0
    seconds: float = 0.0

    @property
    def cells(self) -> int:
        return self.cells_banded + self.cells_full

    def add(self, other: "ExtendStats") -> None:
        self.hits += other.hits
        self.banded += other.banded
        self.fallback_score += other.fallback_score
        self.fallback_edge += other.fallback_edge
        self.full += other.full
        self.cells_banded += other.cells_banded
        self.cells_full += other.cells_full
        self.seconds += other.seconds


#: Lanes per traceback kernel call.  The call's direction codes take
#: (n+1)·lanes·(m+1) bytes — about 3 MB for 150 bp reads on 300-base
#: windows — so this bounds memory, not the number of hits per call.
LANE_CHUNK = 64


def _trace_lanes(queries: list, subjects: list, scheme) -> list:
    """``traceback_lanes`` over ``LANE_CHUNK``-sized slices of the pairs."""
    out: list = []
    for k in range(0, len(queries), LANE_CHUNK):
        out += traceback_lanes(
            queries[k : k + LANE_CHUNK], subjects[k : k + LANE_CHUNK], scheme
        )
    return out


def _placement(trace, hit, query_id, strand, offset) -> Placement:
    return Placement(
        query_id=query_id,
        record=hit.record,
        ref_start=hit.start + offset + trace.subject_start,
        ref_end=hit.start + offset + trace.subject_end,
        strand=strand,
        score=trace.score,
        cigar=cigar_string(trace.cigar),
        query_start=trace.query_start,
        query_end=trace.query_end,
        chunk_id=hit.chunk_id,
        seeds=hit.seeds,
        hit=hit,
    )


def extend_hits(
    jobs,
    scheme,
    *,
    mode: str = "banded",
    extend_pad: int = 16,
    stats: ExtendStats | None = None,
) -> list[Placement]:
    """Exact traceback for many hits at once; one :class:`Placement` each.

    ``jobs`` holds ``(query, hit, window, query_id, strand)`` tuples:
    ``query`` is the *oriented* (possibly reverse-complemented) encoded
    read the hit was searched with, ``window`` the window bases or None
    for the ones the reducer stashed in ``hit.meta["window"]``.  Every
    hit's envelope slice (or whole window, when it has no envelope or
    ``mode="full"``) goes into one lane traceback call; hits whose slice
    fails the certificate go into a second call on their full windows.
    Placements come back in job order.
    """
    stats = stats if stats is not None else ExtendStats()
    t0 = time.perf_counter()
    prepared = []  # (q, w, hit, query_id, strand, lo, hi)
    slices = []
    for query, hit, window, query_id, strand in jobs:
        if window is None:
            window = (hit.meta or {}).get("window")
            if window is None:
                raise ValueError("hit carries no window bases; pass window=")
        q = np.asarray(query, dtype=np.uint8)
        w = np.asarray(window, dtype=np.uint8)
        qlen, wlen = int(q.size), int(w.size)
        lo, hi = 0, wlen
        meta = hit.meta or {}
        dlo, dhi = meta.get("diag_lo"), meta.get("diag_hi")
        if mode == "banded" and dlo is not None and dhi is not None and dlo <= dhi:
            lo = max(0, int(dlo) - extend_pad)
            hi = min(wlen, int(dhi) + qlen + extend_pad)
        if hi - lo < wlen:
            stats.cells_banded += (qlen + 1) * (hi - lo + 1)
        else:  # no envelope, or the slice is the whole window anyway
            stats.full += 1
            stats.cells_full += (qlen + 1) * (wlen + 1)
        if query_id is None:
            query_id = hit.query_id
        prepared.append((q, w, hit, query_id, strand, lo, hi))
        slices.append(w[lo:hi])
    stats.hits += len(prepared)

    traces = _trace_lanes([p[0] for p in prepared], slices, scheme)
    out: list = [None] * len(prepared)
    retry = []
    banded = 0
    for k, (trace, (q, w, hit, query_id, strand, lo, hi)) in enumerate(
        zip(traces, prepared)
    ):
        if hi - lo < w.size:
            if trace.score != hit.score:
                stats.fallback_score += 1
                retry.append(k)
                continue
            if (lo > 0 and trace.subject_start == 0) or (
                hi < w.size and trace.subject_end == hi - lo
            ):
                stats.fallback_edge += 1  # touched a cut edge: the free border is a lie
                retry.append(k)
                continue
            banded += 1
        out[k] = _placement(trace, hit, query_id, strand, lo)

    if retry:
        full = _trace_lanes(
            [prepared[k][0] for k in retry], [prepared[k][1] for k in retry], scheme
        )
        for k, trace in zip(retry, full):
            q, w, hit, query_id, strand, _, _ = prepared[k]
            stats.cells_full += (q.size + 1) * (w.size + 1)
            out[k] = _placement(trace, hit, query_id, strand, 0)
    stats.banded += banded
    stats.seconds += time.perf_counter() - t0

    reg = get_registry()
    if reg.enabled and prepared:
        counter = reg.counter(
            "mapping_extend_total",
            "Hits extended to exact placements, by traceback path",
            labels=("path",),
        )
        if banded:
            counter.inc(banded, path="banded")
        if len(prepared) - banded:
            counter.inc(len(prepared) - banded, path="full")
    return out


def extend_hit(
    query,
    hit,
    scheme,
    *,
    window=None,
    mode: str = "banded",
    extend_pad: int = 16,
    query_id: int | None = None,
    strand: str = "+",
    stats: ExtendStats | None = None,
) -> Placement:
    """Exact traceback for one hit: the one-job case of :func:`extend_hits`.

    ``window`` defaults to the bases the reducer stashed in
    ``hit.meta["window"]``.  ``mode="full"`` skips the envelope slice and
    always aligns the whole window (the oracle path).
    """
    return extend_hits(
        [(query, hit, window, query_id, strand)],
        scheme,
        mode=mode,
        extend_pad=extend_pad,
        stats=stats,
    )[0]
