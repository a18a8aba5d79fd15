"""Lane-batched traceback vs. the plain-loop oracle, and batched extension.

``core.kernels.traceback_lanes`` pads many pairs into SIMD lanes, fills
them in one staged row sweep that stores a direction code per cell, and
walks each lane.  Its contract is bit-identity with
``core.recurrence.align_reference`` — score, start and end cells, and
edit script (compared as the CIGAR ``from_alignment`` derives) — on every
scheme family ``search()`` accepts: global and semiglobal, linear and
affine gaps, simple and matrix substitution.  Tie-heavy inputs
(homopolymers, tandem repeats, indels inside repeats) pin the tie order.

``mapping.extend.extend_hits`` traces every hit of a call in one lane
call; it must equal the per-hit ``extend_hit`` path placement for
placement and in every ``ExtendStats`` counter, fallbacks included.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.kernels import LaneTrace, traceback_lanes
from repro.core.recurrence import align_reference
from repro.core.scoring import (
    affine_gap_scoring,
    global_scheme,
    linear_gap_scoring,
    local_scheme,
    matrix_subst_scoring,
    semiglobal_scheme,
    simple_subst_scoring,
)
from repro.mapping import extend
from repro.mapping.cigar import cigar_string, from_alignment
from repro.mapping.extend import ExtendStats, extend_hit, extend_hits, placement_key
from repro.mapping.mapper import resolve_config
from repro.search.pipeline import search
from repro.search.topk import Hit
from repro.stage import global_kernel_cache
from repro.util.checks import ValidationError
from repro.util.encoding import encode, reverse_complement
from repro.workloads.reads import read_pairs

MATRIX = matrix_subst_scoring(
    [[5, -1, 1, -1], [-1, 5, -1, 1], [1, -1, 5, -1], [-1, 1, -1, 5]]
)
SIMPLE = simple_subst_scoring(2, -1)

SCHEMES = {
    f"{kind}-{gap}-{sub}": make(
        linear_gap_scoring(subst, -1)
        if gap == "linear"
        else affine_gap_scoring(subst, -3, -1)
    )
    for kind, make in (("global", global_scheme), ("semiglobal", semiglobal_scheme))
    for gap in ("linear", "affine")
    for sub, subst in (("simple", SIMPLE), ("matrix", MATRIX))
}
# Corner gap models: a free gap open (E/F ties with H everywhere), a gap
# as costly as two mismatches, and a mismatch costlier than a deletion
# plus an insertion (so global alignments open with a D run then an I
# run, and the walk's E state reaches row 1).
HARSH = simple_subst_scoring(2, -6)
SCHEMES["semiglobal-affine0-simple"] = semiglobal_scheme(affine_gap_scoring(SIMPLE, 0, -1))
SCHEMES["global-linear2-simple"] = global_scheme(linear_gap_scoring(SIMPLE, -2))
SCHEMES["global-affine-harsh"] = global_scheme(affine_gap_scoring(HARSH, -2, -1))
SCHEMES["semiglobal-affine-harsh"] = semiglobal_scheme(affine_gap_scoring(HARSH, -2, -1))

FAST = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def expected(q, s, scheme) -> tuple:
    r = align_reference(q, s, scheme)
    cigar = cigar_string(from_alignment(r, q.size))
    return (r.score, r.query_start, r.query_end, r.subject_start, r.subject_end, cigar)


def observed(t: LaneTrace) -> tuple:
    return (
        t.score,
        t.query_start,
        t.query_end,
        t.subject_start,
        t.subject_end,
        cigar_string(t.cigar),
    )


def check_lanes(pairs, scheme):
    traces = traceback_lanes([q for q, _ in pairs], [s for _, s in pairs], scheme)
    assert len(traces) == len(pairs)
    for (q, s), t in zip(pairs, traces):
        assert observed(t) == expected(q, s, scheme), (q, s)


@st.composite
def seq(draw, max_len=24):
    """Encoded sequence over a 1–4 letter alphabet (small ones tie a lot)."""
    alphabet = draw(st.integers(1, 4))
    codes = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=max_len))
    return np.array(codes, dtype=np.uint8)


@st.composite
def repeat_pair(draw):
    """A tandem repeat vs. a copy with a unit (or a base) inserted/deleted."""
    unit = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    copies = draw(st.integers(2, 8))
    base = unit * copies
    other = list(base)
    at = draw(st.integers(0, len(other) - 1))
    span = draw(st.sampled_from([1, len(unit)]))
    if draw(st.booleans()):
        del other[at : at + span]
    else:
        other[at:at] = unit[:span]
    if not other:
        other = unit
    pair = [np.array(base, dtype=np.uint8), np.array(other, dtype=np.uint8)]
    if draw(st.booleans()):
        pair.reverse()
    return tuple(pair)


class TestLaneKernelEqualsReference:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @FAST
    @given(pairs=st.lists(st.tuples(seq(), seq()), min_size=1, max_size=6))
    def test_mixed_shapes(self, name, pairs):
        check_lanes(pairs, SCHEMES[name])

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @FAST
    @given(pair=st.tuples(seq(40), seq(40)))
    def test_single_lane(self, name, pair):
        check_lanes([pair], SCHEMES[name])

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @FAST
    @given(pair=st.tuples(seq(), seq()), lanes=st.integers(2, 40))
    def test_one_pair_in_many_lanes(self, name, pair, lanes):
        traces = traceback_lanes([pair[0]] * lanes, [pair[1]] * lanes, SCHEMES[name])
        want = expected(pair[0], pair[1], SCHEMES[name])
        assert [observed(t) for t in traces] == [want] * lanes

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @FAST
    @given(pairs=st.lists(repeat_pair(), min_size=1, max_size=5))
    def test_repeats_and_indels_in_repeats(self, name, pairs):
        check_lanes(pairs, SCHEMES[name])

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_homopolymers(self, name):
        pairs = [
            (encode("A" * n), encode("A" * m))
            for n in (1, 2, 5, 9)
            for m in (1, 3, 5, 12)
        ]
        pairs += [(encode("AAAAC"), encode("CAAAAAAA")), (encode("GGGG"), encode("TTTT"))]
        check_lanes(pairs, SCHEMES[name])

    @pytest.mark.parametrize(
        "name, q, s",
        [
            # Gap runs that reach the border inside the walk's E/F state,
            # where the state must hand back to H one cell early.
            ("global-affine-harsh", [1, 1, 3], [0, 3, 0]),
            ("global-affine-harsh", [1, 3, 3, 3, 2], [0]),
            ("semiglobal-affine-harsh", [0, 1, 0, 0, 1, 2, 2, 0], [1, 2, 1, 2, 2, 0, 0]),
            ("semiglobal-affine-harsh", [2, 0, 0, 2, 1, 0], [2, 1, 2, 1, 0, 2, 0, 1]),
        ],
    )
    def test_gap_runs_at_the_border(self, name, q, s):
        pair = (np.array(q, dtype=np.uint8), np.array(s, dtype=np.uint8))
        check_lanes([pair, pair[::-1]], SCHEMES[name])

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_read_in_window_shapes(self, name):
        # Mapping's shape: a read against slices and whole windows of a
        # reference that contains a mutated copy of it, lanes of mixed m.
        rng = np.random.default_rng(11)
        pairs = []
        for width in (60, 95, 130, 130, 170):
            window = rng.integers(0, 4, width).astype(np.uint8)
            read = window[20:70].copy()
            read[rng.integers(0, read.size, 3)] ^= 1
            read = np.delete(read, 25)
            pairs.append((read, window))
        check_lanes(pairs, SCHEMES[name])


class TestLaneKernelApi:
    def test_empty_batch(self):
        assert traceback_lanes([], [], SCHEMES["global-linear-simple"]) == []

    def test_rejects_local(self):
        scheme = local_scheme(linear_gap_scoring(SIMPLE, -1))
        with pytest.raises(ValidationError):
            traceback_lanes([encode("ACGT")], [encode("ACGT")], scheme)

    def test_rejects_mismatched_batch(self):
        with pytest.raises(ValidationError):
            traceback_lanes(
                [encode("ACGT")] * 2, [encode("ACGT")], SCHEMES["global-linear-simple"]
            )

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValidationError):
            traceback_lanes(
                [np.empty(0, np.uint8)], [encode("ACGT")], SCHEMES["global-linear-simple"]
            )

    def test_kernel_is_cached_per_scheme(self):
        scheme = SCHEMES["semiglobal-affine-matrix"]
        traceback_lanes([encode("ACGT")], [encode("ACGGT")], scheme)
        misses = global_kernel_cache.misses
        traceback_lanes([encode("ACGTA")], [encode("CGT")], scheme)
        assert global_kernel_cache.misses == misses


# -- batched extension ---------------------------------------------------------
SCHEME = resolve_config(None).search.resolved_scheme()


def _stats_counts(stats: ExtendStats) -> ExtendStats:
    """Every counter; wall time is the one field the two paths may differ in."""
    return replace(stats, seconds=0.0)


def _full(p) -> tuple:
    return placement_key(p) + (p.score, p.query_id, p.chunk_id, p.seeds, p.query_end)


def _per_hit(jobs, **kwargs):
    stats = ExtendStats()
    out = [
        extend_hit(q, hit, SCHEME, window=w, query_id=qid, strand=strand, stats=stats, **kwargs)
        for q, hit, w, qid, strand in jobs
    ]
    return out, stats


def _batched(jobs, **kwargs):
    stats = ExtendStats()
    return extend_hits(jobs, SCHEME, stats=stats, **kwargs), stats


def _synthetic_jobs():
    """Hits that take every path: certified slice, score and edge fallbacks,
    no envelope, and a slice that covers the whole window."""
    rng = np.random.default_rng(3)
    jobs = []
    for chunk in range(4):
        window = rng.integers(0, 4, 400).astype(np.uint8)
        at = 60 + 70 * chunk
        query = window[at : at + 80].copy()
        base = dict(query_id=chunk, record="ref", start=1000 * chunk, end=1000 * chunk + 400)
        base.update(chunk_id=chunk, score=160, seeds=5)
        honest = Hit(**base, meta={"diag_lo": at, "diag_hi": at})
        lying = Hit(**base, meta={"diag_lo": 0, "diag_hi": 0})  # slice misses it
        tight = Hit(**base, meta={"diag_lo": at + 16, "diag_hi": at + 16})  # cut edge
        bare = Hit(**base)  # no envelope
        wide = Hit(**base, meta={"diag_lo": -100, "diag_hi": 500})  # whole window
        for hit in (honest, lying, tight, bare, wide):
            jobs.append((query, hit, window, chunk, "+"))
    return jobs


class TestBatchedExtension:
    def test_every_path_matches_per_hit(self):
        jobs = _synthetic_jobs()
        single, s_stats = _per_hit(jobs)
        batched, b_stats = _batched(jobs)
        assert [_full(p) for p in batched] == [_full(p) for p in single]
        assert _stats_counts(b_stats) == _stats_counts(s_stats)
        # Both fallback kinds, the certified slice and the full path all ran.
        assert b_stats.banded and b_stats.fallback_score and b_stats.fallback_edge
        assert b_stats.full == 8
        assert b_stats.hits == len(jobs)

    def test_edge_fallback_with_zero_pad(self):
        # A zero-pad slice around the exact placement: the score matches,
        # but the segment touches both cut edges, so it must be re-traced.
        jobs = _synthetic_jobs()[:1]
        batched, stats = _batched(jobs, extend_pad=0)
        single, s_stats = _per_hit(jobs, extend_pad=0)
        assert stats.fallback_edge == 1 and stats.banded == 0
        assert [_full(p) for p in batched] == [_full(p) for p in single]
        assert _stats_counts(stats) == _stats_counts(s_stats)

    def test_full_mode_matches_per_hit(self):
        jobs = _synthetic_jobs()
        single, s_stats = _per_hit(jobs, mode="full")
        batched, b_stats = _batched(jobs, mode="full")
        assert [_full(p) for p in batched] == [_full(p) for p in single]
        assert _stats_counts(b_stats) == _stats_counts(s_stats)
        assert b_stats.full == b_stats.hits

    def test_chunking_is_transparent(self, monkeypatch):
        jobs = _synthetic_jobs()
        whole, w_stats = _batched(jobs)
        monkeypatch.setattr(extend, "LANE_CHUNK", 3)
        chunked, c_stats = _batched(jobs)
        assert [_full(p) for p in chunked] == [_full(p) for p in whole]
        assert _stats_counts(c_stats) == _stats_counts(w_stats)

    def test_search_hits_match_per_hit(self):
        # Real search hits (window bases in meta), plus copies of them
        # with lying envelopes so both kinds of fallback ride along.
        rs = read_pairs(10, read_length=80, reference_length=6_000, seed=5)
        cfg = resolve_config(None, min_score=120)
        scfg = replace(cfg.search, hit_window=True)
        reads = [np.asarray(r) for r in rs.reads]
        oriented = reads + [reverse_complement(r) for r in reads]
        hits = search(oriented, rs.reference, **scfg.search_kwargs()).topk()
        jobs = []
        for qid, qhits in enumerate(hits):
            strand = "-" if qid >= len(reads) else "+"
            for hit in qhits:
                jobs.append((oriented[qid], hit, None, qid % len(reads), strand))
                meta = dict(hit.meta)
                meta.update(diag_lo=0, diag_hi=0)
                jobs.append((oriented[qid], replace(hit, meta=meta), None, qid, strand))
        assert len(jobs) >= 20
        single, s_stats = _per_hit(jobs)
        batched, b_stats = _batched(jobs)
        assert [_full(p) for p in batched] == [_full(p) for p in single]
        assert _stats_counts(b_stats) == _stats_counts(s_stats)
        assert b_stats.banded and b_stats.fallback_score

    def test_missing_window_raises(self):
        hit = Hit(query_id=0, record="r", start=0, end=10, score=1, chunk_id=0)
        with pytest.raises(ValueError):
            extend_hits([(encode("ACGT"), hit, None, 0, "+")], SCHEME)
