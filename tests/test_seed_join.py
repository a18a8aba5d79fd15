"""Block seed join vs. an independent brute-force oracle.

The oracle below knows nothing about :class:`QueryIndex`, k-mer codes or
sorting: it compares k-mers as tuples of bases with Python sets and loops.
Every (window, query) pair's distinct shared k-mer count and diagonal
envelope, the admitted requests and the prefilter's counters must equal
it, for windows of mixed widths (some shorter than k) over several
records, in both the exact-bitmap (k ≤ 11) and the pre-test (k > 11)
regimes, and for repetitive and duplicate queries.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.search import (
    QueryIndex,
    SearchConfig,
    SeedPrefilter,
    exhaustive_topk,
    kmer_codes,
    resolve_windowing,
    search,
    search_one,
    search_topk,
)
from repro.search.seeds import BLOCK_WINDOWS
from repro.shard import ShardPlan, ShardWorkerPool
from repro.util.checks import ValidationError
from repro.workloads import chunk_sequence, random_genome
from repro.workloads.chunks import Chunk

from helpers import planted_instance

KS = (1, 5, 11, 12, 13, 31)


def _kmers(seq, k):
    """k-mer tuple → positions, by plain slicing."""
    out = {}
    for p in range(len(seq) - k + 1):
        out.setdefault(tuple(int(b) for b in seq[p : p + k]), []).append(p)
    return out


def oracle_join(queries, windows, k):
    """``(window, qid, seeds, diag_lo, diag_hi)`` rows, sorted, by brute force."""
    qkm = [_kmers(q, k) for q in queries]
    rows = []
    for w, s in enumerate(windows):
        skm = _kmers(s, k)
        for qid, km in enumerate(qkm):
            shared = skm.keys() & km.keys()
            if not shared:
                continue
            diags = [ps - pq for x in shared for ps in skm[x] for pq in km[x]]
            rows.append((w, qid, len(shared), min(diags), max(diags)))
    return rows


# -- generated instances -----------------------------------------------------
@st.composite
def _query(draw, k, rng):
    length = draw(st.integers(k, k + 30))
    kind = draw(st.sampled_from(("random", "poly", "tandem")))
    if kind == "random":
        return rng.integers(0, 4, length).astype(np.uint8)
    if kind == "poly":
        return np.full(length, draw(st.integers(0, 3)), dtype=np.uint8)
    unit = rng.integers(0, 4, draw(st.integers(2, 4))).astype(np.uint8)
    return np.resize(unit, length)


@st.composite
def instances(draw):
    """Queries (with duplicates) plus windows of mixed widths over records."""
    k = draw(st.sampled_from(KS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    queries = [draw(_query(k, rng)) for _ in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(0, 2))):  # exact duplicates
        queries.append(queries[draw(st.integers(0, len(queries) - 1))].copy())
    # Records mix random stretches with (partial) query copies, so windows
    # share k-mers with the queries in every regime.
    records = []
    for _ in range(draw(st.integers(1, 3))):
        parts = []
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                stretch = rng.integers(0, 4, draw(st.integers(0, 40)))
                parts.append(stretch.astype(np.uint8))
            else:
                q = queries[draw(st.integers(0, len(queries) - 1))]
                a = draw(st.integers(0, q.size))
                parts.append(q[a : a + draw(st.integers(0, q.size))])
        records.append(np.concatenate(parts))
    chunks = []
    for _ in range(draw(st.integers(1, 8))):
        r = draw(st.integers(0, len(records) - 1))
        seq = records[r]
        start = draw(st.integers(0, seq.size))
        width = draw(st.integers(0, 70))
        window = seq[start : start + width]
        chunks.append(Chunk(len(chunks), f"rec{r}", start, window))
    min_seeds = draw(st.integers(1, 3))
    return k, queries, chunks, min_seeds


_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestBlockJoinOracle:
    @_SETTINGS
    @given(instances())
    def test_join_matches_oracle(self, inst):
        k, queries, chunks, _ = inst
        windows = [c.sequence for c in chunks]
        got = QueryIndex(queries, k=k).seed_join(windows)
        rows = list(zip(*(a.tolist() for a in got)))
        assert rows == oracle_join(queries, windows, k)

    @_SETTINGS
    @given(instances())
    def test_seed_scan_is_the_one_window_case(self, inst):
        k, queries, chunks, _ = inst
        index = QueryIndex(queries, k=k)
        for chunk in chunks:
            counts, lo, hi = index.seed_scan(chunk.sequence)
            rows = oracle_join(queries, [chunk.sequence], k)
            expect = {q: (s, a, b) for _, q, s, a, b in rows}
            for qid in range(len(queries)):
                if qid in expect:
                    assert (counts[qid], lo[qid], hi[qid]) == expect[qid]
                else:
                    assert counts[qid] == 0 and lo[qid] > hi[qid]

    @_SETTINGS
    @given(instances())
    def test_prefilter_requests_and_counters(self, inst):
        k, queries, chunks, min_seeds = inst
        windows = [c.sequence for c in chunks]
        lengths = [q.size for q in queries]
        admitted = [r for r in oracle_join(queries, windows, k) if r[2] >= min_seeds]
        expect = [
            ((q, chunks[w].id), q, id(chunks[w]), s, lo, hi)
            for w, q, s, lo, hi in admitted
        ]
        total = len(queries) * len(chunks)
        full_cells = sum(lengths) * sum(w.size for w in windows)
        kept_cells = sum(lengths[q] * windows[w].size for w, q, *_ in admitted)

        index = QueryIndex(queries, k=k)
        block = SeedPrefilter(index, min_seeds=min_seeds)
        single = SeedPrefilter(index, min_seeds=min_seeds)
        by_block = block.expand(chunks)
        by_window = [r for c in chunks for r in single.expand(c)]
        for pf, reqs in ((block, by_block), (single, by_window)):
            got = [
                (
                    r.key,
                    r.meta["query_id"],
                    id(r.meta["chunk"]),
                    r.meta["seeds"],
                    r.meta["diag_lo"],
                    r.meta["diag_hi"],
                )
                for r in reqs
            ]
            assert got == expect
            for r in reqs:
                assert r.query is index.queries[r.meta["query_id"]]
                assert r.subject is r.meta["chunk"].sequence
            assert pf.candidates == total
            assert pf.admitted == len(admitted)
            assert pf.rejected == total - len(admitted)
            assert pf.rejected_cells == full_cells - kept_cells


class TestKmerCodes:
    @pytest.mark.parametrize("k", range(1, 32))
    def test_matches_naive_base4(self, k):
        rng = np.random.default_rng(k)
        seq = rng.integers(0, 4, k + 25).astype(np.uint8)
        seq[-k:] = 3  # the last k-mer is all-T: 4^k − 1, the top code
        naive = [
            sum(int(seq[p + j]) * 4 ** (k - 1 - j) for j in range(k))
            for p in range(seq.size - k + 1)
        ]
        got = kmer_codes(seq, k)
        assert got.dtype == np.int64
        assert got.tolist() == naive
        assert naive[-1] == 4**k - 1

    def test_exactly_k_long(self):
        seq = np.array([3] * 31, dtype=np.uint8)
        assert kmer_codes(seq, 31).tolist() == [2**62 - 1]


class TestWindowCounting:
    """``items_in`` counts reference windows, never prefilter blocks."""

    def _instance(self):
        # 40 bp queries → 80 bp windows every 24 bp: several full blocks
        # plus a partial one.
        ref, queries, _ = planted_instance(40_000, 3, 40, seed=21)
        window, overlap = resolve_windowing(40)
        n = sum(1 for _ in chunk_sequence(ref, window, overlap))
        assert n > 2 * BLOCK_WINDOWS and n % BLOCK_WINDOWS
        return ref, queries, n

    def test_in_process_search(self):
        ref, queries, n = self._instance()
        run = search(queries, ref, k=3)
        run.topk()
        assert run.stats.items_in == n
        assert run.stats.stages["source"].items == n
        assert run.stats.candidates == n * len(queries)

    def test_pool_served_search(self):
        ref, queries, n = self._instance()
        plan = ShardPlan(num_shards=2, search=SearchConfig(k=3), start_method="fork")
        with ShardWorkerPool(ref, plan=plan, timeout=120) as pool:
            pool.search_topk(queries)
            workers = pool.stats.last_run.workers
        assert sum(w.chunks for w in workers) == n
        assert sum(w.candidates for w in workers) == n * len(queries)


class TestEmptyQuerySet:
    @pytest.fixture
    def ref(self):
        return random_genome(2000, seed=4)

    def test_search(self, ref):
        with pytest.raises(ValidationError, match="at least one query"):
            search([], ref)

    def test_search_topk(self, ref):
        with pytest.raises(ValidationError, match="at least one query"):
            search_topk([], ref)

    def test_search_one(self, ref):
        with pytest.raises(ValidationError):
            search_one("", ref)

    def test_exhaustive_topk(self, ref):
        with pytest.raises(ValidationError, match="at least one query"):
            exhaustive_topk([], ref)
