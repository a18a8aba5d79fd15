"""K-mer seed prefilter: the cheap rejection stage of seed-and-verify.

Exact full-DP scoring of every query against every reference window is
quadratic waste — real database search (BLAST-family, read mappers) first
requires a handful of shared exact k-mers.  :class:`QueryIndex` holds the
sorted distinct k-mer codes of a query set plus CSR owner arrays: for each
k-mer, the queries containing it with the first and last position of it in
each.  It is built by one sort, with no per-k-mer Python.

A block of consecutive reference windows is seeded by one sort-merge join
(:meth:`QueryIndex.seed_join`): the windows are concatenated and k-mer
coded by shift-or; a bitmap over each code's low bits rejects most
positions; the survivors are located in the sorted table by
``searchsorted``, with matches straddling a window end masked out.  Sorting
the (window, k-mer) keys gives each distinct match its first/last window
position, expanding those over the k-mer's owners gives (window, query)
keys, and sorting those gives each pair's distinct shared k-mer count and
seed-diagonal envelope.  Working memory scales with the matches, never
with windows × queries.

:class:`SeedPrefilter` adapts this to the pipeline's Prefilter protocol: it
expands one :class:`~repro.workloads.chunks.Chunk`, or a block (list) of
them, into candidate :class:`~repro.engine.stages.Request` objects for
exactly the queries sharing at least ``min_seeds`` distinct k-mers with
each window, and accounts every rejected (query, window) pair — the cells
the verify stage never has to relax.
"""

from __future__ import annotations

import numpy as np

from repro.engine.stages import Request
from repro.util.checks import ValidationError, check_positive
from repro.util.encoding import encode
from repro.workloads.chunks import Chunk

__all__ = ["kmer_codes", "QueryIndex", "SeedPrefilter", "BLOCK_WINDOWS"]

#: 4^k must stay inside int64: k ≤ 31.
MAX_K = 31
#: Reference windows seeded by one join: what :func:`repro.search.search`
#: hands the prefilter per source item.
BLOCK_WINDOWS = 256
#: The membership bitmap indexes a code's low bits (exact for k ≤ 11).
_BITMAP_BITS = 22
#: Empty-envelope sentinels of :meth:`QueryIndex.seed_scan`.
_BIG = np.int64(2**62)


def _shift_or(seq: np.ndarray, k: int) -> np.ndarray:
    """Base-4 codes of every k-mer of ``seq`` (``seq.size ≥ k``)."""
    n = seq.size - k + 1
    wide = seq.astype(np.int64)
    codes = wide[:n].copy()
    for t in range(1, k):
        codes <<= 2
        codes |= wide[t : t + n]
    return codes


def kmer_codes(sequence: np.ndarray, k: int) -> np.ndarray:
    """All overlapping k-mers of an encoded sequence as base-4 integers."""
    if not 1 <= k <= MAX_K:
        raise ValidationError(f"k must be in [1, {MAX_K}], got {k}")
    seq = np.asarray(sequence, dtype=np.uint8)
    if seq.size < k:
        return np.empty(0, dtype=np.int64)
    return _shift_or(seq, k)


def _group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values in a sorted array."""
    new = np.empty(sorted_keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def _segments(seqs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate sequences: ``(flat, starts, lengths)``."""
    lengths = np.fromiter((s.size for s in seqs), dtype=np.int64, count=len(seqs))
    starts = np.zeros(len(seqs), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return np.concatenate(seqs), starts, lengths


def _locate(g, starts, lengths, k):
    """Flat k-mer offsets → ``(segment, position, inside)``.

    ``inside`` is False for k-mers straddling a segment end.
    """
    seg = np.searchsorted(starts, g, side="right") - 1
    pos = g - starts[seg]
    return seg, pos, pos + k <= lengths[seg]


class QueryIndex:
    """Inverted k-mer index over a query set.

    ``kmers`` is the sorted array of every distinct k-mer occurring in any
    query.  Its owners are ``owner_qid[owner_ptr[i]:owner_ptr[i + 1]]``
    (ascending), and ``owner_qlo``/``owner_qhi`` hold the first and last
    position of ``kmers[i]`` in each owner — all the seed join needs for
    the diagonal envelope.
    """

    def __init__(self, queries, k: int = 11):
        if not 1 <= k <= MAX_K:
            raise ValidationError(f"k must be in [1, {MAX_K}], got {k}")
        self.k = k
        self.queries = [encode(q) for q in queries]
        if not self.queries:
            raise ValidationError("search needs at least one query")
        for qid, q in enumerate(self.queries):
            if q.size < k:
                raise ValidationError(
                    f"query {qid} is shorter ({q.size}) than the seed size k={k}"
                )
        self.lengths = np.array([q.size for q in self.queries], dtype=np.int64)
        bits = min(2 * k, _BITMAP_BITS)
        self._mask = np.int64((1 << bits) - 1)
        self._bitmap = np.zeros(1 << bits, dtype=bool)
        flat, starts, lengths = _segments(self.queries)
        codes = _shift_or(flat, k)
        qid, qpos, inside = _locate(np.arange(codes.size), starts, lengths, k)
        codes, qid, qpos = codes[inside], qid[inside], qpos[inside]
        # Occurrences are generated in (qid, qpos) order, so a stable sort
        # on the code leaves them sorted by (code, qid, qpos).
        order = np.argsort(codes, kind="stable")
        codes, qid, qpos = codes[order], qid[order], qpos[order]
        kmer_start = _group_starts(codes)
        same_owner = (codes[1:] == codes[:-1]) & (qid[1:] == qid[:-1])
        owner_start = np.flatnonzero(np.append(True, ~same_owner))
        owner_end = np.append(owner_start[1:], codes.size) - 1
        self.kmers = codes[kmer_start]
        self.owner_qid = qid[owner_start]
        self.owner_qlo = qpos[owner_start]
        self.owner_qhi = qpos[owner_end]
        self.owner_ptr = np.append(
            np.searchsorted(owner_start, kmer_start), owner_start.size
        )
        self._bitmap[self.kmers & self._mask] = True

    def __len__(self) -> int:
        return len(self.queries)

    def seed_join(self, sequences):
        """Seed a block of windows against the query set in one join.

        Returns ``(window, qid, seeds, diag_lo, diag_hi)`` over every
        (window, query) pair sharing at least one k-mer, sorted by
        ``(window, qid)``: ``seeds`` counts the distinct shared k-mers, and
        ``[diag_lo, diag_hi]`` spans the diagonals ``d = window position −
        query position`` of every shared-k-mer occurrence pair — the anchor
        the verify stage centers its band on.
        """
        k = self.k
        none = (np.empty(0, dtype=np.int64),) * 5
        if not len(sequences):
            return none
        flat, starts, lengths = _segments(sequences)
        if flat.size < k:
            return none
        codes = _shift_or(flat, k)
        g = np.flatnonzero(self._bitmap[codes & self._mask])
        code = codes[g]
        kid = np.minimum(np.searchsorted(self.kmers, code), self.kmers.size - 1)
        hit = self.kmers[kid] == code
        win, pos, inside = _locate(g[hit], starts, lengths, k)
        win, pos, kid = win[inside], pos[inside], kid[hit][inside]
        if win.size == 0:
            return none
        # Distinct (window, k-mer) matches with their first/last position;
        # the stable sort keeps positions ascending inside each group.
        key = win * self.kmers.size + kid
        order = np.argsort(key, kind="stable")
        first = _group_starts(key[order])
        at_lo = order[first]
        at_hi = order[np.append(first[1:], key.size) - 1]
        m_win, m_kid = win[at_lo], kid[at_lo]
        p_lo, p_hi = pos[at_lo], pos[at_hi]
        # Expand every match over its k-mer's owners (CSR gather).  The
        # envelope over all (window pos p, query pos q) occurrence pairs
        # factors: min(p − q) = min p − max q, max(p − q) = max p − min q.
        base = self.owner_ptr[m_kid]
        fan = self.owner_ptr[m_kid + 1] - base
        rep = np.repeat(np.arange(fan.size), fan)
        offset = np.cumsum(fan) - fan
        own = base[rep] + np.arange(rep.size) - offset[rep]
        nq = len(self.queries)
        pair = m_win[rep] * nq + self.owner_qid[own]
        d_lo = p_lo[rep] - self.owner_qhi[own]
        d_hi = p_hi[rep] - self.owner_qlo[own]
        # Per (window, query): one entry per distinct shared k-mer.
        order = np.argsort(pair, kind="stable")
        pair = pair[order]
        start = _group_starts(pair)
        seeds = np.diff(np.append(start, pair.size))
        diag_lo = np.minimum.reduceat(d_lo[order], start)
        diag_hi = np.maximum.reduceat(d_hi[order], start)
        pair = pair[start]
        return pair // nq, pair % nq, seeds, diag_lo, diag_hi

    def seed_counts(self, sequence: np.ndarray) -> np.ndarray:
        """Distinct shared k-mers between ``sequence`` and each query."""
        return self.seed_scan(sequence)[0]

    def seed_scan(self, sequence: np.ndarray):
        """Seed counts plus the per-query seed-diagonal envelope.

        The one-window case of :meth:`seed_join`, as dense per-query arrays
        ``(counts, diag_lo, diag_hi)``.  Queries with no seeds keep
        ``diag_lo > diag_hi`` sentinels.
        """
        nq = len(self.queries)
        counts = np.zeros(nq, dtype=np.int64)
        diag_lo = np.full(nq, _BIG, dtype=np.int64)
        diag_hi = np.full(nq, -_BIG, dtype=np.int64)
        _, qid, seeds, lo, hi = self.seed_join([np.asarray(sequence, dtype=np.uint8)])
        counts[qid] = seeds
        diag_lo[qid] = lo
        diag_hi[qid] = hi
        return counts, diag_lo, diag_hi


class SeedPrefilter:
    """Prefilter stage: Chunk(s) → candidate Requests for seed-sharing queries.

    Satisfies the :class:`repro.engine.stages.Prefilter` protocol; the
    rejection counters feed the pipeline's cells-skipped accounting.
    """

    def __init__(self, index: QueryIndex, min_seeds: int = 2):
        self.index = index
        self.min_seeds = check_positive(min_seeds, "min_seeds")
        self.candidates = 0
        self.admitted = 0
        self.rejected = 0
        self.rejected_cells = 0

    def expand(self, item) -> list[Request]:
        """Requests for one window, or a block (list) of consecutive ones.

        Emitted in window order, queries ascending within a window.
        """
        chunks = [item] if isinstance(item, Chunk) else item
        win, qid, seeds, diag_lo, diag_hi = self.index.seed_join(
            [c.sequence for c in chunks]
        )
        keep = seeds >= self.min_seeds
        win, qid = win[keep], qid[keep]
        lengths = self.index.lengths
        widths = np.array([len(c) for c in chunks], dtype=np.int64)
        candidates = len(self.index) * len(chunks)
        self.candidates += candidates
        self.admitted += int(win.size)
        self.rejected += candidates - int(win.size)
        self.rejected_cells += int(lengths.sum()) * int(widths.sum()) - int(
            (lengths[qid] * widths[win]).sum()
        )
        queries = self.index.queries
        return [
            Request(
                key=(q, chunks[w].id),
                query=queries[q],
                subject=chunks[w].sequence,
                meta={
                    "query_id": q,
                    "chunk": chunks[w],
                    "seeds": s,
                    # Seed-diagonal envelope: an admitted query always has
                    # ≥ min_seeds ≥ 1 seeds, so the envelope is real.
                    "diag_lo": lo,
                    "diag_hi": hi,
                },
            )
            for w, q, s, lo, hi in zip(
                win.tolist(),
                qid.tolist(),
                seeds[keep].tolist(),
                diag_lo[keep].tolist(),
                diag_hi[keep].tolist(),
            )
        ]
