"""Alignment reconstruction in linear space (paper §III-A, Hirschberg [24]).

Score-only alignment runs in O(min(n,m)) space; reconstructing the actual
alignment would need the full O(n·m) matrix, which is prohibitive for long
DNA.  This module implements the divide-and-conquer traceback the paper
uses: recursively find optimal midpoints of the DP matrix (at the cost of at
most doubling the number of relaxed cells).

* linear gap models: classic Hirschberg midpoint recursion;
* affine gap models: Myers–Miller — the midpoint candidates include a
  vertical gap *crossing* the split row, handled by recursing with
  ``top_open`` boundary flags and a start-in-E walker, so one gap-open is
  never charged twice;
* local / semi-global: reduced to a global segment first — a forward sweep
  finds the end cell, a backward (reversed) sweep finds the start cell, and
  the segment in between is aligned globally.  End/start reduction is exact
  because optimal local/semi-global alignments never begin or end inside a
  gap (trimming a boundary gap never lowers the score).

Walker note: ``fill_block`` stores F in scan form, F(i,j) = max over k<j of
H′(i,k)+open+(j−k)·extend where H′ excludes F itself.  Whenever the textbook
open-branch equality fails because H(i,j−1) came from F, the extension
branch F(i,j−1)+extend is at least as good (open ≤ 0), so the walker always
finds a valid move.
"""

from __future__ import annotations

import numpy as np

from repro.core.blockdp import fill_block, sweep_best, sweep_last_rows
from repro.core.types import (
    NEG_INF,
    AlignmentResult,
    AlignmentScheme,
    AlignmentType,
    Scoring,
)
from repro.core.scoring import global_scheme
from repro.util.checks import ValidationError, check_sequence
from repro.util.encoding import CODE_TO_CHAR

__all__ = ["align_block", "align_linear_space", "DEFAULT_BLOCK_CUTOFF"]

#: Below this many DP cells a block is solved by full-matrix fill + walk.
DEFAULT_BLOCK_CUTOFF = 4096

_ST_H, _ST_E, _ST_F = 0, 1, 2

# Traceback edit operations: (query_consumed, subject_consumed).
_DIAG, _UP, _LEFT = (1, 1), (1, 0), (0, 1)


def _walk_block(H, E, F, q, s, scoring: Scoring, start_state: int) -> list:
    """Walk a global block from its bottom-right corner to (0, 0).

    Returns edit ops in forward order.  ``start_state`` lets Myers–Miller
    enter mid-gap (E state) when a vertical gap crosses the block boundary.
    """
    gaps = scoring.gaps
    table = scoring.subst.table
    n, m = H.shape[0] - 1, H.shape[1] - 1
    i, j = n, m
    ops: list = []
    if gaps.is_affine:
        go, ge = gaps.open, gaps.extend
        state = start_state
        while i > 0 or j > 0:
            if state == _ST_H:
                if i == 0:
                    ops.append(_LEFT)
                    j -= 1
                elif j == 0:
                    ops.append(_UP)
                    i -= 1
                elif H[i, j] == H[i - 1, j - 1] + table[q[i - 1], s[j - 1]]:
                    ops.append(_DIAG)
                    i -= 1
                    j -= 1
                elif H[i, j] == E[i, j]:
                    state = _ST_E
                elif H[i, j] == F[i, j]:
                    state = _ST_F
                else:  # pragma: no cover - matrix inconsistency
                    raise AssertionError("traceback: no valid H move")
            elif state == _ST_E:
                # Prefer extension: if the walker closed a gap that the H
                # cell above immediately re-opens, consecutive UP ops would
                # merge into one run and rescore above the optimum — which
                # is impossible, hence extension-first is always safe.
                ops.append(_UP)
                if i > 1 and E[i, j] == E[i - 1, j] + ge:
                    pass  # stay in E
                else:
                    assert E[i, j] == H[i - 1, j] + go + ge, "traceback: bad E close"
                    state = _ST_H
                i -= 1
            else:  # _ST_F
                ops.append(_LEFT)
                if j > 1 and F[i, j] == F[i, j - 1] + ge:
                    pass  # stay in F
                else:
                    assert F[i, j] == H[i, j - 1] + go + ge, "traceback: bad F close"
                    state = _ST_H
                j -= 1
    else:
        g = gaps.gap
        while i > 0 or j > 0:
            if i == 0:
                ops.append(_LEFT)
                j -= 1
            elif j == 0:
                ops.append(_UP)
                i -= 1
            elif H[i, j] == H[i - 1, j - 1] + table[q[i - 1], s[j - 1]]:
                ops.append(_DIAG)
                i -= 1
                j -= 1
            elif H[i, j] == H[i - 1, j] + g:
                ops.append(_UP)
                i -= 1
            else:
                assert H[i, j] == H[i, j - 1] + g, "traceback: no valid move"
                ops.append(_LEFT)
                j -= 1
    ops.reverse()
    return ops


def _block_ops(q, s, scoring: Scoring, top_open: bool, bottom_open: bool) -> list:
    """Solve one small block exactly (full matrices + walk)."""
    n, m = len(q), len(s)
    if n == 0:
        return [_LEFT] * m
    if m == 0:
        return [_UP] * n
    H, E, F = fill_block(q, s, scoring, top_open=top_open)
    start = _ST_E if (bottom_open and scoring.gaps.is_affine) else _ST_H
    return _walk_block(H, E, F, q, s, scoring, start)


def _hirschberg_ops(
    q,
    s,
    scoring: Scoring,
    top_open: bool = False,
    bottom_open: bool = False,
    cutoff: int = DEFAULT_BLOCK_CUTOFF,
) -> list:
    """Divide-and-conquer edit script for a global (sub-)alignment."""
    n, m = len(q), len(s)
    if n <= 1 or m <= 1 or (n + 1) * (m + 1) <= cutoff:
        return _block_ops(q, s, scoring, top_open, bottom_open)

    h = n // 2
    gaps = scoring.gaps
    fwd_H, fwd_E = sweep_last_rows(q[:h], s, scoring, top_open=top_open)
    bwd_H, bwd_E = sweep_last_rows(
        q[h:][::-1], s[::-1], scoring, top_open=bottom_open
    )
    join_H = fwd_H + bwd_H[::-1]
    if gaps.is_affine:
        join_E = fwd_E + bwd_E[::-1] - gaps.open  # one gap-open charged once
        jH = int(np.argmax(join_H))
        jE = int(np.argmax(join_E))
        if join_E[jE] > join_H[jH]:
            j = jE
            left = _hirschberg_ops(q[:h], s[:j], scoring, top_open, True, cutoff)
            right = _hirschberg_ops(q[h:], s[j:], scoring, True, bottom_open, cutoff)
            return left + right
        j = jH
    else:
        j = int(np.argmax(join_H))
    left = _hirschberg_ops(q[:h], s[:j], scoring, top_open, False, cutoff)
    right = _hirschberg_ops(q[h:], s[j:], scoring, False, bottom_open, cutoff)
    return left + right


def _ops_to_strings(ops, q, s) -> tuple[str, str]:
    """Gapped strings of an edit script, decoding each segment once.

    The query row takes the segment's characters at the query-consuming
    columns in order and ``-`` elsewhere; likewise the subject row.
    """
    steps = np.array(ops, dtype=bool).reshape(-1, 2)
    dq, ds = steps[:, 0], steps[:, 1]
    assert dq.sum() == len(q) and ds.sum() == len(s), (
        "edit script does not cover the segment"
    )
    qa = np.full(len(steps), ord("-"), dtype=np.uint8)
    sa = qa.copy()
    qa[dq] = CODE_TO_CHAR[q]
    sa[ds] = CODE_TO_CHAR[s]
    return qa.tobytes().decode("ascii"), sa.tobytes().decode("ascii")


def _segment(q, s, scheme: AlignmentScheme) -> tuple[int, int, int, int, int]:
    """Locate the aligned segment (i0, i1, j0, j1) and the optimum score."""
    n, m = len(q), len(s)
    at = scheme.alignment_type
    if at is AlignmentType.GLOBAL:
        H, _E = sweep_last_rows(q, s, scheme.scoring)
        return 0, n, 0, m, int(H[m])
    if at is AlignmentType.LOCAL:
        score, (i1, j1) = sweep_best(q, s, scheme, zero_init=True, track="all")
        if score <= 0:
            return 0, 0, 0, 0, 0
        _, (a, b) = sweep_best(
            q[:i1][::-1],
            s[:j1][::-1],
            global_scheme(scheme.scoring),
            zero_init=False,
            track="all",
        )
        return i1 - a, i1, j1 - b, j1, score
    # Semi-global: end on the bottom/right border, start on the top/left.
    score, (i1, j1) = sweep_best(q, s, scheme, zero_init=True, track="border")
    _, (a, b) = sweep_best(
        q[:i1][::-1],
        s[:j1][::-1],
        global_scheme(scheme.scoring),
        zero_init=False,
        track="border",
    )
    return i1 - a, i1, j1 - b, j1, score


def align_block(query, subject, scheme: AlignmentScheme) -> AlignmentResult:
    """Alignment via one full-matrix block (O(n·m) memory, fast rows).

    Suitable for short/medium inputs; long inputs should use
    :func:`align_linear_space`.
    """
    return align_linear_space(query, subject, scheme, cutoff=None)


def align_linear_space(
    query,
    subject,
    scheme: AlignmentScheme,
    cutoff: int | None = DEFAULT_BLOCK_CUTOFF,
) -> AlignmentResult:
    """Optimal alignment in linear space (divide-and-conquer traceback).

    ``cutoff`` is the block size (in DP cells) below which full-matrix
    traceback is used; ``None`` means solve everything as one block.
    """
    q = check_sequence(np.asarray(query, dtype=np.uint8), "query")
    s = check_sequence(np.asarray(subject, dtype=np.uint8), "subject")
    i0, i1, j0, j1, score = _segment(q, s, scheme)

    qseg, sseg = q[i0:i1], s[j0:j1]
    if len(qseg) == 0 and len(sseg) == 0:
        qa = sa = ""
    else:
        eff_cutoff = cutoff if cutoff is not None else (len(qseg) + 1) * (len(sseg) + 1)
        if eff_cutoff <= 0:
            raise ValidationError("cutoff must be positive")
        ops = _hirschberg_ops(qseg, sseg, scheme.scoring, cutoff=eff_cutoff)
        qa, sa = _ops_to_strings(ops, qseg, sseg)

    return AlignmentResult(
        score=score,
        query_aligned=qa,
        subject_aligned=sa,
        query_start=i0,
        query_end=i1,
        subject_start=j0,
        subject_end=j1,
        meta={"traceback": "hirschberg" if cutoff is not None else "block"},
    )
