"""Vectorized full-matrix block DP (traceback substrate).

Row-sweep matrix fill used by the innermost traceback level and by the
Hirschberg/Myers–Miller recursion (:mod:`repro.core.traceback`).  Unlike the
reference in :mod:`repro.core.recurrence` (plain loops, oracle) this fills
whole rows with NumPy using the same prefix-scan closure as the staged
kernels, and it supports the Myers–Miller *boundary flags*:

``top_open``
    A vertical (query) gap is already open when the block is entered; the
    column-0 border charges extension only, no second gap-open.

The block is always global-scored over its segments — local/semi-global
alignments are reduced to a global segment before reaching this code.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import NEG_INF, AlignmentScheme, AlignmentType, Scoring

__all__ = ["fill_block", "sweep_last_rows", "sweep_best"]


def _sub_rows(scoring: Scoring, s: np.ndarray) -> np.ndarray:
    """σ(c, s[j−1]) for each query code c: a (4, m) table built once per
    sweep, so row i's substitution scores are the view ``rows[q[i−1]]``."""
    return scoring.subst.table.astype(np.int64)[:, s]


def fill_block(q, s, scoring: Scoring, top_open: bool = False):
    """Full global-init DP matrices of one block, vectorized per row.

    Returns ``(H, E, F)``; ``E``/``F`` are ``None`` for linear gap models.
    ``F`` holds the scan form (open-from-H′ closure), which is equivalent
    for scores and safe for the traceback walker (see module docs of
    :mod:`repro.core.traceback` for the argument).
    """
    q = np.asarray(q, dtype=np.uint8)
    s = np.asarray(s, dtype=np.uint8)
    n, m = q.size, s.size
    rows = _sub_rows(scoring, s)
    gaps = scoring.gaps
    idx = np.arange(m + 1, dtype=np.int64)

    H = np.empty((n + 1, m + 1), dtype=np.int64)
    if not gaps.is_affine:
        g = gaps.gap
        p = -g
        ramp = idx * p
        H[0] = g * idx
        if top_open:
            # A linear model has no open cost; the flag is meaningless.
            raise ValueError("top_open requires an affine gap model")
        cand = np.empty(m + 1, dtype=np.int64)
        for i in range(1, n + 1):
            sub = rows[q[i - 1]]
            cand[0] = g * i
            np.maximum(H[i - 1, :m] + sub, H[i - 1, 1:] + g, out=cand[1:])
            H[i] = np.maximum.accumulate(cand + ramp) - ramp
        return H, None, None

    go, ge = gaps.open, gaps.extend
    pe = -ge
    ramp = idx * pe
    E = np.full((n + 1, m + 1), NEG_INF, dtype=np.int64)
    F = np.full((n + 1, m + 1), NEG_INF, dtype=np.int64)
    i_idx = np.arange(1, n + 1, dtype=np.int64)
    H[0] = go + ge * idx
    H[0, 0] = 0
    F[0, 1:] = H[0, 1:]
    col0 = (ge * i_idx) if top_open else (go + ge * i_idx)
    H[1:, 0] = col0
    E[1:, 0] = col0
    if top_open:
        E[0, 0] = 0  # lets the walker close the pre-opened gap at the corner
    cand = np.empty(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        sub = rows[q[i - 1]]
        np.maximum(E[i - 1, 1:] + ge, H[i - 1, 1:] + go + ge, out=E[i, 1:])
        cand[0] = H[i, 0]
        np.maximum(H[i - 1, :m] + sub, E[i, 1:], out=cand[1:])
        scan = np.maximum.accumulate(cand + ramp)
        F[i, 1:] = scan[:m] + go - ramp[1:]
        H[i] = np.maximum(cand, F[i])
        H[i, 0] = cand[0]
    return H, E, F


def sweep_last_rows(q, s, scoring: Scoring, top_open: bool = False):
    """Last DP row(s) of a global-init block in O(m) space.

    Returns ``(H_last, E_last)`` (``E_last`` is ``None`` for linear gaps).
    This is the forward/backward pass of the Hirschberg midpoint search.
    """
    q = np.asarray(q, dtype=np.uint8)
    s = np.asarray(s, dtype=np.uint8)
    n, m = q.size, s.size
    rows = _sub_rows(scoring, s)
    gaps = scoring.gaps
    idx = np.arange(m + 1, dtype=np.int64)

    if not gaps.is_affine:
        g = gaps.gap
        ramp = idx * (-g)
        H = g * idx
        cand = np.empty(m + 1, dtype=np.int64)
        for i in range(1, n + 1):
            sub = rows[q[i - 1]]
            cand[0] = g * i
            np.maximum(H[:m] + sub, H[1:] + g, out=cand[1:])
            H = np.maximum.accumulate(cand + ramp) - ramp
        return H, None

    go, ge = gaps.open, gaps.extend
    ramp = idx * (-ge)
    H = go + ge * idx
    H[0] = 0
    E = np.full(m + 1, NEG_INF, dtype=np.int64)
    cand = np.empty(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        col0 = ge * i if top_open else go + ge * i
        Enew = np.empty_like(E)
        np.maximum(E[1:] + ge, H[1:] + go + ge, out=Enew[1:])
        Enew[0] = col0
        cand[0] = col0
        np.maximum(H[:m] + rows[q[i - 1]], Enew[1:], out=cand[1:])
        scan = np.maximum.accumulate(cand + ramp)
        F = np.empty_like(cand)
        F[0] = NEG_INF
        F[1:] = scan[:m] + go - ramp[1:]
        H = np.maximum(cand, F)
        E = Enew
    return H, E


def sweep_best(q, s, scheme: AlignmentScheme, zero_init: bool, track: str):
    """Linear-space sweep tracking the optimum cell position.

    ``zero_init`` selects zero borders (local/semi-global starts) versus
    global gap-penalised borders.  ``track`` is ``"all"`` (argmax over every
    cell — local) or ``"border"`` (last row ∪ last column — semi-global).
    Local clamping (ν = 0) is applied iff the scheme is LOCAL.

    Returns ``(best_score, (i, j))`` in matrix coordinates.
    """
    q = np.asarray(q, dtype=np.uint8)
    s = np.asarray(s, dtype=np.uint8)
    n, m = q.size, s.size
    scoring = scheme.scoring
    rows = _sub_rows(scoring, s)
    gaps = scoring.gaps
    clamp = scheme.alignment_type is AlignmentType.LOCAL
    idx = np.arange(m + 1, dtype=np.int64)

    affine = gaps.is_affine
    if affine:
        go, ge = gaps.open, gaps.extend
        p = -ge
    else:
        g = gaps.gap
        p = -g
    ramp = idx * p

    if zero_init:
        H = np.zeros(m + 1, dtype=np.int64)
    elif affine:
        H = go + ge * idx
        H[0] = 0
    else:
        H = g * idx
    E = np.full(m + 1, NEG_INF, dtype=np.int64) if affine else None

    best = int(H[m]) if track == "border" else NEG_INF
    pos = (0, m)
    if track == "all":
        j0 = int(np.argmax(H))
        best, pos = int(H[j0]), (0, j0)

    cand = np.empty(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        if zero_init:
            border = 0
        elif affine:
            border = go + ge * i
        else:
            border = g * i
        if affine:
            Enew = np.empty_like(E)
            np.maximum(E[1:] + ge, H[1:] + go + ge, out=Enew[1:])
            Enew[0] = go + ge * i
            cand[0] = border
            np.maximum(H[:m] + rows[q[i - 1]], Enew[1:], out=cand[1:])
            if clamp:
                np.maximum(cand, 0, out=cand)
            scan = np.maximum.accumulate(cand + ramp)
            F = np.empty_like(cand)
            F[0] = NEG_INF
            F[1:] = scan[:m] + go - ramp[1:]
            H = np.maximum(cand, F)
            E = Enew
        else:
            cand[0] = border
            np.maximum(H[:m] + rows[q[i - 1]], H[1:] + g, out=cand[1:])
            if clamp:
                np.maximum(cand, 0, out=cand)
            H = np.maximum.accumulate(cand + ramp) - ramp
        if track == "all":
            j_star = int(np.argmax(H))
            if int(H[j_star]) > best:
                best, pos = int(H[j_star]), (i, j_star)
        elif track == "border":
            if int(H[m]) > best:
                best, pos = int(H[m]), (i, m)
    if track == "border":
        j_star = int(np.argmax(H))
        if int(H[j_star]) > best:
            best, pos = int(H[j_star]), (n, j_star)
    return best, pos
