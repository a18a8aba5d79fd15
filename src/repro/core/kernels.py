"""Specialized score kernels (the library's hot paths).

Each public entry builds (or fetches from the kernel cache) a kernel
specialized on one :class:`~repro.core.types.AlignmentScheme`:

* :func:`score_rowscan` — single pair, vectorized row sweep with the
  prefix-scan closure of the horizontal dependency; linear space; the
  paper's intra-sequence long-genome path.
* :func:`score_lanes` — a batch of independent equal-length pairs computed
  in SIMD lanes (leading array axis); the paper's inter-sequence NGS-read
  path (§IV-A: "blocks that consist of rows from independent submatrices").
* :func:`fill_matrix` — scalar-dialect full-matrix fill, optionally with
  predecessor tracking; the non-vectorized CPU variant and the innermost
  traceback level.
* :func:`traceback_lanes` — full alignments (end cells + CIGAR runs) of a
  batch of short pairs padded into SIMD lanes: one vectorized fill that
  stores a uint8 direction code per cell, then a walk per lane; the
  read-mapping extension path.

Both vector drivers share ONE traced kernel per scheme: every read keeps a
leading ellipsis, so the same generated source runs 1-D rows and 2-D lane
blocks.  This is the reproduction of the paper's "52% of the code is shared
among all variants" claim at kernel granularity.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.accessors import RowView, SequenceView, TableView
from repro.core.recurrence import best_cell  # re-used for scalar extraction
from repro.core.relax import (
    PrevScores,
    nu_of,
    relax_cell,
    relax_row_candidates,
    relax_row_sources,
    subst_expr,
)
from repro.core.types import (
    NEG_INF,
    PRED_NO_GAP,
    PRED_SKIP_Q,
    PRED_SKIP_S,
    AlignmentScheme,
    AlignmentType,
)
from repro.stage import (
    Const,
    KernelBuilder,
    ReduceMax,
    ScanMax,
    Select,
    Shift,
    as_expr,
    banded_rows,
    build_kernel,
    global_kernel_cache,
    smax,
    smin,
)
from repro.util.checks import ValidationError, check_sequence

__all__ = [
    "build_rowscan_kernel",
    "build_banded_kernel",
    "build_matrix_kernel",
    "build_traceback_kernel",
    "LaneTrace",
    "score_rowscan",
    "score_lanes",
    "fill_matrix",
    "pick_neg_inf",
    "traceback_lanes",
]

#: Direction codes of the traceback kernel, one uint8 per cell.  The low
#: two bits name H's source with ``align_reference``'s tie order (first
#: match wins): diagonal, then vertical gap (E), then horizontal gap (F).
TB_DIAG, TB_UP, TB_LEFT = 0, 1, 2
#: Affine only: E(i, j) = E(i−1, j) + extend (the vertical gap extends).
TB_E_EXT = 4
#: Affine only: F(i, j) = F(i, j−1) + extend (the horizontal gap extends).
TB_F_EXT = 8


def pick_neg_inf(dtype) -> int:
    """A −∞ sentinel that survives ramp arithmetic without overflow."""
    dtype = np.dtype(dtype)
    if dtype == np.int16:
        return -(2**13)  # leaves 2**13 of headroom inside a block
    if dtype == np.int32:
        return NEG_INF  # -2**30, headroom 2**29
    if dtype == np.int64:
        return NEG_INF
    raise ValidationError(f"unsupported score dtype {dtype}")


# ---------------------------------------------------------------------------
# Kernel construction (trace time)
# ---------------------------------------------------------------------------


def build_rowscan_kernel(scheme: AlignmentScheme):
    """Trace + specialize + compile the row-sweep score kernel for ``scheme``.

    Generated signature::

        kernel(q, s, n, m, H, C, ramp, out, ninf [, E] [, table])

    ``H``/``C``/``E`` are scratch rows of logical length m+1 (with any
    number of leading lane axes), ``ramp`` is ``arange(m+1) * p`` in the
    score dtype, ``out`` receives the per-lane optimum.
    """
    affine = scheme.scoring.is_affine
    simple = scheme.scoring.subst.is_simple
    at = scheme.alignment_type
    gaps = scheme.scoring.gaps

    params = ["q", "s", "n", "m", "H", "C", "ramp", "out", "ninf"]
    if affine:
        params.append("E")
    if not simple:
        params.append("table")

    b = KernelBuilder(
        f"rowscan_{at.value}_{'affine' if affine else 'linear'}",
        params,
        docstring=f"specialized row-sweep score kernel: {scheme.cache_key()}",
    )
    n, m = b.var("n"), b.var("m")
    qv = SequenceView("q", n, lanes=True)
    H, C = RowView("H"), RowView("C")
    E = RowView("E") if affine else None
    table = TableView("table") if not simple else None
    ramp = b.var("ramp")
    ninf = b.var("ninf")
    srow = b.var("s")  # whole subject row(s); lanes broadcast against q cols

    with b.loop("i", 1, n + 1) as i:
        qc = b.let(qv.col(i - 1), "qc")
        sub = b.let(subst_expr(scheme, qc, srow, table), "sub")
        hh = b.let(H.cells(0, m), "hh")  # H(i-1, 0..m-1), view
        ht = b.let(H.cells(1, m + 1), "ht")  # H(i-1, 1..m), view
        et = b.let(E.cells(1, m + 1), "et") if affine else None
        cand_tail, e_new = relax_row_candidates(b, scheme, hh, ht, et, sub)
        cand_tail = b.let(cand_tail, "cand")
        if affine:
            go, ge = gaps.open, gaps.extend
            E.put(b, 1, m + 1, e_new)
            E.put_at(b, 0, go + ge * i)  # matches the paper's E(i,0) border
        # Border H(i,0) depends on the alignment type — specialized here.
        if at is AlignmentType.GLOBAL:
            border = (go + ge * i) if affine else gaps.gap * i
        else:
            border = Const(0)
        C.put_at(b, 0, border)
        C.put(b, 1, m + 1, cand_tail)
        scan = b.let(ScanMax(C.whole() + ramp), "scan")
        if affine:
            f_row = Shift(scan, 1, ninf) + gaps.open - ramp
            H.put_whole(b, smax(C.whole(), f_row))
        else:
            H.put_whole(b, scan - ramp)
        # Optimum tracking — specialized per alignment type; for global
        # alignments nothing survives inside the loop.
        if at is AlignmentType.LOCAL:
            b.store("out", (Ellipsis,), smax(b.load("out", (Ellipsis,)), ReduceMax(H.whole())))
        elif at is AlignmentType.SEMIGLOBAL:
            b.store("out", (Ellipsis,), smax(b.load("out", (Ellipsis,)), H.at(m)))

    if at is AlignmentType.GLOBAL:
        b.store("out", (Ellipsis,), H.at(m))
    elif at is AlignmentType.SEMIGLOBAL:
        b.store("out", (Ellipsis,), smax(b.load("out", (Ellipsis,)), ReduceMax(H.whole())))

    return build_kernel(b, dialect="vector")


def build_banded_kernel(scheme: AlignmentScheme, band: int):
    """Trace + specialize + compile the banded row-sweep kernel.

    The banded analogue of :func:`build_rowscan_kernel`, specialized on
    (scheme, band): rows are walked by the :func:`repro.stage.banded_rows`
    generator and each row only relaxes its ``[max(1, i−band),
    min(m, i+band)]`` window, with the same prefix-scan gap closure.
    Generated signature::

        kernel(q, s, n, m, H, C, ramp, out, ninf [, E] [, table])

    All reads keep a leading ellipsis, so the one kernel serves a single
    pair and a (lanes, m+1) row stack alike — this is the lane-batched
    verify path.  The statement sequence mirrors the scalar sweep in
    :func:`repro.core.banded.banded_score` row for row (same windows, same
    border/dead-cell writes), so scores are bit-identical to it: sentinel
    cells never dominate an in-band cell (every in-band cell carries a
    real diagonal-entry path value, and sentinel arithmetic only drives
    values further down), hence only band geometry decides the result.
    """
    at = scheme.alignment_type
    if at is AlignmentType.LOCAL:
        raise ValidationError("banded kernels support global and semiglobal schemes only")
    if band < 0:
        raise ValidationError(f"band must be >= 0, got {band}")
    affine = scheme.scoring.is_affine
    simple = scheme.scoring.subst.is_simple
    gaps = scheme.scoring.gaps
    semiglobal = at is AlignmentType.SEMIGLOBAL

    params = ["q", "s", "n", "m", "H", "C", "ramp", "out", "ninf"]
    if affine:
        params.append("E")
    if not simple:
        params.append("table")

    b = KernelBuilder(
        f"banded{band}_{at.value}_{'affine' if affine else 'linear'}",
        params,
        docstring=f"specialized banded row-sweep kernel: band={band} {scheme.cache_key()}",
    )
    n, m = b.var("n"), b.var("m")
    qv = SequenceView("q", n, lanes=True)
    H, C = RowView("H"), RowView("C")
    E = RowView("E") if affine else None
    table = TableView("table") if not simple else None
    ninf = b.var("ninf")
    if affine:
        go, ge = gaps.open, gaps.extend
    else:
        g = gaps.gap

    def ramp_cells(a, z):
        return b.load("ramp", (b.slice(a, z),))

    def row(i, lo, hi):
        qc = b.let(qv.col(i - 1), "qc")
        sw = b.let(b.load("s", (Ellipsis, b.slice(lo - 1, hi))), "sw")
        sub = b.let(subst_expr(scheme, qc, sw, table), "sub")
        hd = b.let(H.cells(lo - 1, hi), "hd")  # diagonal sources H(i-1, lo-1..hi-1)
        hv = b.let(H.cells(lo, hi + 1), "hv")  # vertical sources H(i-1, lo..hi)
        if affine:
            ew = b.let(smax(E.cells(lo, hi + 1) + ge, hv + go + ge), "ew")
            E.put(b, lo, hi + 1, ew)
            E.put_at(b, lo - 1, ninf)  # cell left of the band is dead
            cand = b.let(smax(hd + sub, ew), "cand")
        else:
            cand = b.let(smax(hd + sub, hv + g), "cand")
        C.put(b, lo, hi + 1, cand)
        # Border cell (i, 0) while column 0 is inside the band (i ≤ band);
        # once the window detaches from column 0, the cell left of the scan
        # range is out of band and must read as −∞.
        if semiglobal:
            border = Const(0)
        else:
            border = (go + ge * i) if affine else g * i
        if band >= 1:
            with b.if_(as_expr(i) <= band):
                C.put_at(b, 0, border)
            with b.else_():
                C.put_at(b, lo - 1, ninf)
        else:
            C.put_at(b, lo - 1, ninf)
        scan = b.let(ScanMax(C.cells(lo - 1, hi + 1) + ramp_cells(lo - 1, hi + 1)), "scan")
        if affine:
            f_row = Shift(scan, 1, ninf) + go - ramp_cells(lo - 1, hi + 1)
            H.put(b, lo - 1, hi + 1, smax(C.cells(lo - 1, hi + 1), f_row))
        else:
            H.put(b, lo - 1, hi + 1, scan - ramp_cells(lo - 1, hi + 1))
        with b.if_(as_expr(i) > band + 1):  # lo > 1: kill the cell left of the band
            H.put_at(b, lo - 1, ninf)
        if semiglobal:
            with b.if_(hi.eq(as_expr(m))):
                b.store("out", (Ellipsis,), smax(b.load("out", (Ellipsis,)), H.at(m)))

    banded_rows(b, n, m, band, row)

    if at is AlignmentType.GLOBAL:
        # A feasible band (≥ |n − m|) keeps row n inside the loop range.
        b.store("out", (Ellipsis,), H.at(m))
    else:
        # Free tails: the optimum may also end anywhere in the last row.
        lo_f = b.let(smax(1, b.var("n") - band), "lof")
        with b.if_(lo_f <= as_expr(m)):
            hi_f = b.let(smin(as_expr(m), b.var("n") + band), "hif")
            b.store(
                "out",
                (Ellipsis,),
                smax(b.load("out", (Ellipsis,)), ReduceMax(H.cells(lo_f - 1, hi_f + 1))),
            )

    return build_kernel(b, dialect="vector")


def build_matrix_kernel(scheme: AlignmentScheme, track_predecessor: bool = False):
    """Scalar-dialect full-matrix kernel (per-cell relaxation).

    Generated signature::

        kernel(q, s, n, m, H [, E, F] [, P] [, table])

    Matrices are (n+1)×(m+1) with pre-initialised borders.  ``P`` receives
    predecessor codes when traceback support is requested — when it is not,
    partial evaluation removes the predecessor computation entirely.
    """
    affine = scheme.scoring.is_affine
    simple = scheme.scoring.subst.is_simple

    params = ["q", "s", "n", "m", "H"]
    if affine:
        params += ["E", "F"]
    if track_predecessor:
        params.append("P")
    if not simple:
        params.append("table")

    b = KernelBuilder(
        f"matrix_{scheme.alignment_type.value}_{'affine' if affine else 'linear'}"
        + ("_tb" if track_predecessor else ""),
        params,
        docstring=f"specialized full-matrix kernel: {scheme.cache_key()}",
    )
    n, m = b.var("n"), b.var("m")
    table = TableView("table") if not simple else None

    nu = nu_of(scheme)
    with b.loop("i", 1, n + 1) as i:
        with b.loop("j", 1, m + 1) as j:
            prev = PrevScores(
                diag=b.load("H", (i - 1, j - 1)),
                up=b.load("H", (i - 1, j)),
                left=b.load("H", (i, j - 1)),
                e_prev=b.load("E", (i - 1, j)) if affine else None,
                f_prev=b.load("F", (i, j - 1)) if affine else None,
            )
            sub = b.let(
                subst_expr(scheme, b.load("q", (i - 1,)), b.load("s", (j - 1,)), table),
                "sub",
            )
            step = relax_cell(scheme, prev, sub, track_predecessor=False)
            if affine:
                # Bind E/F so the trees are computed once, then rebuild the
                # H update on the bound names (no CSE across stores).
                e = b.let(step.e, "e")
                f = b.let(step.f, "f")
                b.store("E", (i, j), e)
                b.store("F", (i, j), f)
                sgap, qgap = e, f
            else:
                g = scheme.scoring.gaps.gap
                sgap, qgap = prev.up + g, prev.left + g
            ng = b.let(prev.diag + sub, "ng")
            h = b.let(smax(ng, sgap, qgap, Const(nu)), "h")
            b.store("H", (i, j), h)
            if track_predecessor:
                pred = Select(
                    h.eq(ng),
                    Const(PRED_NO_GAP),
                    Select(h.eq(sgap), Const(PRED_SKIP_S), Const(PRED_SKIP_Q)),
                )
                b.store("P", (i, j), pred)

    return build_kernel(b, dialect="scalar")


def build_traceback_kernel(scheme: AlignmentScheme):
    """Trace + specialize + compile the lane traceback fill for ``scheme``.

    The row sweep of :func:`build_rowscan_kernel` (same sources, same
    prefix-scan closure) that additionally records, per cell, which source
    produced H — and for affine schemes whether E/F extended — as one
    uint8 code (``TB_*``) in ``D[i, lane, j]``.  Generated signature::

        kernel(q, s, n, m, H, C, ramp, ninf, D, lidx, mcol, Hcol, ends, Hlast
               [, E] [, table])

    Lanes are padded to a common (n, m); a cell depends only on cells above
    and to its left, so lane ``l`` reads true values on its own
    ``[0..n_l] × [0..m_l]``.  Each row the kernel gathers H at every lane's
    own last column (``Hcol[i] = H[lidx, mcol]``) and keeps the rows of the
    lanes whose query ends there (``ends[i]`` → ``Hlast``): exactly what
    the end-cell choice of :func:`repro.core.recurrence.best_cell` reads.
    """
    at = scheme.alignment_type
    if at is AlignmentType.LOCAL:
        raise ValidationError("lane traceback supports global and semiglobal schemes only")
    affine = scheme.scoring.is_affine
    simple = scheme.scoring.subst.is_simple
    gaps = scheme.scoring.gaps

    params = ["q", "s", "n", "m", "H", "C", "ramp", "ninf", "D", "lidx", "mcol"]
    params += ["Hcol", "ends", "Hlast"]
    if affine:
        params.append("E")
    if not simple:
        params.append("table")

    b = KernelBuilder(
        f"traceback_{at.value}_{'affine' if affine else 'linear'}",
        params,
        docstring=f"specialized lane traceback fill: {scheme.cache_key()}",
    )
    n, m = b.var("n"), b.var("m")
    qv = SequenceView("q", n, lanes=True)
    H, C = RowView("H"), RowView("C")
    E = RowView("E") if affine else None
    table = TableView("table") if not simple else None
    ramp = b.var("ramp")
    ninf = b.var("ninf")

    with b.loop("i", 1, n + 1) as i:
        qc = b.let(qv.col(i - 1), "qc")
        sub = b.let(subst_expr(scheme, qc, b.var("s"), table), "sub")
        hh = b.let(H.cells(0, m), "hh")
        ht = b.let(H.cells(1, m + 1), "ht")
        et = b.let(E.cells(1, m + 1), "et") if affine else None
        diag, vgap = relax_row_sources(b, scheme, hh, ht, et, sub)
        if affine:
            go, ge = gaps.open, gaps.extend
            e_ext = b.let(Select(vgap.eq(et + ge), Const(TB_E_EXT), Const(0)), "eext")
            E.put(b, 1, m + 1, vgap)
            E.put_at(b, 0, go + ge * i)
            border = (go + ge * i) if at is AlignmentType.GLOBAL else Const(0)
        else:
            border = gaps.gap * i if at is AlignmentType.GLOBAL else Const(0)
        C.put_at(b, 0, border)
        C.put(b, 1, m + 1, smax(diag, vgap))
        scan = b.let(ScanMax(C.whole() + ramp), "scan")
        if affine:
            f = b.let(Shift(scan, 1, ninf) + go - ramp, "f")
            H.put_whole(b, smax(C.whole(), f))
        else:
            H.put_whole(b, scan - ramp)
        hn = b.let(H.cells(1, m + 1), "hn")
        # (H ≠ diag) << (H ≠ vgap) is TB_DIAG / TB_UP / TB_LEFT in that tie
        # order; bool << bool computes in int8, about half a where-chain's cost.
        code = hn.ne(diag) << hn.ne(vgap)
        if affine:
            f_tail = b.load(f.name, (Ellipsis, b.slice(1, m + 1)))
            f_head = b.load(f.name, (Ellipsis, b.slice(0, m)))
            f_ext = Select(f_tail.eq(f_head + ge), Const(TB_F_EXT), Const(0))
            code = code | e_ext | f_ext
        b.store("D", (i, Ellipsis, b.slice(1, m + 1)), code)
        b.store("Hcol", (i,), b.load("H", (b.var("lidx"), b.var("mcol"))))
        ending = b.let(b.load("ends", (i,)), "ending")
        b.store("Hlast", (ending,), b.load("H", (ending,)))

    return build_kernel(b, dialect="vector")


def _cached(key, thunk):
    return global_kernel_cache.get_or_build(key, thunk)


# ---------------------------------------------------------------------------
# Drivers (runtime)
# ---------------------------------------------------------------------------


def _init_rows(scheme: AlignmentScheme, shape_head: tuple, m: int, dtype):
    """Allocate and initialise H/C/E row buffers and the ramp."""
    gaps = scheme.scoring.gaps
    at = scheme.alignment_type
    ninf = pick_neg_inf(dtype)
    idx = np.arange(m + 1, dtype=dtype)

    H = np.zeros(shape_head + (m + 1,), dtype=dtype)
    if at is AlignmentType.GLOBAL:
        if gaps.is_affine:
            H[...] = gaps.open + gaps.extend * idx
            H[..., 0] = 0
        else:
            H[...] = gaps.gap * idx
    C = np.empty_like(H)
    E = None
    if gaps.is_affine:
        E = np.full_like(H, ninf)
        p = -gaps.extend
    else:
        p = -gaps.gap
    ramp = (idx * p).astype(dtype)
    return H, C, E, ramp, ninf


def _check_headroom(scheme: AlignmentScheme, n: int, m: int, dtype):
    """Reject score widths that could overflow (paper §IV-A bound)."""
    dtype = np.dtype(dtype)
    if dtype == np.int64:
        return
    sub = scheme.scoring.subst
    gaps = scheme.scoring.gaps
    span = max(n, m)
    worst = max(
        abs(sub.max_score) * span,
        abs(sub.min_score) * span,
        abs(gaps.run_score(span)),
    )
    limit = 2**13 if dtype == np.int16 else 2**29
    if worst >= limit:
        raise ValidationError(
            f"{dtype} scores can overflow for extents up to {span} "
            f"(worst differential {worst} >= {limit}); use a wider dtype "
            "or smaller blocks"
        )


def score_rowscan(query, subject, scheme: AlignmentScheme, dtype=np.int32) -> int:
    """Optimal score of one pair via the specialized row-sweep kernel."""
    q = check_sequence(np.asarray(query, dtype=np.uint8), "query")
    s = check_sequence(np.asarray(subject, dtype=np.uint8), "subject")
    n, m = int(q.size), int(s.size)
    _check_headroom(scheme, n, m, dtype)

    kern = _cached(("rowscan",) + scheme.cache_key(), lambda: build_rowscan_kernel(scheme))
    H, C, E, ramp, ninf = _init_rows(scheme, (), m, dtype)
    out = np.full((), ninf, dtype=dtype)
    args = [q, s, n, m, H, C, ramp, out, ninf]
    if scheme.alignment_type is AlignmentType.SEMIGLOBAL:
        out[...] = H[..., m]  # include the H(0,m) border cell
    if E is not None:
        args.append(E)
    if not scheme.scoring.subst.is_simple:
        args.append(scheme.scoring.subst.table.astype(dtype))
    kern(*args)
    return int(out)


def score_lanes(queries, subjects, scheme: AlignmentScheme, dtype=np.int32) -> np.ndarray:
    """Optimal scores of a batch of independent equal-length pairs.

    ``queries`` is (lanes, n) and ``subjects`` is (lanes, m); the kernel
    relaxes all lanes per step — inter-sequence vectorization.  Returns a
    (lanes,) score vector.
    """
    q = np.ascontiguousarray(queries, dtype=np.uint8)
    s = np.ascontiguousarray(subjects, dtype=np.uint8)
    if q.ndim != 2 or s.ndim != 2 or q.shape[0] != s.shape[0]:
        raise ValidationError("queries/subjects must be (lanes, n)/(lanes, m)")
    lanes, n = q.shape
    m = s.shape[1]
    if n == 0 or m == 0 or lanes == 0:
        raise ValidationError("empty batch or empty sequences")
    if q.max(initial=0) > 3 or s.max(initial=0) > 3:
        raise ValidationError("sequence codes outside 0..3")
    _check_headroom(scheme, n, m, dtype)

    kern = _cached(("rowscan",) + scheme.cache_key(), lambda: build_rowscan_kernel(scheme))
    H, C, E, ramp, ninf = _init_rows(scheme, (lanes,), m, dtype)
    out = np.full((lanes,), ninf, dtype=dtype)
    if scheme.alignment_type is AlignmentType.SEMIGLOBAL:
        out[...] = H[..., m]
    args = [q, s, n, m, H, C, ramp, out, ninf]
    if E is not None:
        args.append(E)
    if not scheme.scoring.subst.is_simple:
        args.append(scheme.scoring.subst.table.astype(dtype))
    kern(*args)
    return out.astype(np.int64)


def fill_matrix(query, subject, scheme: AlignmentScheme, track_predecessor: bool = False):
    """Full-matrix fill via the scalar-dialect kernel.

    Returns ``(H, E, F, P, best_score, best_pos)``; ``E``/``F`` are None for
    linear models, ``P`` is None unless predecessor tracking was requested.
    The non-vectorized CPU variant of the paper, also used as the innermost
    traceback level.
    """
    q = check_sequence(np.asarray(query, dtype=np.uint8), "query")
    s = check_sequence(np.asarray(subject, dtype=np.uint8), "subject")
    n, m = int(q.size), int(s.size)
    at = scheme.alignment_type
    gaps = scheme.scoring.gaps
    affine = gaps.is_affine

    H = np.zeros((n + 1, m + 1), dtype=np.int64)
    E = F = P = None
    if affine:
        E = np.full((n + 1, m + 1), NEG_INF, dtype=np.int64)
        F = np.full((n + 1, m + 1), NEG_INF, dtype=np.int64)
        idx_i = np.arange(1, n + 1, dtype=np.int64)
        idx_j = np.arange(1, m + 1, dtype=np.int64)
        E[1:, 0] = gaps.open + idx_i * gaps.extend
        F[0, 1:] = gaps.open + idx_j * gaps.extend
        if at is AlignmentType.GLOBAL:
            H[1:, 0] = E[1:, 0]
            H[0, 1:] = F[0, 1:]
    elif at is AlignmentType.GLOBAL:
        H[1:, 0] = gaps.gap * np.arange(1, n + 1, dtype=np.int64)
        H[0, 1:] = gaps.gap * np.arange(1, m + 1, dtype=np.int64)
    if track_predecessor:
        P = np.zeros((n + 1, m + 1), dtype=np.int8)

    kern = _cached(
        ("matrix", track_predecessor) + scheme.cache_key(),
        lambda: build_matrix_kernel(scheme, track_predecessor),
    )
    args = [q, s, n, m, H]
    if affine:
        args += [E, F]
    if track_predecessor:
        args.append(P)
    if not scheme.scoring.subst.is_simple:
        args.append(scheme.scoring.subst.table.astype(np.int64))
    kern(*args)
    score, pos = best_cell(H, at)
    return H, E, F, P, score, pos


class LaneTrace(NamedTuple):
    """One lane's optimal alignment: score, segment and CIGAR runs.

    ``cigar`` is canonical run-length ``(op, length)`` tuples over
    ``M``/``I``/``D`` plus ``S`` soft clips for the unaligned query ends,
    so it consumes the whole query.
    """

    score: int
    query_start: int
    query_end: int
    subject_start: int
    subject_end: int
    cigar: tuple


def traceback_lanes(
    queries, subjects, scheme: AlignmentScheme, dtype=np.int32
) -> list[LaneTrace]:
    """Optimal alignments of a batch of pairs via one lane traceback fill.

    Pairs may differ in length: they are padded into lanes of the batch's
    largest (n, m) and filled by the cached :func:`build_traceback_kernel`.
    Each lane's end cell follows :func:`repro.core.recurrence.best_cell`
    and its walk re-derives :func:`repro.core.recurrence.align_reference`'s
    decisions from the stored codes, so score, start/end cells and edit
    script equal that oracle bit for bit.  Global and semiglobal schemes
    only.  Memory is (n+1)·lanes·(m+1) bytes; callers bound the lanes.
    """
    at = scheme.alignment_type
    qs = [check_sequence(np.asarray(x, dtype=np.uint8), "query") for x in queries]
    ss = [check_sequence(np.asarray(x, dtype=np.uint8), "subject") for x in subjects]
    if len(qs) != len(ss):
        raise ValidationError(f"{len(qs)} queries vs {len(ss)} subjects")
    if not qs:
        return []
    lanes = len(qs)
    ns = np.fromiter((x.size for x in qs), dtype=np.intp, count=lanes)
    ms = np.fromiter((x.size for x in ss), dtype=np.intp, count=lanes)
    n, m = int(ns.max()), int(ms.max())
    _check_headroom(scheme, n, m, dtype)
    kern = _cached(
        ("traceback",) + scheme.cache_key(), lambda: build_traceback_kernel(scheme)
    )

    q = np.zeros((lanes, n), dtype=np.uint8)
    s = np.zeros((lanes, m), dtype=np.uint8)
    for lane, (a, c) in enumerate(zip(qs, ss)):
        q[lane, : a.size] = a
        s[lane, : c.size] = c
    H, C, E, ramp, ninf = _init_rows(scheme, (lanes,), m, dtype)
    D = np.empty((n + 1, lanes, m + 1), dtype=np.uint8)
    lidx = np.arange(lanes)
    Hcol = np.empty((n + 1, lanes), dtype=dtype)
    Hcol[0] = H[lidx, ms]
    Hlast = np.empty_like(H)
    none = np.empty(0, dtype=np.intp)
    ends = [none] * (n + 1)
    for length in np.unique(ns):
        ends[length] = np.flatnonzero(ns == length)
    args = [q, s, n, m, H, C, ramp, ninf, D, lidx, ms, Hcol, ends, Hlast]
    if E is not None:
        args.append(E)
    if not scheme.scoring.subst.is_simple:
        args.append(scheme.scoring.subst.table.astype(dtype))
    kern(*args)

    codes = D.reshape(-1).data
    row = lanes * (m + 1)
    affine = scheme.scoring.is_affine
    semiglobal = at is AlignmentType.SEMIGLOBAL
    out = []
    for lane in range(lanes):
        nl, ml = int(ns[lane]), int(ms[lane])
        col = Hcol[: nl + 1, lane]
        if semiglobal:  # best_cell: first max of the last row, then column
            last = Hlast[lane, : ml + 1]
            jb, ib = int(np.argmax(last)), int(np.argmax(col))
            if last[jb] >= col[ib]:
                score, i, j = int(last[jb]), nl, jb
            else:
                score, i, j = int(col[ib]), ib, ml
        else:
            score, i, j = int(col[nl]), nl, ml
        i0, j0, runs = _walk_lane(codes, lane * (m + 1), row, i, j, affine, semiglobal)
        if i0:
            runs.insert(0, ("S", i0))
        if nl > i:
            runs.append(("S", nl - i))
        out.append(LaneTrace(score, i0, i, j0, j, tuple(runs)))
    return out


def _walk_lane(codes, base: int, row: int, i: int, j: int, affine: bool, semiglobal: bool):
    """Walk one lane's direction codes from its end cell to its start cell.

    ``codes[base + i*row + j]`` is cell (i, j).  The moves replay
    :func:`repro.core.recurrence.align_reference` decision for decision
    (H state: diagonal, then E, then F; gap states extend while the stored
    extend bit holds and the gap is not at the border).  Returns the start
    cell and the ``M``/``I``/``D`` runs in forward order.
    """
    runs = []
    op, run = "", 0
    state = TB_DIAG  # TB_DIAG: in H; TB_UP: in E (vertical gap); TB_LEFT: in F
    while True:
        if state == TB_DIAG:
            if i == 0 or j == 0:
                if semiglobal or i == j:
                    break
                step = "D" if i == 0 else "I"  # global border: one gap run
            else:
                c = codes[base + i * row + j] & 3
                if c == TB_DIAG:
                    step = "M"
                elif affine:
                    state = c
                    continue
                else:
                    step = "I" if c == TB_UP else "D"
        elif state == TB_UP:
            step = "I"
            if not (i > 1 and codes[base + i * row + j] & TB_E_EXT):
                state = TB_DIAG
        else:
            step = "D"
            if not (j > 1 and codes[base + i * row + j] & TB_F_EXT):
                state = TB_DIAG
        if step == "M":
            i -= 1
            j -= 1
        elif step == "I":
            i -= 1
        else:
            j -= 1
        if step == op:
            run += 1
        else:
            if run:
                runs.append((op, run))
            op, run = step, 1
    if run:
        runs.append((op, run))
    runs.reverse()
    return i, j, runs
