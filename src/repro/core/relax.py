"""Relaxation functions (paper §III-B, ``relax_global`` listing).

The DP cell update is written *once* over abstract score accessors; which
alignment type, gap model, and predecessor tracking it performs is decided
by the scheme at trace time.  After partial evaluation:

* global alignments lose the ``max(…, ν)`` clamp entirely (ν = −∞ folds),
* linear gap models never touch E/F state,
* score-only kernels emit no predecessor stores (the accessor is a no-op).

Two granularities are provided: :func:`relax_cell` produces the per-cell
expression used by scalar tile kernels and the GPU/FPGA simulators;
:func:`relax_row_sources` / :func:`relax_row_candidates` produce the
whole-row expressions used by the vectorized row-sweep kernels (same
recurrence, row granularity).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import (
    NEG_INF,
    AlignmentScheme,
    AlignmentType,
    PRED_NO_GAP,
    PRED_SKIP_Q,
    PRED_SKIP_S,
)
from repro.stage.ir import Const, Expr, Select, select, smax

__all__ = [
    "PrevScores",
    "NextStep",
    "relax_cell",
    "relax_row_candidates",
    "relax_row_sources",
    "nu_of",
    "subst_expr",
]


@dataclass(frozen=True)
class PrevScores:
    """Accessor to the three ancestral subproblem scores of one cell.

    For affine gap models ``e_prev``/``f_prev`` carry the E/F recurrences'
    own ancestors (E(i−1,j), F(i,j−1)); for linear models they are ``None``
    and the gap candidates come straight from H.
    """

    diag: Expr  # H(i-1, j-1)
    up: Expr  # H(i-1, j)
    left: Expr  # H(i,   j-1)
    e_prev: Expr | None = None  # E(i-1, j)
    f_prev: Expr | None = None  # F(i,   j-1)


@dataclass(frozen=True)
class NextStep:
    """Result of relaxing one cell (paper's ``NextStep``)."""

    score: Expr
    predc: Expr | None  # None when predecessor tracking is specialized out
    e: Expr | None = None  # new E(i, j) for affine models
    f: Expr | None = None  # new F(i, j)


def nu_of(scheme: AlignmentScheme) -> int:
    """The ν parameter of Equation 1: 0 for local, −∞ otherwise."""
    return 0 if scheme.alignment_type is AlignmentType.LOCAL else NEG_INF


def subst_expr(scheme: AlignmentScheme, qc: Expr, sc: Expr, table_view=None) -> Expr:
    """σ(qᵢ, sⱼ) — specialized to a compare/select for simple schemes.

    For simple match/mismatch scoring, no lookup table survives in the
    kernel; for general matrices a gather through ``table_view`` is emitted.
    """
    sub = scheme.scoring.subst
    if sub.is_simple:
        match = int(sub.table_flat[0])
        mismatch = int(sub.table_flat[1])
        return select(qc.eq(sc), Const(match), Const(mismatch))
    assert table_view is not None, "matrix substitution needs a TableView"
    return table_view.lookup(qc, sc)


def relax_cell(
    scheme: AlignmentScheme,
    prev: PrevScores,
    sub: Expr,
    track_predecessor: bool = False,
) -> NextStep:
    """One DP cell update — the staged analog of the paper's ``relax_global``.

    ``sub`` is the already-built σ(qᵢ, sⱼ) expression.  Returns the new H
    (plus E/F for affine models) and, if requested, the predecessor code.
    """
    gaps = scheme.scoring.gaps
    nu = nu_of(scheme)

    if gaps.is_affine:
        go, ge = gaps.open, gaps.extend
        e_new = smax(prev.e_prev + ge, prev.up + go + ge)
        f_new = smax(prev.f_prev + ge, prev.left + go + ge)
        sgap, qgap = e_new, f_new
    else:
        g = gaps.gap
        e_new = f_new = None
        sgap = prev.up + g
        qgap = prev.left + g

    no_gap = prev.diag + sub
    score = smax(no_gap, sgap, qgap, Const(nu))

    predc = None
    if track_predecessor:
        predc = Select(
            score.eq(no_gap),
            Const(PRED_NO_GAP),
            Select(score.eq(sgap), Const(PRED_SKIP_S), Const(PRED_SKIP_Q)),
        )
    return NextStep(score=score, predc=predc, e=e_new, f=f_new)


def relax_row_sources(
    builder,
    scheme: AlignmentScheme,
    h_prev_head: Expr,
    h_prev_tail: Expr,
    e_prev_tail: Expr | None,
    sub_row: Expr,
) -> tuple[Expr, Expr]:
    """The two column-parallel sources of one DP row (columns 1..m).

    Returns ``(diag, vgap)``, each bound once: ``diag`` is
    H(i−1, j−1) + σ and ``vgap`` the vertical-gap candidate — E(i, j) for
    affine models (column-parallel, no scan needed), H(i−1, j) + g for
    linear ones.  The traceback kernel compares the finished row against
    both to record which source won.
    """
    gaps = scheme.scoring.gaps
    diag = builder.let(h_prev_head + sub_row, "diag")
    if gaps.is_affine:
        go, ge = gaps.open, gaps.extend
        # Bound so the expression is computed once, not re-emitted inside
        # the candidate (the partial evaluator does not CSE across stores).
        vgap = builder.let(smax(e_prev_tail + ge, h_prev_tail + go + ge), "e_new")
    else:
        vgap = builder.let(h_prev_tail + gaps.gap, "up")
    return diag, vgap


def relax_row_candidates(
    builder,
    scheme: AlignmentScheme,
    h_prev_head: Expr,
    h_prev_tail: Expr,
    e_prev_tail: Expr | None,
    sub_row: Expr,
) -> tuple[Expr, Expr | None]:
    """Gap-open candidates for one full DP row (columns 1..m).

    Returns ``(cand_tail, e_new)`` where ``cand_tail`` is
    ``max(diag, vertical-gap, ν)`` per column — everything *except* the
    horizontal dependency, which the kernel closes with a prefix scan:

        H(i,j) = max_{k ≤ j} ( cand_k − (j−k)·p )      (linear, p = −g)
        F(i,j) = max_{k < j} ( cand_k + open − (j−k)·pₑ )  (affine, pₑ = −gₑ)

    Clamping at ν *before* the scan is exact: a clamped 0 propagating
    right as −(j−k)·p is always dominated by the clamp at j itself.

    ``h_prev_head``/``h_prev_tail`` are H(i−1, 0..m−1) and H(i−1, 1..m);
    ``e_prev_tail`` is E(i−1, 1..m) (affine only).
    """
    diag, vgap = relax_row_sources(
        builder, scheme, h_prev_head, h_prev_tail, e_prev_tail, sub_row
    )
    cand_tail = smax(diag, vgap, Const(nu_of(scheme)))
    return cand_tail, (vgap if scheme.scoring.gaps.is_affine else None)
