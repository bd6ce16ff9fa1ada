"""Exact integer matrix rank by fraction-free column reduction.

Each kept column is stored under its largest row, so kept columns have
distinct largest rows and are therefore independent; every other column
reduces to zero against them, so the rank is their number.  This is the
column reduction of the persistence algorithm (Edelsbrunner, Letscher and
Zomorodian 2002) with exact cross-multiplication and gcd reduction; it is
the rank routine for Koszul blocks.

A Koszul block reduces d_in first and clears d_out by its pivot rows, the
clearing of persistent homology (Chen and Kerber 2011, Persistent homology
computation with a twist; Bauer, Kerber and Reininghaus 2014, Clear and
compress).  A kept column z of d_in with largest row i lies in im d_in,
inside ker d_out, so column i of d_out is a combination of the columns
before it: it would reduce to zero, and skipping it leaves the rank as it
is.
"""

from __future__ import annotations

from math import gcd
from typing import Container, Sequence

SparseCol = dict[int, int]


def _normalize(col: SparseCol) -> SparseCol:
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return col
    if g > 1:
        return {r: v // g for r, v in col.items()}
    return col


def _eliminate(col: SparseCol, piv: SparseCol, prow: int) -> SparseCol:
    """Exact combination cancelling the entry of col at prow."""
    pv = piv[prow]
    cv = col[prow]
    g = gcd(pv, cv)
    a, b = pv // g, cv // g
    out: SparseCol = {}
    for r, v in col.items():
        out[r] = a * v
    for r, v in piv.items():
        w = out.get(r, 0) - b * v
        if w:
            out[r] = w
        else:
            out.pop(r, None)
    return _normalize(out)


def rank_sparse(columns: Sequence[SparseCol], skip: Container[int] = (),
                pivots: set[int] | None = None) -> int:
    """Rank of the matrix whose columns are sparse {row: value} dicts.

    A new column is reduced by the kept column stored under its largest
    row until that row is free, where it is kept, or nothing is left.  A
    step cancels the largest row and adds only smaller ones, so the loop
    ends.  Columns whose index is in skip are left out; pivots, if given,
    receives the largest rows of the kept columns.  The input columns are
    not mutated.
    """
    kept: dict[int, SparseCol] = {}
    for j, col in enumerate(columns):
        if j in skip:
            continue
        col = _normalize({r: v for r, v in col.items() if v})
        while col:
            low = max(col)
            piv = kept.get(low)
            if piv is None:
                kept[low] = col
                break
            col = _eliminate(col, piv, low)
    if pivots is not None:
        pivots.update(kept)
    return len(kept)
