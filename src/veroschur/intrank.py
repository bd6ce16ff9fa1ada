"""Exact integer matrix rank via fraction-free elimination.

A sparse column elimination using exact cross-multiplication with gcd
reduction; it is the rank routine for Koszul blocks.
"""

from __future__ import annotations

from math import gcd

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


def rank_sparse(columns: list[SparseCol]) -> int:
    """Rank of the matrix whose columns are sparse {row: value} dicts.

    Pivot columns are kept clean of each other's pivot rows, so reducing a
    new column strictly shrinks its set of pivot rows and terminates.
    """
    pivots: dict[int, SparseCol] = {}
    for col in columns:
        col = _normalize({r: v for r, v in col.items() if v})
        while col:
            hit = None
            for r in sorted(col):
                if r in pivots:
                    hit = r
                    break
            if hit is None:
                break
            col = _eliminate(col, pivots[hit], hit)
        if not col:
            continue
        # prefer a unit pivot, then smallest magnitude, then smallest row
        prow = min(col, key=lambda r: (abs(col[r]), r))
        for existing in pivots.values():
            if prow in existing:
                new = _eliminate(existing, col, prow)
                existing.clear()
                existing.update(new)
        pivots[prow] = dict(col)
    return len(pivots)
