"""Exact integer matrix rank by fraction-free reduction in place.

The input is a sequence of sparse vectors, the rows or the columns of a
matrix; the rank is the same either way.  Each kept vector is stored
under its largest index, so kept vectors have distinct largest indices
and are therefore independent; every other vector reduces to zero
against them, so the rank is their number.  This is the reduction of the
persistence algorithm (Edelsbrunner, Letscher and Zomorodian 2002) with
exact cross-multiplication and gcd reduction; it is the rank routine for
Koszul blocks.

A Koszul block d_in, d_out clears in the cohomology direction, on the
rows of its maps (de Silva, Morozov and Vejdemo-Johansson 2011, Dualities
in persistent (co)homology; Bauer, Kerber and Reininghaus 2014, Clear and
compress).  The rows of d_out are reduced first.  A kept row z of d_out
whose largest index is i lies in im d_out^T, inside ker d_in^T because
d_out d_in = 0, so row i of d_in is a combination of the rows before it:
it would reduce to zero, and skipping it leaves the rank as it is.  In a
typical block the left term is the largest, so this reduces fewer vectors
than reducing the columns of d_in first.
"""

from __future__ import annotations

from math import gcd
from typing import Container, Sequence

SparseVec = dict[int, int]


def _normalize(vec: SparseVec, lead: int) -> SparseVec:
    """vec divided by the gcd of its entries and by the sign of vec[lead]."""
    g = 0
    for v in vec.values():
        g = gcd(g, v)
        if g == 1:
            break
    if vec[lead] < 0:
        g = -g
    if g != 1:
        for i, v in vec.items():
            vec[i] = v // g
    return vec


def rank_sparse(vectors: Sequence[SparseVec], skip: Container[int] = (),
                pivots: set[int] | None = None) -> int:
    """Rank of the matrix whose rows (or columns) are sparse {index: value}
    dicts.

    Each vector is copied once and reduced in place by the kept vector
    stored under its largest index until that index is free, where it is
    kept, or nothing is left.  A kept vector has a positive entry pv at its
    largest index; a step pops the entry cv there, scales what is left by
    pv / g with g = gcd(pv, cv) when that is not 1, and subtracts cv / g
    times the rest of the kept vector.  A step cancels the largest index
    and adds only smaller ones, so the loop ends.  Vectors whose position
    is in skip are left out; pivots, if given, receives the largest indices
    of the kept vectors.  The input vectors are not mutated.
    """
    kept: dict[int, SparseVec] = {}
    for j, vec in enumerate(vectors):
        if j in skip:
            continue
        vec = {i: v for i, v in vec.items() if v}
        while vec:
            lead = max(vec)
            piv = kept.get(lead)
            if piv is None:
                kept[lead] = _normalize(vec, lead)
                break
            cv = vec.pop(lead)
            pv = piv[lead]
            g = gcd(pv, cv)
            a, b = pv // g, cv // g
            if a != 1:
                for i, v in vec.items():
                    vec[i] = a * v
            for i, v in piv.items():
                if i != lead:
                    w = vec.get(i, 0) - b * v
                    if w:
                        vec[i] = w
                    else:
                        del vec[i]
    if pivots is not None:
        pivots.update(kept)
    return len(kept)
