"""Horizontal-strip chains and row-content matrices.

A semistandard tableau of shape lam and weight mu is a chain of shapes
growing by one horizontal strip per label (Stanley, EC2 7.10).
strip_chains lists the chains by peeling strips with
horizontal_strips_down, the box walker between interlacing bounds; the
staircase membership witness takes the first chain.

A tableau of weight (d, ..., d) with p rows is encoded by the p x p
upper-triangular matrix t where t[i][j] counts the labels j+1 in row i+1;
the diagonal is forced by the weight and the off-diagonal entries are the
lattice coordinates used by the multiplicity cone.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from veroschur.config import FrozenRecord
from veroschur.partitions import Partition, dominates, normalize, vectors_in_box


def offdiag_pairs(p: int) -> tuple[tuple[int, int], ...]:
    """Row-major (i, j) with i < j; the shared coordinate order (0-based)."""
    return tuple((i, j) for i in range(p) for j in range(i + 1, p))


class RowContentMatrix(FrozenRecord):
    """Upper-triangular label counts t[i][j] at level d, with both
    tableau conditions enforced at construction."""

    __slots__ = ("p", "d", "t")

    def __init__(self, p: int, d: int, t: tuple[tuple[int, ...], ...]) -> None:
        if len(t) != p or any(len(row) != p for row in t):
            raise ValueError("matrix must be p x p")
        for i in range(p):
            for j in range(i):
                if t[i][j] != 0:
                    raise ValueError(f"entry below diagonal at ({i},{j})")
        for j in range(p):
            col = sum(t[k][j] for k in range(j))
            if t[j][j] != d - col:
                raise ValueError(f"diagonal entry {j} inconsistent with level {d}")
            if t[j][j] < 0:
                raise ValueError(f"condition (1) fails at diagonal index {j}")
        for i in range(p - 1):
            for j in range(p):
                lhs = sum(t[i][k] for k in range(i, j))
                rhs = sum(t[i + 1][k] for k in range(i + 1, j + 1))
                if lhs < rhs:
                    raise ValueError(f"condition (2) fails at (i={i}, j={j})")
        self._freeze(p, d, t)

    @classmethod
    def from_offdiag(cls, p: int, d: int, values: Sequence[int]) -> "RowContentMatrix":
        """Build from the strictly-upper entries in offdiag_pairs order."""
        pairs = offdiag_pairs(p)
        if len(values) != len(pairs):
            raise ValueError(f"expected {len(pairs)} entries, got {len(values)}")
        t = [[0] * p for _ in range(p)]
        for (i, j), v in zip(pairs, values):
            t[i][j] = v
        for j in range(p):
            t[j][j] = d - sum(t[k][j] for k in range(j))
        return cls(p, d, tuple(tuple(row) for row in t))


def horizontal_strips_down(lam: Sequence[int], k: int) -> list[Partition]:
    """All nu <= lam with lam/nu a horizontal strip of k boxes: nu
    interlaces lam from below, lam_{i+1} <= nu_i <= lam_i, in decreasing
    lexicographic order."""
    lam = normalize(lam)
    lo = lam[1:] + (0,) if lam else ()
    return [normalize(nu) for nu in vectors_in_box(lo, lam, sum(lam) - k)]


def strip_chains(lam: Sequence[int],
                 mu: Sequence[int]) -> Iterator[tuple[Partition, ...]]:
    """Chains () < nu_1 < ... < nu_k = lam in which nu_i / nu_{i-1} is a
    horizontal strip of mu[i-1] boxes, returned without the leading ().

    These are the SSYT of shape lam and weight mu, one chain each.  Strips
    are tried in horizontal_strips_down order, and a shape nu is entered
    only if nu dominates sorted(mu[:i]): that is Kostka positivity, so the
    prune drops dead ends only.  mu may contain zeros; a negative entry or
    a size other than |lam| raises ValueError.
    """
    lam = normalize(lam)
    mu = tuple(mu)
    floors = [tuple(sorted(mu[:i], reverse=True)) for i in range(len(mu) + 1)]

    def chains(shape: Partition, k: int) -> Iterator[tuple[Partition, ...]]:
        if not dominates(shape, floors[k]):
            return
        if k == 0:
            yield ()
            return
        for nu in horizontal_strips_down(shape, mu[k - 1]):
            for chain in chains(nu, k - 1):
                yield chain + (shape,)

    yield from chains(lam, len(mu))
