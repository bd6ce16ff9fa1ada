"""Integer partitions: conjugation, dominance, vectors in a box, counts,
and the hook-length dimension formulas.

Partitions are plain tuples of weakly decreasing positive integers, stored
without trailing zeros; missing parts are treated as 0.  All counts are
exact Python integers.
"""

from __future__ import annotations

from itertools import combinations, starmap
from math import factorial, perm, prod
from operator import gt, sub
from typing import Iterator, Sequence

Partition = tuple[int, ...]


def normalize(parts: Sequence[int]) -> Partition:
    """Canonical form: drop trailing zeros, validate weak decrease."""
    p = tuple(parts)
    while p and p[-1] == 0:
        p = p[:-1]
    for i in range(len(p) - 1):
        if p[i] < p[i + 1]:
            raise ValueError(f"not weakly decreasing: {parts!r}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {parts!r}")
    return p


def length(lam: Sequence[int]) -> int:
    """Number of nonzero parts."""
    return len(normalize(lam))


def part(lam: Sequence[int], i: int) -> int:
    """i-th part (0-based), 0 beyond the stored length."""
    return lam[i] if i < len(lam) else 0


def conjugate(lam: Sequence[int]) -> Partition:
    lam = normalize(lam)
    if not lam:
        return ()
    return tuple(sum(1 for v in lam if v > i) for i in range(lam[0]))


def add(lam: Sequence[int], mu: Sequence[int]) -> Partition:
    """Componentwise sum; valid whenever both inputs are partitions."""
    k = max(len(lam), len(mu))
    return normalize(tuple(part(lam, i) + part(mu, i) for i in range(k)))


def dominates(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Partial-sum dominance; requires equal sizes."""
    lam, mu = normalize(lam), normalize(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: {lam} vs {mu}")
    acc = 0
    for i in range(max(len(lam), len(mu))):
        acc += part(lam, i) - part(mu, i)
        if acc < 0:
            return False
    return True


def vectors_in_box(lo: Sequence[int], hi: Sequence[int],
                   total: int) -> list[tuple[int, ...]]:
    """Integer vectors v with lo <= v <= hi and sum(v) == total, in
    decreasing lexicographic order, by a recursion as deep as its free
    coordinates, those with lo < hi; the fixed ones are copied from lo, and
    a box with some lo > hi is empty.

    Each free coordinate runs only over values that the later ones, between
    their bounds, can still complete to total, so no branch dies.
    Horizontal strips (Macdonald I.5) lie between interlacing bounds; the
    Koszul wedge factors are the vectors of degree d under a weight.
    """
    if any(map(gt, lo, hi)):
        return []
    free = [i for i, (a, b) in enumerate(zip(lo, hi)) if a < b]
    ceil = [0] * (len(free) + 1)  # room left in the free coordinates from j
    for j in range(len(free) - 1, -1, -1):
        ceil[j] = ceil[j + 1] + hi[free[j]] - lo[free[j]]
    out: list[tuple[int, ...]] = []
    built = list(lo)
    last = len(free) - 1

    def rec(j: int, rest: int) -> None:
        i = free[j]
        if j == last:  # the earlier ones left it room for exactly rest
            built[i] = lo[i] + rest
            out.append(tuple(built))
            return
        for v in range(min(hi[i], lo[i] + rest),
                       max(lo[i], lo[i] + rest - ceil[j + 1]) - 1, -1):
            built[i] = v
            rec(j + 1, rest - v + lo[i])

    rest = total - sum(lo)
    if not free:
        return [tuple(lo)] if rest == 0 else []
    if 0 <= rest <= ceil[0]:
        rec(0, rest)
    return out


def partitions_of(n: int, max_parts: int | None = None) -> Iterator[Partition]:
    """All partitions of n, in decreasing lexicographic order, by a walk
    over a stack of (rest, largest part allowed, parts so far).  A part is
    at least the rest over the parts still allowed, so every branch ends in
    a partition; the children are pushed smallest part first, so the
    largest pops first."""
    slots = n if max_parts is None else max_parts
    if n < 0 or n > 0 and slots < 1:
        return
    stack = [(n, n, ())]
    while stack:
        rest, bound, built = stack.pop()
        if rest == 0:
            yield built
            continue
        left = slots - len(built)
        for v in range((rest + left - 1) // left, min(bound, rest) + 1):
            stack.append((rest - v, v, built + (v,)))


def count_partitions(n: int, max_parts: int | None = None) -> int:
    """Exact partition count, optionally with at most max_parts parts."""
    if n < 0:
        return 0
    # conjugation swaps "at most k parts" with "parts <= k"; count the
    # latter by a table over part sizes
    k = n if max_parts is None else min(max_parts, n)
    ways = [1] + [0] * n
    for v in range(1, k + 1):
        for total in range(v, n + 1):
            ways[total] += ways[total - v]
    return ways[n]


def _hook_product(lam: Partition) -> int:
    """Product of the hook lengths of the boxes of lam, by Frobenius's
    formula: with l = len(lam) and the shifted parts s_i = lam_i + l - 1 - i,
    it is prod_i s_i! over prod_{i<j} (s_i - s_j) (Macdonald, Symmetric
    Functions and Hall Polynomials, I.1 Ex. 1).  The conjugate has the
    same hooks, so the one with fewer rows is used: a partition with a
    long first row and few rows, such as a Koszul or plethysm term over
    few variables, takes one factorial per row, not one factor per box."""
    if lam and lam[0] < len(lam):
        lam = conjugate(lam)
    shifted = [v + len(lam) - 1 - i for i, v in enumerate(lam)]
    return prod(map(factorial, shifted)) // prod(
        starmap(sub, combinations(shifted, 2)))


def sym_group_irrep_dim(mu: Sequence[int]) -> int:
    """Number of standard Young tableaux of shape mu (hook lengths)."""
    mu = normalize(mu)
    return factorial(sum(mu)) // _hook_product(mu)


def gl_dimension(lam: Sequence[int], n: int) -> int:
    """Dimension of the irreducible GL_n representation of highest weight
    lam: the product over the boxes of lam of (n + content) / hook
    (Stanley, EC2 7.21.2); the boxes of row i give (n - i) up to
    (n - i + lam_i - 1)."""
    lam = normalize(lam)
    if len(lam) > n:
        return 0
    num = 1
    for i, row in enumerate(lam):
        num *= perm(n - i + row - 1, row)
    return num // _hook_product(lam)
