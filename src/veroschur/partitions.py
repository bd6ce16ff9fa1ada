"""Integer partitions: the normal form, dominant weights, conjugation,
sums, vectors in a box (by an odometer walk, not a recursion), the
partitions of n (by a stack walk), and the hook-length dimension
formulas.  A helper with a single caller lives in that caller's module
instead (dominance and parts in constructions, partition counts in
cones), so a command compiles only the helpers it can reach.

Partitions are plain tuples of weakly decreasing positive integers, stored
without trailing zeros; missing parts are treated as 0.  All counts are
exact Python integers.
"""

from __future__ import annotations

from itertools import combinations, starmap, zip_longest
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


def is_dominant(w: Sequence[int]) -> bool:
    """Whether the weight w is weakly decreasing and nonnegative, so a
    partition padded with zeros."""
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1)) and \
        (not w or w[-1] >= 0)


def conjugate(lam: Sequence[int]) -> Partition:
    lam = normalize(lam)
    if not lam:
        return ()
    return tuple(sum(1 for v in lam if v > i) for i in range(lam[0]))


def add(lam: Sequence[int], mu: Sequence[int]) -> Partition:
    """Componentwise sum; valid whenever both inputs are partitions."""
    return normalize(tuple(a + b for a, b in zip_longest(lam, mu,
                                                         fillvalue=0)))


def vectors_in_box(lo: Sequence[int], hi: Sequence[int],
                   total: int) -> list[tuple[int, ...]]:
    """Integer vectors v with lo <= v <= hi and sum(v) == total, in
    decreasing lexicographic order, by an odometer over the free
    coordinates, those with lo < hi; the fixed ones are copied from lo, and
    a box with some lo > hi is empty.

    Each free coordinate runs only over values that the later ones, between
    their bounds, can still complete to total, so no branch dies: the walk
    sets the free coordinates in turn, each at its largest such value and
    the last one to the rest, then backs up to the deepest one that can
    still go down by one, lowers it, and sets the ones after it again.  It
    holds one vector and no stack, whatever the number of free coordinates.
    Horizontal strips (Macdonald I.5) lie between interlacing bounds; the
    Koszul wedge factors are the vectors of degree d under a weight.
    """
    if any(map(gt, lo, hi)):
        return []
    widths = list(map(sub, hi, lo))
    left = total - sum(lo)  # what the free coordinates from j on take
    room = sum(widths)
    if not 0 <= left <= room:
        return []
    built = list(lo)
    free = []  # each free coordinate but the last, with the room after it
    for i, w in enumerate(widths):
        if w:
            room -= w
            free.append((i, room))
    if not free:
        return [tuple(built)]
    last, _ = free.pop()  # takes what the earlier ones leave it
    depth = len(free)
    out: list[tuple[int, ...]] = []
    j = 0
    while True:
        while j < depth:
            i, _ = free[j]
            v = min(widths[i], left)
            built[i] += v
            left -= v
            j += 1
        built[last] = lo[last] + left
        out.append(tuple(built))
        j -= 1
        while j >= 0:
            i, room = free[j]
            if built[i] > lo[i] and left < room:
                break
            left += built[i] - lo[i]
            built[i] = lo[i]
            j -= 1
        else:
            return out
        built[i] -= 1
        left += 1
        j += 1


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
