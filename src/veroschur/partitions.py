"""Integer partitions: conjugation, dominance, horizontal strips, counts.

Partitions are plain tuples of weakly decreasing positive integers, stored
without trailing zeros; missing parts are treated as 0.  All counts are
exact Python integers.
"""

from __future__ import annotations

from math import factorial
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
    decreasing lexicographic order, by a recursion len(lo) deep.

    Each coordinate runs only over values that the later coordinates,
    between their bounds, can still complete to total, so no branch dies.
    Horizontal strips (Macdonald I.5) lie between interlacing bounds; the
    Koszul wedge factors are the vectors of degree d under a weight.
    """
    n = len(lo)
    floor = [sum(lo[i:]) for i in range(n + 1)]
    ceil = [sum(hi[i:]) for i in range(n + 1)]
    out: list[tuple[int, ...]] = []
    built = [0] * n

    def rec(i: int, rest: int) -> None:
        if i == n:
            out.append(tuple(built))
            return
        for v in range(min(hi[i], rest - floor[i + 1]),
                       max(lo[i], rest - ceil[i + 1]) - 1, -1):
            built[i] = v
            rec(i + 1, rest - v)

    if floor[0] <= total <= ceil[0]:
        rec(0, total)
    return out


def pieri(lam: Sequence[int], b: int) -> tuple[Partition, ...]:
    """All mu >= lam with mu/lam a horizontal strip of b boxes.

    mu interlaces lam from above, lam_i <= mu_i <= lam_{i-1}, in one more
    row.  Returned in decreasing lexicographic order; pieri(lam, 0) == (lam,).
    """
    lam = normalize(lam)
    if b < 0:
        raise ValueError("strip size must be nonnegative")
    lo = lam + (0,)
    hi = (part(lam, 0) + b,) + lam
    return tuple(normalize(mu) for mu in vectors_in_box(lo, hi, sum(lo) + b))


def partitions_of(n: int, max_parts: int | None = None) -> Iterator[Partition]:
    """All partitions of n, in decreasing lexicographic order."""
    if n < 0:
        return

    def rec(remaining: int, bound: int, slots: int | None, built: list[int]):
        if remaining == 0:
            yield tuple(built)
            return
        if slots is not None and slots == 0:
            return
        for v in range(min(bound, remaining), 0, -1):
            built.append(v)
            yield from rec(remaining - v, v,
                           None if slots is None else slots - 1, built)
            built.pop()

    yield from rec(n, n, max_parts, [])


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


def sym_group_irrep_dim(mu: Sequence[int]) -> int:
    """Number of standard Young tableaux of shape mu (hook lengths)."""
    mu = normalize(mu)
    n = sum(mu)
    if n == 0:
        return 1
    conj = conjugate(mu)
    denom = 1
    for i, row in enumerate(mu):
        for j in range(row):
            denom *= row - j + conj[j] - i - 1
    return factorial(n) // denom


def gl_dimension(lam: Sequence[int], n: int) -> int:
    """Dimension of the irreducible GL_n representation of highest weight lam."""
    lam = normalize(lam)
    if len(lam) > n:
        return 0
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= part(lam, i) - part(lam, j) + j - i
            den *= j - i
    return num // den
