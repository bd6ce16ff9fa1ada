"""Characters of polynomial GL_n representations and Schur decompositions.

Characters are stored on dominant weights only (full Weyl orbits are
redundant by symmetry); Weyl-orbit sizes are used whenever a dimension is
needed.  The fixed monomial order everywhere is decreasing lexicographic
on exponent vectors, shared with the Koszul module.

Symmetric and exterior plethysms are built as weight tables by a monomial
DP and decomposed by the alternant formula; tensor powers of Sym^d never
need a table, being repeated horizontal-strip (Pieri) products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import factorial, prod
from operator import add
from typing import Mapping, Sequence

from veroschur.config import DEFAULT_CONFIG, RunConfig
from veroschur.partitions import (Partition, dominates, gl_dimension, normalize,
                                  partitions_of, pieri)
from veroschur.tableaux import kostka

Weight = tuple[int, ...]


class NotACharacter(ValueError):
    """The weight table is not a nonnegative sum of irreducible characters."""


@cache
def monomials(degree: int, n: int) -> tuple[Weight, ...]:
    """Exponent vectors of degree-d monomials in n variables, decreasing lex."""
    if n <= 0:
        raise ValueError("need at least one variable")
    if degree < 0:
        return ()
    if n == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        out.extend((first,) + rest for rest in monomials(degree - first, n - 1))
    return tuple(out)


def is_dominant(w: Sequence[int]) -> bool:
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1)) and (not w or w[-1] >= 0)


def orbit_size(w: Sequence[int]) -> int:
    """Size of the S_n orbit of the (dominant) weight w."""
    runs: dict[int, int] = {}
    for v in w:
        runs[v] = runs.get(v, 0) + 1
    size = factorial(len(w))
    for c in runs.values():
        size //= factorial(c)
    return size


def _vec_add(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


@dataclass
class WeightTable:
    """Character data: dominant weight -> exact positive multiplicity."""

    n: int
    degree: int
    entries: dict[Weight, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for w, c in self.entries.items():
            if len(w) != self.n or sum(w) != self.degree or not is_dominant(w):
                raise ValueError(f"bad dominant weight {w} for degree {self.degree}")
            if c <= 0:
                raise ValueError(f"nonpositive entry at {w}")
        self.entries = dict(sorted(self.entries.items(), reverse=True))

    def get(self, w: Sequence[int]) -> int:
        return self.entries.get(tuple(w), 0)

    def dimension(self) -> int:
        return sum(c * orbit_size(w) for w, c in self.entries.items())


@dataclass
class SchurExpansion:
    """Multiset of Schur functors with exact positive multiplicities."""

    n: int
    degree: int
    terms: dict[Partition, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for lam, c in self.terms.items():
            if normalize(lam) != lam or len(lam) > self.n or sum(lam) != self.degree:
                raise ValueError(f"bad term {lam} for n={self.n}, degree {self.degree}")
            if c <= 0:
                raise ValueError(f"nonpositive multiplicity at {lam}")
        self.terms = dict(sorted(self.terms.items(), reverse=True))

    def multiplicity(self, lam: Sequence[int]) -> int:
        return self.terms.get(normalize(lam), 0)

    def dimension(self) -> int:
        return sum(c * gl_dimension(lam, self.n) for lam, c in self.terms.items())

    def with_n(self, n: int) -> "SchurExpansion":
        """Reinterpret over C^n; valid when every term has length <= n."""
        return SchurExpansion(n, self.degree, dict(self.terms))


def total_multiplicity(e: SchurExpansion) -> int:
    """N: sum of all Schur multiplicities."""
    return sum(e.terms.values())


def complexity(e: SchurExpansion) -> int:
    """c: number of distinct Schur functor types."""
    return len(e.terms)


def _dominant_restrict(full: Mapping[Weight, int], n: int, degree: int) -> WeightTable:
    entries = {w: c for w, c in full.items() if is_dominant(w)}
    return WeightTable(n, degree, entries)


def _char_power(p: int, d: int, n: int, wedge: bool, config: RunConfig) -> WeightTable:
    monos = monomials(d, n)
    if wedge and p > len(monos):
        return WeightTable(n, p * d, {})
    levels: list[dict[Weight, int]] = [{(0,) * n: 1}] + [{} for _ in range(p)]
    for m in monos:
        ks = range(p, 0, -1) if wedge else range(1, p + 1)
        for k in ks:
            below = levels[k - 1]
            target = levels[k]
            for w, c in list(below.items()):
                key = _vec_add(w, m)
                target[key] = target.get(key, 0) + c
        config.check_table(sum(len(t) for t in levels))
    return _dominant_restrict(levels[p], n, p * d)


def char_wedge_sym(p: int, d: int, n: int,
                   config: RunConfig = DEFAULT_CONFIG) -> WeightTable:
    """Character of the p-th exterior power of Sym^d(C^n).

    Coefficient of z^p in the product of (1 + z x^m) over degree-d
    monomials m; empty when p exceeds the number of monomials.
    """
    if p < 1 or d < 1 or n < 1:
        raise ValueError("p, d, n must be positive")
    return _char_power(p, d, n, wedge=True, config=config)


def char_sym_sym(p: int, d: int, n: int,
                 config: RunConfig = DEFAULT_CONFIG) -> WeightTable:
    """Character of the p-th symmetric power of Sym^d(C^n)."""
    if p < 1 or d < 1 or n < 1:
        raise ValueError("p, d, n must be positive")
    return _char_power(p, d, n, wedge=False, config=config)


def _pad(lam: Partition, n: int) -> Weight:
    return lam + (0,) * (n - len(lam))


def _signed_offsets(bounds: tuple[int, ...]) -> list[tuple[Weight, int]]:
    """(sigma(i) - i for each i, sgn sigma) for every permutation sigma of
    range(len(bounds)) with sigma(i) >= i - bounds[i].

    Positions are assigned from the last to the first; a value already
    used below the one chosen sits at a later position, so it is an
    inversion.
    """
    n = len(bounds)
    partial: list[tuple[Weight, int, int]] = [((), 0, 1)]
    for i in range(n - 1, -1, -1):
        grown = []
        for offsets, used, sign in partial:
            for j in range(i - bounds[i], n):
                bit = 1 << j
                if used & bit:
                    continue
                flip = bin(used & (bit - 1)).count("1") % 2
                grown.append(((j - i,) + offsets, used | bit,
                              -sign if flip else sign))
        partial = grown
    return [(offsets, sign) for offsets, _, sign in partial]


def schur_decompose(w: WeightTable,
                    config: RunConfig = DEFAULT_CONFIG) -> SchurExpansion:
    """Decompose a character into Schur functors by the alternant formula.

    Multiplying the character by the Vandermonde alternant a_delta gives
    the sum of mult(lam) * a_{lam + delta}, so reading off the coefficient
    of x^{lam + delta} yields

        mult(lam) = sum over sigma of sgn(sigma) * m(lam + delta - sigma(delta)),

    with delta = (n-1, ..., 0) and m the weight multiplicity, zero on
    weights with a negative entry (Macdonald, Symmetric Functions and Hall
    Polynomials, I.3).  Only weights of the table can be highest weights.
    The number of signed terms, prod_i (1 + min(lam_i, i)) per weight, is
    checked against max_enum_nodes before any is evaluated.  Raises
    NotACharacter on a negative multiplicity or a dimension mismatch.
    """
    # row i of lam + delta - sigma(delta) stays nonnegative iff
    # sigma(i) >= i - lam_i; rows past the length of lam are then fixed
    bounds = {lam: tuple(min(v, i) for i, v in enumerate(lam) if v)
              for lam in w.entries}
    config.check_nodes(sum(prod(v + 1 for v in b) for b in bounds.values()))
    shifts: dict[tuple[int, ...], list[tuple[Weight, int]]] = {}
    terms: dict[Partition, int] = {}
    for lam, b in bounds.items():
        if b not in shifts:
            shifts[b] = _signed_offsets(b)
        head, tail = lam[:len(b)], lam[len(b):]
        mult = 0
        for offsets, sign in shifts[b]:
            mu = tuple(sorted(map(add, head, offsets), reverse=True)) + tail
            mult += sign * w.entries.get(mu, 0)
        if mult < 0:
            raise NotACharacter(f"negative multiplicity {mult} at {lam}")
        if mult:
            terms[head] = mult
    out = SchurExpansion(w.n, w.degree, terms)
    if out.dimension() != w.dimension():
        raise NotACharacter("dimension mismatch after decomposition")
    return out


def tensor_power_sym(p: int, d: int, n: int,
                     config: RunConfig = DEFAULT_CONFIG) -> SchurExpansion:
    """Schur decomposition of the p-th tensor power of Sym^d(C^n).

    Starts from Sym^d and tensors with Sym^d p - 1 times by the
    horizontal-strip rule, so terms longer than n are dropped as they
    appear; no weight table is built.
    """
    if p < 1 or d < 0 or n < 1:
        raise ValueError("need p, n >= 1 and d >= 0")
    e = SchurExpansion(n, d, {normalize((d,)): 1})
    for _ in range(p - 1):
        e = tensor_with_sym(e, d)
        config.check_table(len(e.terms))
    return e


def tensor_with_sym(e: SchurExpansion, b: int) -> SchurExpansion:
    """Tensor with Sym^b via the horizontal-strip rule, truncating terms
    whose length exceeds n."""
    if b < 0:
        raise ValueError("b must be nonnegative")
    if b == 0:
        return SchurExpansion(e.n, e.degree, dict(e.terms))
    out: dict[Partition, int] = {}
    for lam, c in e.terms.items():
        for mu in pieri(lam, b):
            if len(mu) <= e.n:
                out[mu] = out.get(mu, 0) + c
    return SchurExpansion(e.n, e.degree + b, out)


def schur_character(lam: Sequence[int], n: int) -> WeightTable:
    """Weight table of the single Schur functor S_lam on C^n."""
    lam = normalize(lam)
    if len(lam) > n:
        raise ValueError(f"{lam} does not fit in {n} rows")
    entries: dict[Weight, int] = {}
    for mu in partitions_of(sum(lam), max_parts=n):
        if dominates(lam, mu):
            k = kostka(lam, mu)
            if k:
                entries[_pad(mu, n)] = k
    return WeightTable(n, sum(lam), entries)
