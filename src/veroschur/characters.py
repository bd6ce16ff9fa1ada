"""Characters of polynomial GL_n representations and Schur decompositions.

Characters are stored on dominant weights only (full Weyl orbits are
redundant by symmetry); Weyl-orbit sizes are used whenever a dimension is
needed.  No monomial is listed here: the Koszul module takes its wedge
factors from partitions.vectors_in_box, and the plethysms below never
build a weight table.

Symmetric and exterior plethysms and tensor powers of Sym^d are built in
the Schur basis of GL_n by Newton's identity composed with h_d (Macdonald,
Symmetric Functions and Hall Polynomials, I.2 (2.11) and I.8)

    m h_m[h_d] = sum over k = 1..m of p_k[h_d] h_{m-k}[h_d],
    m e_m[h_d] = sum over k = 1..m of (-1)^(k-1) p_k[h_d] e_{m-k}[h_d],

with p_k[f](x) = f(x^k), so the p-th power takes p(p+1)/2 products and
nothing is enumerated over the partitions of p.  A product by p_k[h_d] with
k = 1 is a horizontal-strip (Pieri) step, and with k >= 2 it shifts
lam + delta by k times every degree-d exponent vector (the alternant rule,
Macdonald I.3).  The tensor power h_d^p is the chain of p Pieri steps.
Terms longer than n are dropped after each product, which is exact because
restricting to n variables is a ring map; each division by m is checked to
be exact, the dimension is checked against the binomial closed form, and
the shifts are counted before they are listed.

schur_decompose turns a weight table (the Koszul cohomology) into Schur
terms by the alternant formula.
"""

from __future__ import annotations

from itertools import combinations, starmap
from math import comb, factorial, prod
from operator import add, lt, sub
from typing import Sequence

from veroschur.config import DEFAULT_CONFIG, Record, RunConfig
from veroschur.partitions import (Partition, gl_dimension, normalize, pieri,
                                  vectors_in_box)

Weight = tuple[int, ...]


class NotACharacter(Exception):
    """A computed character is not a nonnegative sum of irreducible
    characters: a fault of the program, not of its arguments."""


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


class WeightTable(Record):
    """Character data: dominant weight -> exact positive multiplicity."""

    __slots__ = ("n", "degree", "entries")

    def __init__(self, n: int, degree: int,
                 entries: dict[Weight, int] | None = None) -> None:
        entries = {} if entries is None else entries
        for w, c in entries.items():
            if len(w) != n or sum(w) != degree or not is_dominant(w):
                raise ValueError(f"bad dominant weight {w} for degree {degree}")
            if c <= 0:
                raise ValueError(f"nonpositive entry at {w}")
        self.n = n
        self.degree = degree
        self.entries = dict(sorted(entries.items(), reverse=True))

    def dimension(self) -> int:
        return sum(c * orbit_size(w) for w, c in self.entries.items())


class SchurExpansion(Record):
    """Multiset of Schur functors with exact positive multiplicities."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int,
                 terms: dict[Partition, int] | None = None) -> None:
        terms = {} if terms is None else terms
        for lam, c in terms.items():
            if normalize(lam) != lam or len(lam) > n or sum(lam) != degree:
                raise ValueError(f"bad term {lam} for n={n}, degree {degree}")
            if c <= 0:
                raise ValueError(f"nonpositive multiplicity at {lam}")
        self.n = n
        self.degree = degree
        self.terms = dict(sorted(terms.items(), reverse=True))

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


def _check_power_args(p: int, d: int, n: int) -> None:
    if p < 1 or d < 0 or n < 1:
        raise ValueError("need p, n >= 1 and d >= 0")


def _pieri_product(terms: dict[Partition, int], b: int, n: int,
                   config: RunConfig, held: int = 0) -> dict[Partition, int]:
    """terms times h_b by the horizontal-strip rule, dropping terms longer
    than n.  The terms, on top of the held ones, are checked against the
    cap after each lam, so a product that outgrows it stops within one
    lam's strips past the cap."""
    out: dict[Partition, int] = {}
    for lam, c in terms.items():
        for mu in pieri(lam, b):
            if len(mu) <= n:
                out[mu] = out.get(mu, 0) + c
        config.check_table(held + len(out), "Schur terms")
    return out


def _alternant_product(terms: dict[Partition, int], k: int,
                       shifts: list[Weight], n: int, config: RunConfig,
                       held: int) -> dict[Partition, int]:
    """terms times p_k[h_d] over GL_n, shifts being the degree-d exponent
    vectors beta of length n, by the alternant rule

        s_lam p_k[h_d] = sum over beta of a_{lam + delta + k beta} / a_delta,

    where a_alpha is 0 when alpha has a repeated entry and otherwise
    sgn(sort) a_{sort(alpha)}, with sort(alpha) - delta a partition of at
    most n parts (Macdonald I.3).  The cap is checked as in _pieri_product."""
    steps = [tuple(k * v for v in beta) for beta in shifts]
    delta = range(n - 1, -1, -1)
    out: dict[Partition, int] = {}
    for lam, c in terms.items():
        top = tuple(map(add, lam + (0,) * (n - len(lam)), delta))
        for step in steps:
            alpha = tuple(map(add, top, step))
            if len(set(alpha)) < n:
                continue
            inversions = sum(starmap(lt, combinations(alpha, 2)))
            mu = tuple(map(sub, sorted(alpha, reverse=True), delta))
            mu = mu[:n - mu.count(0)]  # a partition, so its zeros trail
            out[mu] = out.get(mu, 0) + (-c if inversions % 2 else c)
        config.check_table(held + len(out), "Schur terms")
    return {mu: c for mu, c in out.items() if c}


def _plethysm(p: int, d: int, n: int, wedge: bool,
              config: RunConfig) -> SchurExpansion:
    """Schur terms of h_p[h_d] or e_p[h_d] by Newton's identity composed
    with h_d,

        m H_m = sum over k = 1..m of eps_k p_k[h_d] H_{m-k},

    from H_0 = 1, with eps_k = (-1)^(k-1) for e and 1 for h.  Each
    division by m is checked to be exact and nonnegative, and the
    dimension is checked against the closed form C(N+p-1, p) or C(N, p),
    N = C(n+d-1, d).  The terms times the shifts of every alternant
    product so far count against max_enum_nodes before each one runs, and
    the stored H_j, the running sum and the product being filled against
    max_table_entries as each product fills."""
    _check_power_args(p, d, n)
    shifts: list[Weight] = []
    if p > 1:
        config.check_table(comb(n + d - 1, d), "alternant shifts")
        shifts = vectors_in_box((0,) * n, (d,) * n, d)
    powers: list[dict[Partition, int]] = [{(): 1}]
    nodes = 0
    for m in range(1, p + 1):
        total: dict[Partition, int] = {}
        for k in range(1, m + 1):
            held = sum(map(len, powers)) + len(total)
            if k == 1:
                step = _pieri_product(powers[-1], d, n, config, held)
            else:
                nodes += len(powers[m - k]) * len(shifts)
                config.check_nodes(nodes, "alternant terms")
                step = _alternant_product(powers[m - k], k, shifts, n, config,
                                          held)
            sign = -1 if wedge and k % 2 == 0 else 1
            for lam, c in step.items():
                total[lam] = total.get(lam, 0) + sign * c
        terms: dict[Partition, int] = {}
        for lam, c in total.items():
            mult, rest = divmod(c, m)
            if rest or mult < 0:
                raise NotACharacter(f"Newton sum {c} at {lam} is not a "
                                    f"nonnegative multiple of {m}")
            if mult:
                terms[lam] = mult
        powers.append(terms)
    out = SchurExpansion(n, p * d, powers[-1])
    monos = comb(n + d - 1, d)
    want = comb(monos, p) if wedge else comb(monos + p - 1, p)
    if out.dimension() != want:
        raise NotACharacter(f"dimension {out.dimension()} after "
                            f"decomposition, expected {want}")
    return out


def wedge_power_sym(p: int, d: int, n: int,
                    config: RunConfig = DEFAULT_CONFIG) -> SchurExpansion:
    """Schur decomposition of the p-th exterior power of Sym^d(C^n), d >= 0:
    e_p[h_d], empty when p exceeds the number of monomials."""
    return _plethysm(p, d, n, True, config)


def sym_power_sym(p: int, d: int, n: int,
                  config: RunConfig = DEFAULT_CONFIG) -> SchurExpansion:
    """Schur decomposition of the p-th symmetric power of Sym^d(C^n),
    d >= 0: h_p[h_d]."""
    return _plethysm(p, d, n, False, config)


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
    """Schur decomposition of the p-th tensor power of Sym^d(C^n): h_d^p
    as p Pieri products, with terms longer than n dropped as they appear;
    no weight table is built."""
    _check_power_args(p, d, n)
    terms: dict[Partition, int] = {(): 1}
    for _ in range(p):
        terms = _pieri_product(terms, d, n, config, len(terms))
    return SchurExpansion(n, p * d, terms)


def tensor_with_sym(e: SchurExpansion, b: int,
                    config: RunConfig = DEFAULT_CONFIG) -> SchurExpansion:
    """Tensor with Sym^b via the horizontal-strip rule, truncating terms
    whose length exceeds n."""
    if b < 0:
        raise ValueError("b must be nonnegative")
    return SchurExpansion(e.n, e.degree + b,
                          _pieri_product(e.terms, b, e.n, config))
