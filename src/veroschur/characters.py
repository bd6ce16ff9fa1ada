"""Characters of polynomial GL_n representations and Schur decompositions.

Characters are stored on dominant weights only (full Weyl orbits are
redundant by symmetry); Weyl-orbit sizes are used whenever a dimension is
needed.  No monomial is listed here: the plethysm tables below count
exponent vectors at dominant weights without building them, and the
Koszul module takes its wedge factors from partitions.vectors_in_box.

Symmetric and exterior plethysms are built as dominant weight tables and
decomposed by the alternant formula; tensor powers of Sym^d never need a
table, being repeated horizontal-strip (Pieri) products.  A plethysm
table comes from the cycle-index expansion (Macdonald, Symmetric
Functions and Hall Polynomials, I.8)

    h_p[h_d] = sum over nu |- p of z_nu^-1 p_nu[h_d],
    e_p[h_d] = sum over nu |- p of eps_nu z_nu^-1 p_nu[h_d],

with eps_nu = (-1)^(p - len(nu)) and p_k[f](x) = f(x^k).  The weight
multiplicity at a dominant mu is sum_nu eps_nu (p!/z_nu) T_nu(mu) / p!,
where T_nu(mu) counts the tuples of degree-d exponent vectors a_i with
sum_i nu_i a_i = mu.  Only dominant mu are visited, and the division by
p! is checked to be exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import factorial, prod
from operator import add
from typing import Sequence

from veroschur.config import DEFAULT_CONFIG, RunConfig
from veroschur.partitions import (Partition, gl_dimension, normalize,
                                  partitions_of, pieri)

Weight = tuple[int, ...]


class NotACharacter(ValueError):
    """The weight table is not a nonnegative sum of irreducible characters."""


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


def _check_power_args(p: int, d: int, n: int) -> None:
    if p < 1 or d < 0 or n < 1:
        raise ValueError("need p, n >= 1 and d >= 0")


def _cycle_types(p: int, wedge: bool) -> list[tuple[Partition, int]]:
    """(nu, eps_nu * p!/z_nu) for every partition nu of p: the signed size
    of the conjugacy class of S_p with cycle type nu, with
    eps_nu = (-1)^(p - len(nu)) for the exterior power and 1 otherwise."""
    out = []
    for nu in partitions_of(p):
        z = 1
        for k in set(nu):
            m = nu.count(k)
            z *= k ** m * factorial(m)
        sign = -1 if wedge and (p - len(nu)) % 2 else 1
        out.append((nu, sign * factorial(p) // z))
    return out


def _run_moves(run: tuple[int, ...], lo: int, hi: int, held: int,
               config: RunConfig) -> dict[tuple[tuple[int, ...], int], int]:
    """Ways to take between lo and hi in total out of rows of equal nu_i
    whose residuals are run (weakly decreasing), one entry per row:
    (residuals left, sorted; amount taken) -> number of row-by-row
    choices.  Rows of equal residual are interchangeable, so each multiset
    of takes counts with its multinomial coefficient.  The partial table,
    on top of the held entries, is checked against the cap after each
    group of equal residuals."""
    partial: dict[tuple[tuple[int, ...], int], int] = {((), 0): 1}
    room = sum(run)
    i = 0
    while i < len(run):
        r, c = run[i], run.count(run[i])
        i += c
        room -= r * c
        grown: dict[tuple[tuple[int, ...], int], int] = {}
        for takes in combinations_with_replacement(range(r + 1), c):
            weight = factorial(c)
            for t in set(takes):
                weight //= factorial(takes.count(t))
            gone = sum(takes)
            rest = tuple(r - t for t in takes)
            for (left, taken), w in partial.items():
                if lo <= taken + gone + room and taken + gone <= hi:
                    key = (left + rest, taken + gone)
                    grown[key] = grown.get(key, 0) + w * weight
        config.check_table(held + len(grown))
        partial = grown
    out: dict[tuple[tuple[int, ...], int], int] = {}
    for (left, taken), w in partial.items():
        key = (tuple(sorted(left, reverse=True)), taken)
        out[key] = out.get(key, 0) + w
    return out


def _knapsack(rows: Sequence[tuple[int, int]]) -> list[int]:
    """Coefficients of prod (1 + x^v + ... + x^(v r)) over rows (v, r):
    entry s counts the vectors 0 <= a_i <= r_i with sum v_i a_i = s."""
    poly = [1]
    for v, r in rows:
        if not r:
            continue
        span = v * (r + 1)
        grown = [0] * (len(poly) + v * r)
        for t in range(len(grown)):
            acc = poly[t] if t < len(poly) else 0
            if t >= v:
                acc += grown[t - v]
            if span <= t < span + len(poly):
                acc -= poly[t - span]
            grown[t] = acc
        poly = grown
    return poly


def _add_column_counts(nu: Partition, coef: int, d: int, n: int,
                       out: dict[Weight, int], config: RunConfig) -> None:
    """Add coef * T_nu(mu) to out[mu] for every dominant mu of length n.

    T_nu(mu) counts the tables a_ij >= 0 with row sums d and column sums
    sum_i nu_i a_ij = mu_j.  Columns are filled left to right; a state is
    the row residuals, sorted within each run of equal nu_i, and maps each
    dominant prefix of mu to its count.  A column may take s only if
    s <= the previous column and the rest fits in the columns left at
    most s each.  The last two columns are one bounded-knapsack count.

    The cap bounds the (state, prefix) entries of the level being built
    plus the moves of the state at hand, and, at the knapsack, the weights
    counted so far.  It is checked after each prefix, so a level that
    outgrows it stops at most one state's moves past the cap.
    """
    values = sorted(set(nu), reverse=True)
    if n == 1:
        out[(sum(nu) * d,)] = out.get((sum(nu) * d,), 0) + coef
        return
    level: dict[tuple[tuple[int, ...], ...], dict[Weight, int]] = {
        tuple((d,) * nu.count(v) for v in values): {(): coef}}
    for columns_left in range(n - 1, 1, -1):
        grown: dict[tuple[tuple[int, ...], ...], dict[Weight, int]] = {}
        size = 0
        for state, prefixes in level.items():
            total = sum(v * sum(run) for v, run in zip(values, state))
            # the column takes at most the previous one and at least what
            # spreads the rest over the columns after it
            hi = max(prefix[-1] if prefix else total for prefix in prefixes)
            lo = -(-total // (columns_left + 1))
            moves: dict[tuple[tuple[tuple[int, ...], ...], int], int] = {((), 0): 1}
            for v, run in zip(values, state):
                other = total - v * sum(run)
                run_moves = _run_moves(run, -(-(lo - other) // v), hi // v,
                                       size + len(moves), config)
                moves = {(left + (rest,), s + v * taken): w * ways
                         for (left, s), w in moves.items()
                         for (rest, taken), ways in run_moves.items()}
                config.check_table(size + len(moves))
            ordered = sorted((s, left, w) for (left, s), w in moves.items()
                             if lo <= s <= hi)
            for prefix, count in prefixes.items():
                last = prefix[-1] if prefix else total
                for s, left, w in ordered:
                    if s > last:
                        break
                    row = grown.setdefault(left, {})
                    key = prefix + (s,)
                    if key in row:
                        row[key] += count * w
                    else:
                        row[key] = count * w
                        size += 1
                config.check_table(size)
        level = grown
    for state, prefixes in level.items():
        total = sum(v * sum(run) for v, run in zip(values, state))
        poly = _knapsack([(v, r) for v, run in zip(values, state) for r in run])
        for prefix, count in prefixes.items():
            last = prefix[-1] if prefix else total
            for s in range((total + 1) // 2, min(last, total) + 1):
                if poly[s]:
                    mu = prefix + (s, total - s)
                    out[mu] = out.get(mu, 0) + count * poly[s]
        config.check_table(len(out))


def _char_plethysm(p: int, d: int, n: int, wedge: bool,
                   config: RunConfig) -> WeightTable:
    """Dominant weight multiplicities by the cycle-index expansion
    m(mu) = sum over nu of eps_nu (p!/z_nu) T_nu(mu) / p!, integer only."""
    _check_power_args(p, d, n)
    signed: dict[Weight, int] = {}
    for nu, coef in _cycle_types(p, wedge):
        _add_column_counts(nu, coef, d, n, signed, config)
    entries: dict[Weight, int] = {}
    for mu, c in signed.items():
        mult, rest = divmod(c, factorial(p))
        if rest or mult < 0:
            raise NotACharacter(f"cycle-index sum {c} at {mu} is not a "
                                f"nonnegative multiple of {p}!")
        if mult:
            entries[mu] = mult
    return WeightTable(n, p * d, entries)


def char_wedge_sym(p: int, d: int, n: int,
                   config: RunConfig = DEFAULT_CONFIG) -> WeightTable:
    """Character of the p-th exterior power of Sym^d(C^n), d >= 0.

    Coefficient of z^p in the product of (1 + z x^m) over degree-d
    monomials m, equal to e_p[h_d]; empty when p exceeds the number of
    monomials.  Built by the cycle-index expansion (see the module
    docstring).
    """
    return _char_plethysm(p, d, n, True, config)


def char_sym_sym(p: int, d: int, n: int,
                 config: RunConfig = DEFAULT_CONFIG) -> WeightTable:
    """Character of the p-th symmetric power of Sym^d(C^n), d >= 0.

    Equal to h_p[h_d]; built by the cycle-index expansion (see the module
    docstring).
    """
    return _char_plethysm(p, d, n, False, config)


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
    _check_power_args(p, d, n)
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

