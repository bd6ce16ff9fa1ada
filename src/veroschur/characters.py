"""Schur expansions of polynomial GL_n representations: the plethysms
and tensor powers of Sym^d, and the products they are built from.

An expansion is stored in the Schur basis, and no weight table is built
here: the Koszul cohomology's weight table and its alternant
decomposition live in veroschur.koszul, the only module that computes
one.  No monomial is listed here either: the Koszul module takes its
wedge factors from partitions.vectors_in_box.

Symmetric and exterior plethysms and tensor powers of Sym^d are built in
the Schur basis of GL_n by Newton's identity composed with h_d (Macdonald,
Symmetric Functions and Hall Polynomials, I.2 (2.11) and I.8)

    m h_m[h_d] = sum over k = 1..m of p_k[h_d] h_{m-k}[h_d],
    m e_m[h_d] = sum over k = 1..m of (-1)^(k-1) p_k[h_d] e_{m-k}[h_d],

with p_k[f](x) = f(x^k), so the p-th power takes p(p+1)/2 products and
nothing is enumerated over the partitions of p.  Every product by
p_k[h_d] is one walk over horizontal strips on the k-runner abacus of
lam + delta (_power_product), and k = 1 is the Pieri rule, so the tensor
power h_d^p is the chain of p such steps.  No product lists a term longer
than n, which is exact because restricting to n variables is a ring map;
each division by m is checked to be exact, and the dimension of every
power against its binomial closed form.  newton_powers returns the powers
H_0..H_p, so the Koszul strands (syzygy.strand_euler_characteristic) run
the same loop.
"""

from __future__ import annotations

from itertools import combinations, starmap
from math import comb
from operator import add, lt, sub
from typing import Sequence

from veroschur.config import DEFAULT_CONFIG, Record, RunConfig
from veroschur.partitions import (Partition, gl_dimension, normalize,
                                  vectors_in_box)


class NotACharacter(Exception):
    """A computed character (a koszul.WeightTable or a SchurExpansion) is
    malformed or not a nonnegative sum of irreducible characters: a fault
    of the program, not of its arguments."""


class SchurExpansion(Record):
    """Multiset of Schur functors with exact positive multiplicities."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int,
                 terms: dict[Partition, int] | None = None) -> None:
        terms = {} if terms is None else terms
        for lam, c in terms.items():
            if sorted(lam, reverse=True) != list(lam) or lam and lam[-1] < 1 \
                    or len(lam) > n or sum(lam) != degree:
                raise NotACharacter(f"bad term {lam} for n={n}, degree {degree}")
            if c <= 0:
                raise NotACharacter(f"nonpositive multiplicity at {lam}")
        self._freeze(n, degree, dict(sorted(terms.items(), reverse=True)))

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


def _power_product(terms: dict[Partition, int], k: int, d: int, n: int,
                   config: RunConfig, held: int = 0) -> dict[Partition, int]:
    """terms times p_k[h_d] over GL_n by horizontal strips on the k-abacus
    (Macdonald I.1 Ex. 8; Lascoux, Leclerc and Thibon, J. Math. Phys. 38,
    1997); k = 1 is the Pieri rule.

    The beads lam + delta sit on k runners by their residues mod k, listed
    runner by runner, top bead first; a bead at k q + r has quotient q.  In
    s_lam p_k[h_d] = sum over beta of a_{lam + delta + k beta} / a_delta
    (Macdonald I.3) the shifts that make two beads of a runner meet or pass
    cancel in pairs, and the rest raise the quotients of each runner by a
    horizontal strip, d steps in all: a bead up to one below the bead above
    it, a top bead by up to d.  mu is the sorted positions minus delta, and
    the sign is the parity of the inversions of the positions, runner by
    runner, before the move plus after it; with one runner the beads keep
    their order, so it is +.  No term is longer than n, and one lam gives
    each mu at most once.  The terms, on top of the held ones, are checked
    against the cap after each lam, so a product that outgrows it stops
    within one lam's strips past the cap."""
    delta = range(n - 1, -1, -1)
    out: dict[Partition, int] = {}
    for lam, c in terms.items():
        beads = list(map(add, lam + (0,) * (n - len(lam)), delta))
        if k > 1:
            beads.sort(key=lambda b: b % k)  # stable: runners stay top first
            residues = [b % k for b in beads]
            before = sum(starmap(lt, combinations(beads, 2)))
        lo = [b // k for b in beads]
        hi = [lo[i - 1] - 1 if i and (beads[i - 1] - b) % k == 0 else q + d
              for i, (b, q) in enumerate(zip(beads, lo))]
        for v in vectors_in_box(lo, hi, sum(lo) + d):
            signed = c
            if k > 1:
                v = [k * q + r for q, r in zip(v, residues)]
                if (before + sum(starmap(lt, combinations(v, 2)))) % 2:
                    signed = -c
                v.sort(reverse=True)
            mu = tuple(map(sub, v, delta))
            mu = mu[:n - mu.count(0)]  # a partition, so its zeros trail
            out[mu] = out.get(mu, 0) + signed
        config.check_table(held + len(out), "Schur terms")
    return {mu: c for mu, c in out.items() if c}


def newton_powers(p: int, d: int, n: int, wedge: bool,
                  config: RunConfig) -> list[dict[Partition, int]]:
    """The Schur terms of H_0, ..., H_p, where H_m is h_m[h_d] or e_m[h_d],
    by Newton's identity composed with h_d,

        m H_m = sum over k = 1..m of eps_k p_k[h_d] H_{m-k},

    from H_0 = 1, with eps_k = (-1)^(k-1) for e and 1 for h.  Each
    division by m is checked to be exact and nonnegative, and once the
    loop is done the dimension of every H_m is checked against the closed
    form C(N+m-1, m) or C(N, m), N = C(n+d-1, d).  Each product is
    s_lam p_k[h_d] by _power_product.  Before each product with k >= 2
    runs, its terms times N, an upper bound on the strips that it lists,
    count against max_enum_nodes with those of every such product so far;
    the stored H_j, the running sum and the product being filled count
    against max_table_entries as each product fills."""
    _check_power_args(p, d, n)
    monos = comb(n + d - 1, d)
    powers: list[dict[Partition, int]] = [{(): 1}]
    nodes = 0
    for m in range(1, p + 1):
        total: dict[Partition, int] = {}
        for k in range(1, m + 1):
            if k > 1:
                nodes += len(powers[m - k]) * monos
                config.check_nodes(nodes, "alternant terms")
            held = sum(map(len, powers)) + len(total)
            step = _power_product(powers[m - k], k, d, n, config, held)
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
    for m, terms in enumerate(powers):
        dim = sum(c * gl_dimension(lam, n) for lam, c in terms.items())
        want = comb(monos, m) if wedge else comb(monos + m - 1, m)
        if dim != want:
            raise NotACharacter(f"dimension {dim} at power {m} after "
                                f"decomposition, expected {want}")
    return powers


def wedge_power_sym(p: int, d: int, n: int,
                    config: RunConfig = DEFAULT_CONFIG) -> SchurExpansion:
    """Schur decomposition of the p-th exterior power of Sym^d(C^n), d >= 0:
    e_p[h_d], empty when p exceeds the number of monomials."""
    return SchurExpansion(n, p * d, newton_powers(p, d, n, True, config)[-1])


def sym_power_sym(p: int, d: int, n: int,
                  config: RunConfig = DEFAULT_CONFIG) -> SchurExpansion:
    """Schur decomposition of the p-th symmetric power of Sym^d(C^n),
    d >= 0: h_p[h_d]."""
    return SchurExpansion(n, p * d, newton_powers(p, d, n, False, config)[-1])


def tensor_power_sym(p: int, d: int, n: int,
                     config: RunConfig = DEFAULT_CONFIG) -> SchurExpansion:
    """Schur decomposition of the p-th tensor power of Sym^d(C^n): h_d^p
    as p Pieri products, none of which lists a term longer than n; no
    weight table is built."""
    _check_power_args(p, d, n)
    terms: dict[Partition, int] = {(): 1}
    for _ in range(p):
        terms = _power_product(terms, 1, d, n, config, len(terms))
    return SchurExpansion(n, p * d, terms)


def tensor_with_sym(e: SchurExpansion, b: int,
                    config: RunConfig = DEFAULT_CONFIG) -> SchurExpansion:
    """Tensor with Sym^b by the Pieri rule over GL_n, which lists no term
    longer than n."""
    if b < 0:
        raise ValueError("b must be nonnegative")
    return SchurExpansion(e.n, e.degree + b,
                          _power_product(e.terms, 1, b, e.n, config))
