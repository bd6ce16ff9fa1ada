"""Reference routes and helpers that only the tests use.

The production code keeps one route per quantity; the routes it replaced
live here as oracles for property tests, next to small matrix and table
helpers that the program itself never needs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import (combinations, combinations_with_replacement, starmap,
                       takewhile)
from math import factorial, floor
from operator import add, eq, le, lt
from typing import Iterator, Sequence

from veroschur.characters import NotACharacter, SchurExpansion
from veroschur.cli import cmd_cones, cmd_decompose, cmd_syzygy, cmd_verify
from veroschur.cones import (ConeCrossSection, _at_level, _content_form,
                             _count_points, content_cone_section,
                             offdiag_pairs)
from veroschur.config import DEFAULT_CONFIG, FORMATS, Record, RunConfig
from veroschur.constructions import dominates, part
from veroschur.intrank import SparseVec
from veroschur.koszul import KoszulBlock, Weight, WeightTable
from veroschur.partitions import (Partition, is_dominant, normalize,
                                  partitions_of, vectors_in_box)
from veroschur.syzygy import KoszulSpec


# ---------------------------------------------------------------------------
# partitions by the recursion that the stack walk of partitions.partitions_of
# replaced

def partitions_rec(n: int, max_parts: int | None = None) -> Iterator[Partition]:
    """All partitions of n, in decreasing lexicographic order, by one
    recursion per part."""
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


# ---------------------------------------------------------------------------
# box enumerations by their own recursions, the routes that
# partitions.vectors_in_box replaced

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


def pieri_rows(lam: Sequence[int], b: int) -> tuple[Partition, ...]:
    """All mu >= lam with mu/lam a horizontal strip of b boxes, decreasing
    lex, choosing each row of mu in turn under the row above it in lam."""
    lam = normalize(lam)
    if b < 0:
        raise ValueError("strip size must be nonnegative")
    out: list[Partition] = []
    rows = len(lam) + 1

    def rec(i: int, remaining: int, built: list[int]) -> None:
        if i == rows:
            if remaining == 0:
                out.append(normalize(built))
            return
        lo = part(lam, i)
        hi = lo + remaining if i == 0 else min(lam[i - 1], lo + remaining)
        for v in range(hi, lo - 1, -1):
            built.append(v)
            rec(i + 1, remaining - (v - lo), built)
            built.pop()

    rec(0, b, [])
    return tuple(out)


def horizontal_strips_down(lam: Sequence[int], k: int) -> list[Partition]:
    """All nu <= lam with lam/nu a horizontal strip of k boxes: nu
    interlaces lam from below, lam_{i+1} <= nu_i <= lam_i, in decreasing
    lexicographic order.  constructions.first_strip_chain peels the first
    of them in closed form, without listing the others."""
    lam = normalize(lam)
    lo = lam[1:] + (0,) if lam else ()
    return [normalize(nu) for nu in vectors_in_box(lo, lam, sum(lam) - k)]


def strips_down_rows(lam: Sequence[int], k: int) -> Iterator[Partition]:
    """All nu <= lam with lam/nu a horizontal strip of k boxes, decreasing
    lex, choosing each row of nu in turn above the next row of lam."""
    lam = normalize(lam)
    if k < 0 or k > sum(lam):
        return

    def rec(i: int, remaining: int, built: list[int]):
        if i == len(lam):
            if remaining == 0:
                yield normalize(built)
            return
        lo = max(part(lam, i + 1), lam[i] - remaining)
        for v in range(lam[i], lo - 1, -1):
            built.append(v)
            yield from rec(i + 1, remaining - (lam[i] - v), built)
            built.pop()

    yield from rec(0, k, [])


# ---------------------------------------------------------------------------
# Koszul bases as (wedge tuple, symmetric factor) pairs

Element = tuple[tuple[Weight, ...], Weight]  # (wedge tuple, symmetric factor)


def elements_at_weight(k: int, e: int, d: int, n: int, target: Weight,
                       quotient: bool) -> list[Element]:
    """Basis of wedge^k S^d (x) S^e at one (possibly non-dominant) weight.

    A depth-first search over wedge tuples in monomial order, using only
    the monomials that fit under target and pruning every prefix whose sum
    exceeds target in some coordinate; the symmetric factor is what is left.
    With quotient, the basis is that of wedge^k W (x) Mbar over the
    Artinian quotient by x_1^d, ..., x_n^d: no wedge factor is a pure
    power, and every exponent of the symmetric factor is below d.
    """
    if k < 0 or e < 0 or min(target) < 0 or sum(target) != k * d + e:
        return []
    monos = [m for m in monomials(d, n) if all(map(le, m, target))
             and not (quotient and d in m)]
    out: list[Element] = []
    wedge: list[Weight] = []

    def extend(start: int, rest: Weight) -> None:
        if len(wedge) == k:
            if not quotient or max(rest, default=0) < d:
                out.append((tuple(wedge), rest))
            return
        for j in range(start, len(monos) - (k - len(wedge)) + 1):
            m = monos[j]
            if all(map(le, m, rest)):
                wedge.append(m)
                extend(j + 1, tuple(x - y for x, y in zip(rest, m)))
                wedge.pop()

    extend(0, tuple(target))
    return out


def element_differential(sources: list[Element],
                         targets: list[Element]) -> tuple[SparseVec, ...]:
    """Rows of the Koszul differential keyed by (wedge, g) elements, one
    per target; a term whose element is not a target is zero."""
    index = {el: i for i, el in enumerate(targets)}
    rows: list[SparseVec] = [{} for _ in targets]
    for j, (wedge, g) in enumerate(sources):
        for i, f in enumerate(wedge):
            rest = wedge[:i] + wedge[i + 1:]
            prod = tuple(x + y for x, y in zip(f, g))
            row = index.get((rest, prod))
            if row is not None:
                rows[row][j] = 1 if i % 2 == 0 else -1
    return tuple(rows)


def unreduced_cohomology(spec: KoszulSpec) -> dict[Weight, int]:
    """Middle cohomology at every dominant weight of the complex over the
    full polynomial ring, wedge^k S^d (x) S^e with no quotient, by the
    element route; weights with zero cohomology are left out."""
    out = {}
    for lam in partitions_of(spec.total_degree, max_parts=spec.n):
        w = lam + (0,) * (spec.n - len(lam))
        left, mid, right = (elements_at_weight(k, e, spec.d, spec.n, w, False)
                            for k, e in spec.term_parameters())
        block = KoszulBlock(w, (len(left), len(mid), len(right)),
                            element_differential(left, mid),
                            element_differential(mid, right))
        dim = block.cohomology_dim()
        if dim:
            out[w] = dim
    return out


# ---------------------------------------------------------------------------
# Koszul blocks from the whole product space

def term_elements_by_weight(k: int, e: int, d: int,
                            n: int) -> dict[Weight, list[Element]]:
    """Basis of wedge^k W (x) Mbar_e over the Artinian quotient bucketed by
    dominant weight, built by running over the whole product and dropping
    non-dominant weights; as in elements_at_weight with quotient, the pure
    powers and every symmetric factor with an exponent of d or more are
    left out."""
    out: dict[Weight, list[Element]] = {}
    if k < 0 or e < 0:
        return out
    monos = [m for m in monomials(d, n) if d not in m]
    if k > len(monos):
        return out
    symb = [g for g in monomials(e, n) if max(g) < d]
    for wedge in combinations(monos, k):
        base = (0,) * n
        for m in wedge:
            base = tuple(x + y for x, y in zip(base, m))
        for g in symb:
            w = tuple(x + y for x, y in zip(base, g))
            if is_dominant(w):
                out.setdefault(w, []).append((wedge, g))
    return out


def blocks_by_product(spec: KoszulSpec) -> list[KoszulBlock]:
    """Every dominant block of the complex with a nonzero middle term,
    decreasing lex, via the whole product space of each term over the
    quotient."""
    left, mid, right = (term_elements_by_weight(k, e, spec.d, spec.n)
                        for k, e in spec.term_parameters())
    out = []
    for w in sorted(mid, reverse=True):
        lw, mw, rw = left.get(w, []), mid[w], right.get(w, [])
        out.append(KoszulBlock(w, (len(lw), len(mw), len(rw)),
                               element_differential(lw, mw),
                               element_differential(mw, rw)))
    return out


# ---------------------------------------------------------------------------
# sparse matrices

# A matrix is its rows, as a Koszul block stores it; its column count comes
# from the block's dims.

def compose(outer: tuple[SparseVec, ...],
            inner: tuple[SparseVec, ...]) -> tuple[SparseVec, ...]:
    """outer @ inner (apply inner first); a column of outer is a row of
    inner, so one past its rows raises IndexError."""
    out = []
    for row in outer:
        acc: SparseVec = {}
        for mid, v in row.items():
            for c, w in inner[mid].items():
                nv = acc.get(c, 0) + v * w
                if nv:
                    acc[c] = nv
                else:
                    acc.pop(c, None)
        out.append(acc)
    return tuple(out)


def is_zero(rows: tuple[SparseVec, ...]) -> bool:
    return all(not r for r in rows)


def dense(rows: tuple[SparseVec, ...], ncols: int) -> list[list[int]]:
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def rank_dense(rows: list[list[int]]) -> int:
    """Bareiss fraction-free elimination; input is not modified.

    Entries stay minors of the input, so division by the previous pivot
    is exact.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    r = 0
    cols = list(range(nc))
    while r < nr:
        # smallest nonzero pivot in the remaining block limits growth
        best = None
        for i in range(r, nr):
            for cj in range(r, nc):
                v = m[i][cols[cj]]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, cj)
        if best is None:
            break
        _, pi, pj = best
        m[r], m[pi] = m[pi], m[r]
        cols[r], cols[pj] = cols[pj], cols[r]
        piv = m[r][cols[r]]
        for i in range(r + 1, nr):
            vi = m[i][cols[r]]
            row_i, row_r = m[i], m[r]
            for cj in range(r + 1, nc):
                c = cols[cj]
                row_i[c] = (piv * row_i[c] - vi * row_r[c]) // prev
            row_i[cols[r]] = 0
        prev = piv
        rank += 1
        r += 1
    return rank


# ---------------------------------------------------------------------------
# characters

def char_tensor_sym(p: int, d: int, n: int,
                    config: RunConfig = DEFAULT_CONFIG) -> WeightTable:
    """Character of the p-th tensor power of Sym^d(C^n), by a monomial DP
    over all weights restricted to the dominant ones at the end."""
    if p < 1 or d < 1 or n < 1:
        raise ValueError("p, d, n must be positive")
    monos = monomials(d, n)
    table: dict[Weight, int] = {(0,) * n: 1}
    for _ in range(p):
        new: dict[Weight, int] = {}
        for w, c in table.items():
            for m in monos:
                key = tuple(x + y for x, y in zip(w, m))
                new[key] = new.get(key, 0) + c
        config.check_table(len(new), "weight table entries")
        table = new
    return WeightTable(n, p * d,
                       {w: c for w, c in table.items() if is_dominant(w)})


def char_power_monomial(p: int, d: int, n: int, wedge: bool,
                        config: RunConfig = DEFAULT_CONFIG) -> WeightTable:
    """Character of Sym^p or wedge^p of Sym^d(C^n), d >= 0, by a monomial
    DP: level k holds the weights of k-element (multi)sets of degree-d
    monomials, so every weight is built and only the dominant ones are
    kept at the end."""
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
                key = tuple(x + y for x, y in zip(w, m))
                target[key] = target.get(key, 0) + c
        config.check_table(sum(len(t) for t in levels),
                           "weight table entries")
    return WeightTable(n, p * d, {w: c for w, c in levels[p].items() if is_dominant(w)})


def gl_dimension_weyl(lam: Sequence[int], n: int) -> int:
    """Dimension of the irreducible GL_n representation of highest weight
    lam by Weyl's product over the pairs i < j of rows, the route that the
    hook-content formula replaced."""
    lam = normalize(lam)
    if len(lam) > n:
        return 0
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= part(lam, i) - part(lam, j) + j - i
            den *= j - i
    return num // den


# products by p_k[h_d], the two routes that characters._power_product
# replaced: the Pieri rule for k = 1 and the alternant rule for k >= 2

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
            mu = tuple(a - b for a, b in zip(sorted(alpha, reverse=True),
                                             delta))
            mu = mu[:n - mu.count(0)]  # a partition, so its zeros trail
            out[mu] = out.get(mu, 0) + (-c if inversions % 2 else c)
        config.check_table(held + len(out), "Schur terms")
    return {mu: c for mu, c in out.items() if c}


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


def _power_sum_products(types: list[tuple[Partition, int]],
                        shifts: list[Weight], d: int, n: int,
                        config: RunConfig) -> dict[Partition, int]:
    """sum of coef * p_nu[h_d] over (nu, coef) in types, in the Schur basis
    of GL_n, as a dict of nonzero coefficients; shifts are the degree-d
    exponent vectors of length n, for the parts k >= 2.

    p_nu[h_d] is the product of its factors p_k[h_d], taken with the parts
    of nu in ascending order: k = 1 is h_d (_pieri_product) and k >= 2 is
    _alternant_product.  Terms longer than n are dropped after each factor.
    The types run in the order of their negated ascending parts, a prefix
    before its extensions, and path keeps the product of every prefix of
    the current type, so each product is shared by the types that extend
    its prefix."""
    signed: dict[Partition, int] = {}
    path = [{(): 1}]
    last: Partition = ()
    for nu, coef in sorted(((nu[::-1], coef) for nu, coef in types),
                           key=lambda t: tuple(-k for k in t[0])):
        shared = sum(takewhile(bool, map(eq, nu, last)))  # common prefix
        del path[shared + 1:]
        for k in nu[shared:]:
            held = len(signed) + sum(map(len, path))
            if k == 1:
                path.append(_pieri_product(path[-1], d, n, config, held))
            else:
                path.append(_alternant_product(path[-1], k, shifts, n, config,
                                               held))
        for lam, c in path[-1].items():
            signed[lam] = signed.get(lam, 0) + coef * c
        last = nu
    return {lam: c for lam, c in signed.items() if c}


def plethysm_cycle_index(p: int, d: int, n: int, wedge: bool,
                         config: RunConfig = DEFAULT_CONFIG) -> SchurExpansion:
    """Schur terms of h_p[h_d] or e_p[h_d] by the cycle-index expansion
    over S_p (Macdonald I.8), the walk that Newton's identity replaced:

        m(lam) = sum over nu |- p of eps_nu (p!/z_nu) <p_nu[h_d], s_lam> / p!,

    with the division by p! checked to be exact."""
    shifts = vectors_in_box((0,) * n, (d,) * n, d) if p > 1 else []
    terms: dict[Partition, int] = {}
    for lam, c in _power_sum_products(_cycle_types(p, wedge), shifts, d, n,
                                      config).items():
        mult, rest = divmod(c, factorial(p))
        if rest or mult < 0:
            raise NotACharacter(f"cycle-index sum {c} at {lam} is not a "
                                f"nonnegative multiple of {p}!")
        terms[lam] = mult
    return SchurExpansion(n, p * d, terms)


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
        config.check_table(held + len(grown), "weight table entries")
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
                config.check_table(size + len(moves),
                                   "weight table entries")
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
                config.check_table(size, "weight table entries")
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
        config.check_table(len(out), "weight table entries")


def char_plethysm_columns(p: int, d: int, n: int, wedge: bool,
                          config: RunConfig = DEFAULT_CONFIG) -> WeightTable:
    """Character of Sym^p or wedge^p of Sym^d(C^n), d >= 0, on dominant
    weights, by the cycle-index expansion (Macdonald I.8)

        m(mu) = sum over nu |- p of eps_nu (p!/z_nu) T_nu(mu) / p!,

    where T_nu(mu) counts the tuples of degree-d exponent vectors a_i with
    sum_i nu_i a_i = mu, each counted by the column DP above at dominant
    mu only; the division by p! is checked to be exact."""
    if p < 1 or d < 0 or n < 1:
        raise ValueError("need p, n >= 1 and d >= 0")
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


def char_sym_sym(p: int, d: int, n: int,
                 config: RunConfig = DEFAULT_CONFIG) -> WeightTable:
    """Weight table of Sym^p Sym^d(C^n) by the column DP."""
    return char_plethysm_columns(p, d, n, False, config)


def char_wedge_sym(p: int, d: int, n: int,
                   config: RunConfig = DEFAULT_CONFIG) -> WeightTable:
    """Weight table of wedge^p Sym^d(C^n) by the column DP."""
    return char_plethysm_columns(p, d, n, True, config)


def oracle_decompose(w: WeightTable) -> SchurExpansion:
    """Decompose a character by repeated Kostka-column subtraction.

    Takes the lexicographically greatest dominant weight with nonzero
    remaining count, records it, and subtracts that multiple of the
    corresponding Kostka column; the Kostka matrix is unitriangular with
    respect to dominance, so this ends with the unique expansion.
    """
    remaining = dict(w.entries)
    candidates = [mu + (0,) * (w.n - len(mu))
                  for mu in partitions_of(w.degree, max_parts=w.n)]
    terms: dict[Partition, int] = {}
    while remaining:
        top = max(remaining)
        mult = remaining[top]
        if mult < 0:
            raise NotACharacter(f"negative remainder {mult} at weight {top}")
        lam = normalize(top)
        terms[lam] = mult
        for mu in candidates:
            if mu > top:
                continue
            mu_part = normalize(mu)
            if not dominates(lam, mu_part):
                continue
            k = kostka(lam, mu_part)
            if k == 0:
                continue
            r = remaining.get(mu, 0) - mult * k
            if r < 0:
                raise NotACharacter(f"negative remainder {r} at weight {mu}")
            if r == 0:
                remaining.pop(mu, None)
            else:
                remaining[mu] = r
    out = SchurExpansion(w.n, w.degree, terms)
    if out.dimension() != w.dimension():
        raise NotACharacter("dimension mismatch after decomposition")
    return out


def schur_character(lam: Sequence[int], n: int) -> WeightTable:
    """Weight table of the single Schur functor S_lam on C^n, by Kostka
    numbers."""
    lam = normalize(lam)
    if len(lam) > n:
        raise ValueError(f"{lam} does not fit in {n} rows")
    entries: dict[Weight, int] = {}
    for mu in partitions_of(sum(lam), max_parts=n):
        if dominates(lam, mu):
            k = kostka(lam, mu)
            if k:
                entries[mu + (0,) * (n - len(mu))] = k
    return WeightTable(n, sum(lam), entries)


def sub(table: WeightTable, other: WeightTable) -> WeightTable:
    """table - other; every multiplicity must stay nonnegative."""
    if (table.n, table.degree) != (other.n, other.degree):
        raise ValueError("incompatible tables")
    out = dict(table.entries)
    for w, c in other.entries.items():
        r = out.get(w, 0) - c
        if r < 0:
            raise ValueError(f"negative multiplicity at {w}")
        if r == 0:
            out.pop(w, None)
        else:
            out[w] = r
    return WeightTable(table.n, table.degree, out)


# ---------------------------------------------------------------------------
# semistandard tableaux and their row-content encoding

def strip_chains(lam: Sequence[int],
                 mu: Sequence[int]) -> Iterator[tuple[Partition, ...]]:
    """Chains () < nu_1 < ... < nu_k = lam in which nu_i / nu_{i-1} is a
    horizontal strip of mu[i-1] boxes, returned without the leading ():
    all of them, where constructions.first_strip_chain takes the first.

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


def kostka(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Number of semistandard tableaux of shape lam and weight mu, counted
    as their strip chains; the program takes K_{lam,(d^p)} from the Pieri
    decomposition of (Sym^d)^{(x)p} instead.

    mu may be any composition of size(lam), zeros included.
    """
    lam = normalize(lam)
    mu = tuple(mu)
    if any(v < 0 for v in mu):
        raise ValueError("weight entries must be nonnegative")
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != sum{mu}")
    return sum(1 for _ in strip_chains(lam, mu))


@dataclass(frozen=True)
class Tableau:
    """Semistandard tableau: rows weakly increase, columns strictly increase."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        shape = tuple(len(r) for r in self.rows)
        if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
            raise ValueError(f"row lengths not weakly decreasing: {shape}")
        for i, row in enumerate(self.rows):
            if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
                raise ValueError(f"row {i} not weakly increasing: {row}")
            if any(v < 1 for v in row):
                raise ValueError("labels must be positive")
            if i > 0:
                above = self.rows[i - 1]
                if any(above[j] >= row[j] for j in range(len(row))):
                    raise ValueError(f"column not strictly increasing at row {i}")

    @property
    def shape(self) -> Partition:
        return normalize(tuple(len(r) for r in self.rows))

    def weight(self, labels: int | None = None) -> tuple[int, ...]:
        top = labels or max((v for r in self.rows for v in r), default=0)
        counts = [0] * top
        for row in self.rows:
            for v in row:
                counts[v - 1] += 1
        return tuple(counts)


def enumerate_ssyt(lam: Sequence[int], mu: Sequence[int]) -> Iterator[Tableau]:
    """All SSYT of shape lam and weight mu, each exactly once, in
    strip_chains order."""
    lam = normalize(lam)
    for chain in strip_chains(lam, mu):
        full = ((),) + chain
        nrows = len(lam)
        rows: list[list[int]] = [[] for _ in range(nrows)]
        for label in range(1, len(full)):
            prev, cur = full[label - 1], full[label]
            for i in range(nrows):
                rows[i].extend([label] * (part(cur, i) - part(prev, i)))
        yield Tableau(tuple(tuple(r) for r in rows if r))


class RowContentMatrix(Record):
    """A tableau of weight (d, ..., d) with p rows as the p x p
    upper-triangular matrix t where t[i][j] counts the labels j+1 in row
    i+1, with both tableau conditions enforced at construction.  The
    diagonal is forced by the weight; the off-diagonal entries are the
    content cone's coordinates."""

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


def tableau_to_matrix(tab: Tableau, p: int, d: int) -> RowContentMatrix:
    """Row-content encoding of a weight-(d^p) tableau with at most p rows."""
    if len(tab.rows) > p:
        raise ValueError(f"tableau has more than {p} rows")
    if tab.weight(p) != (d,) * p:
        raise ValueError(f"tableau weight is not ({d}^{p})")
    t = [[0] * p for _ in range(p)]
    for i, row in enumerate(tab.rows):
        for v in row:
            t[i][v - 1] += 1
    return RowContentMatrix(p, d, tuple(tuple(row) for row in t))


def matrix_to_tableau(m: RowContentMatrix) -> Tableau:
    """Inverse of tableau_to_matrix; validity is rechecked by Tableau."""
    rows = []
    for i in range(m.p):
        row: list[int] = []
        for j in range(i, m.p):
            row.extend([j + 1] * m.t[i][j])
        if row:
            rows.append(tuple(row))
    return Tableau(tuple(rows))


# ---------------------------------------------------------------------------
# cone slices by exact linear programming and by listing their points

class Unbounded(Exception):
    """The linear program has unbounded objective."""


def simplex_max(objective: Sequence[Fraction],
                lhs: Sequence[Sequence[Fraction]],
                rhs: Sequence[Fraction]) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Maximize objective . x subject to lhs x <= rhs, x >= 0, rhs >= 0,
    by Fraction simplex with Bland's rule (so it terminates).

    The slack basis is feasible because rhs >= 0.  Returns (optimum,
    maximizer); raises Unbounded.
    """
    m, n = len(lhs), len(objective)
    if any(r < 0 for r in rhs):
        raise ValueError("needs rhs >= 0")
    # tableau rows: constraints with slack identity, last row = -objective
    tab = [[Fraction(v) for v in row] +
           [Fraction(int(i == j)) for j in range(m)] +
           [Fraction(rhs[i])] for i, row in enumerate(lhs)]
    tab.append([-Fraction(v) for v in objective] + [Fraction(0)] * (m + 1))
    basis = list(range(n, n + m))
    total = n + m
    while True:
        enter = next((j for j in range(total) if tab[m][j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise Unbounded()
        _, leave = best
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m + 1):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        basis[leave] = enter
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][total]
    return tab[m][total], tuple(x)


def enumerate_slice(cone: ConeCrossSection,
                    level: int) -> Iterator[tuple[int, ...]]:
    """All integer points on the level-d slice, by interval propagation:
    the listing that cones.lattice_count and cones.moment_fibres count
    without building a point."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    dim = len(cone.upper_bounds)
    if dim == 0:
        yield ()
        return
    ineqs = cone.inequalities
    caps = [int(floor(u * level)) for u in cone.upper_bounds]
    # suffix[f][k]: max possible contribution of coordinates >= k to f
    suffix = []
    for coeffs, _ in ineqs:
        row = [0] * (dim + 1)
        for k in range(dim - 1, -1, -1):
            row[k] = row[k + 1] + (coeffs[k] * caps[k] if coeffs[k] > 0 else 0)
        suffix.append(row)
    point = [0] * dim

    def rec(k: int, partials: list[int]) -> Iterator[tuple[int, ...]]:
        if k == dim:
            yield tuple(point)
            return
        lo, hi = 0, caps[k]
        for f, (coeffs, _) in enumerate(ineqs):
            a = coeffs[k]
            slack = partials[f] + suffix[f][k + 1]
            if a < 0:
                hi = min(hi, slack // (-a))
            elif a > 0:
                need = -slack
                if need > 0:
                    lo = max(lo, (need + a - 1) // a)
            elif slack < 0:
                return
        for v in range(lo, hi + 1):
            point[k] = v
            new = [partials[f] + ineqs[f][0][k] * v for f in range(len(ineqs))]
            yield from rec(k + 1, new)
        point[k] = 0

    yield from rec(0, [const * level for _, const in ineqs])


def row_major_count(p: int, d: int,
                    config: RunConfig = DEFAULT_CONFIG) -> int:
    """The level-d content count by the DP of cones._count_points with the
    coordinates in row-major order, the order that column order replaced."""
    rows, caps = _at_level(content_cone_section(p), d)
    index = {pair: k for k, pair in enumerate(offdiag_pairs(p))}
    perm = [index[pair] for pair in sorted(index)]
    rows = [(tuple(coeffs[k] for k in perm), const) for coeffs, const in rows]
    return sum(_count_points(rows, [caps[k] for k in perm], config).values())


def moment_fibre_count(p: int, d: int, shape: Sequence[int],
                       config: RunConfig = DEFAULT_CONFIG) -> int:
    """K_{shape,(d^p)} for a partition shape of p*d with at most p parts,
    by the per-shape DP that cones.moment_fibres replaced: the content rows
    at level d plus, for each row i >= 2, its sum held at shape_i as two
    opposite rows."""
    rows, caps = _at_level(content_cone_section(p), d)
    for i in range(1, p):
        coeffs, const = _content_form(p, [(1, i, j) for j in range(i, p)])
        gap = const * d - part(shape, i)
        rows += [(coeffs, gap), (tuple(-c for c in coeffs), -gap)]
    return sum(_count_points(rows, caps, config).values())


def content_points_as_matrices(p: int, d: int) -> Iterator[RowContentMatrix]:
    """The level-d content points as row-content matrices, each validated
    as a tableau by RowContentMatrix."""
    for point in enumerate_slice(content_cone_section(p), d):
        yield RowContentMatrix.from_offdiag(p, d, point)


def moment_map(m: RowContentMatrix) -> tuple[int, ...]:
    """Project a row-content matrix to (lam_2, ..., lam_p, d)."""
    shape = [sum(m.t[i][i:]) for i in range(m.p)]
    return tuple(shape[1:]) + (m.d,)


def slice_maxima(cone: ConeCrossSection) -> tuple[Fraction, ...]:
    """Per-coordinate maxima of a level-1 cone slice, one LP each; every
    slice coordinate is nonnegative, so the LP's x >= 0 adds nothing."""
    lhs = [[-c for c in coeffs] for coeffs, _ in cone.inequalities]
    rhs = [const for _, const in cone.inequalities]
    dim = len(cone.upper_bounds)
    return tuple(simplex_max([int(i == j) for i in range(dim)], lhs, rhs)[0]
                 for j in range(dim))


# ---------------------------------------------------------------------------
# staircase membership and twin patterns

def strip_chain(lam: Partition, sizes: Sequence[int]) -> tuple[Partition, ...] | None:
    """A chain () -> lam adding horizontal strips of the given sizes, or
    None; prunes with the dominance criterion so the search is guided."""
    if sum(sizes) != sum(lam):
        return None

    def feasible(shape: Partition, k: int) -> bool:
        rest = sorted(sizes[:k], reverse=True)
        if sum(rest) != sum(shape):
            return False
        return dominates(shape, tuple(rest))

    def descend(shape: Partition, k: int) -> list[Partition] | None:
        if k == 0:
            return [] if not shape else None
        for nu in horizontal_strips_down(shape, sizes[k - 1]):
            if feasible(nu, k - 1):
                tail = descend(nu, k - 1)
                if tail is not None:
                    return tail + [shape]
        return None

    chain = descend(lam, len(sizes))
    return None if chain is None else tuple(chain)


def has_twin_pattern(lam: Sequence[int], n: int) -> bool:
    """Pairs of equal parts, with a final triple when n - 1 is odd."""
    lam = normalize(lam)
    if len(lam) != n - 1:
        return False
    for i in range(0, (n - 1) // 2):
        if lam[2 * i] != lam[2 * i + 1]:
            return False
    if (n - 1) % 2 == 1 and lam[n - 2] != lam[n - 3]:
        return False
    return True


def twin_expand(lam1: int, frees: Sequence[int], n: int) -> Partition:
    """Twin-pattern partition of length n-1 from its free values."""
    vals = [lam1] + list(frees)
    out = []
    for v in vals:
        out.extend([v, v])
    if (n - 1) % 2 == 1:
        out.append(vals[-1])
    return normalize(tuple(out[:n - 1]))


# ---------------------------------------------------------------------------
# the command line by argparse, the route that the table of veroschur.cli
# (COMMANDS, read by parse_args) replaced; argparse_parser is the old
# build_parser unchanged

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help="output format (default: pretty)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of the draws; only verify staircase draws "
                             "anything, and seed 0 (the default) draws with "
                             "20240, while the JSON reports 0")
    parser.add_argument("--max-entries", type=int, default=None,
                        help="cap on Schur terms, Koszul basis elements, "
                             "lattice layer states and cones levels")
    parser.add_argument("--max-dim", type=int, default=None,
                        help="cap on matrix dimension")
    parser.add_argument("--max-nodes", type=int, default=None,
                        help="cap on enumeration nodes (for cones: lattice "
                             "count DP states expanded, not points)")
    parser.add_argument("--config", default=None,
                        help="key=value config file overriding defaults")
    parser.add_argument("--out", default=None, help="write output to a file")


def argparse_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veroschur",
        description="Exact Schur decompositions of plethysms and Veronese "
                    "syzygies, cone lattice counts, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="decompose a plethysm character")
    p_dec.add_argument("kind", choices=("tensor", "sym", "wedge"))
    p_dec.add_argument("-p", type=int, required=True, help="outer power")
    p_dec.add_argument("-d", type=int, required=True, help="inner degree")
    p_dec.add_argument("-n", type=int, default=None,
                       help="number of variables (default: faithful)")
    p_dec.add_argument("--tensor-sym", type=int, default=0, metavar="B",
                       help="tensor the result with Sym^B via horizontal strips")
    _add_common(p_dec)
    p_dec.set_defaults(fn=cmd_decompose)

    p_syz = sub.add_parser("syzygy", help="decompose a syzygy functor")
    p_syz.add_argument("-p", type=int, required=True)
    p_syz.add_argument("-q", type=int, required=True)
    p_syz.add_argument("-b", type=int, default=0)
    p_syz.add_argument("-d", type=int, required=True)
    p_syz.add_argument("-n", type=int, default=None,
                       help="number of variables (default: p+q+1)")
    _add_common(p_syz)
    p_syz.set_defaults(fn=cmd_syzygy)

    p_con = sub.add_parser("cones", help="lattice counts with cross-checks")
    p_con.add_argument("-p", type=int, required=True)
    p_con.add_argument("--d-min", type=int, required=True)
    p_con.add_argument("--d-max", type=int, required=True)
    p_con.add_argument("--d-step", type=int, default=1)
    _add_common(p_con)
    p_con.set_defaults(fn=cmd_cones)

    p_ver = sub.add_parser("verify", help="run a named check suite")
    # sorted(verify.SUITES), written out so that building the parser does
    # not import every layer; a test keeps the two equal
    p_ver.add_argument("suite", choices=("doubling", "green", "kostka-cone",
                                         "newell", "patterns", "raicu",
                                         "ratios", "staircase"))
    p_ver.add_argument("--theorem", default=None,
                       help="ratios suite: run a single named experiment")
    p_ver.add_argument("-p", type=int, default=None,
                       help="ratios suite: outer power for --theorem")
    p_ver.add_argument("-b", type=int, default=None,
                       help="ratios suite: twist degree for --theorem")
    p_ver.add_argument("--mu", default=None, metavar="PARTS",
                       help="ratios suite: partition for --theorem "
                            "schur-share, comma-separated (e.g. 2,1)")
    p_ver.add_argument("--d-max", type=int, default=None,
                       help="ratios suite: level d at which --theorem is "
                            "checked (default 20)")
    _add_common(p_ver)
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def argparse_args(argv: list[str]) -> argparse.Namespace:
    """argv by argparse_parser, then the bounds that cli checked after
    parsing before its table carried them: -n >= 1 (decompose, syzygy),
    --d-min >= 0 and --d-step >= 1 (cones).  A rejection raises ValueError;
    argparse's own message is swallowed."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            args = argparse_parser().parse_args(argv)
        except SystemExit as exc:
            raise ValueError(f"argparse exited {exc.code}") from None
    for name, least in (("n", 1), ("d_min", 0), ("d_step", 1)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ValueError(f"{name} below {least}")
    return args
