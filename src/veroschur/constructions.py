"""Explicit subfunctor constructions and pattern censuses.

Covers the duality between symmetric and exterior plethysms, positivity of
doubled partitions in even plethysms, the staircase-exponent membership
construction behind the twisted linear strand (its result holds the
exponents of the split and the first horizontal-strip chain, peeled in
closed form, bottom row first), and the twin and almost-triplet pattern
censuses used for counting distinct Schur types.  The almost-triplet
census picks its construction from its inputs: single-wedge where that
applies, blocked otherwise; its report holds two counts, members and
distinct molds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement
from math import ceil, comb, floor
from typing import NamedTuple, Sequence

from veroschur.characters import sym_power_sym, wedge_power_sym
from veroschur.config import DEFAULT_CONFIG, RunConfig
from veroschur.partitions import (Partition, add, conjugate, dominates,
                                  length, normalize, part, partitions_of)


# ---------------------------------------------------------------------------
# plethysm identities

def newell_check(p: int, d: int,
                 config: RunConfig = DEFAULT_CONFIG) -> tuple[str, ...]:
    """The failures of the two shift identities between symmetric and
    exterior plethysms: multiplicities of lam in Sym^p Sym^d match those of
    lam + (1^p) in wedge^p Sym^{d+1}, and vice versa.  The plethysms are
    taken over C^p: each Sym^e factor adds one Pieri strip, so none of
    their terms has more than p rows, and a larger n gives the same ones."""
    column = (1,) * p
    failures = []
    pairs = [
        ("wedge(d+1) vs sym(d)",
         wedge_power_sym(p, d + 1, p, config), sym_power_sym(p, d, p, config)),
        ("sym(d+1) vs wedge(d)",
         sym_power_sym(p, d + 1, p, config), wedge_power_sym(p, d, p, config)),
    ]
    for name, shifted_side, base_side in pairs:
        lams = set(base_side.terms)
        lams.update(normalize(tuple(v - 1 for v in mu))
                    for mu in shifted_side.terms
                    if len(mu) == p and mu[-1] >= 1)
        for lam in sorted(lams, reverse=True):
            lhs = shifted_side.multiplicity(add(lam, column))
            rhs = base_side.multiplicity(lam)
            if lhs != rhs:
                failures.append(f"{name} at {lam}: {lhs} != {rhs}")
    return tuple(failures)


def doubled_plethysm_check(p: int, d: int,
                           config: RunConfig = DEFAULT_CONFIG) -> tuple[str, ...]:
    """Failures of: every doubled partition 2*lam with lam |- p*d of length
    <= p occurs in Sym^p Sym^{2d}, with the two exterior-power consequences.
    The plethysms are taken over C^p, as in newell_check."""
    column = (1,) * p
    row = (p,)
    sym_2d = sym_power_sym(p, 2 * d, p, config)
    sym_2d1 = sym_power_sym(p, 2 * d + 1, p, config)
    wedge_2d1 = wedge_power_sym(p, 2 * d + 1, p, config)
    wedge_2d2 = wedge_power_sym(p, 2 * d + 2, p, config)
    failures = []
    for lam in partitions_of(p * d, max_parts=p):
        dbl = tuple(2 * v for v in lam)
        m = sym_2d.multiplicity(dbl)
        if m <= 0:
            failures.append(f"2*{lam} missing from Sym^{p}Sym^{2*d}")
            continue
        padded = dbl + (0,) * (p - len(dbl))
        if wedge_2d1.multiplicity(add(padded, column)) != m:
            failures.append(f"first wedge identity fails at 2*{lam}")
        m1 = sym_2d1.multiplicity(add(dbl, row))
        if m1 <= 0:
            failures.append(f"2*{lam}+({p}) missing from Sym^{p}Sym^{2*d+1}")
        if wedge_2d2.multiplicity(add(add(padded, column), row)) != m1:
            failures.append(f"second wedge identity fails at 2*{lam}")
    return tuple(failures)


# ---------------------------------------------------------------------------
# visible boxes and the staircase membership construction

def remove_visible_boxes(lam: Sequence[int], k: int) -> Partition:
    """Remove the bottom box of each of the rightmost k columns."""
    lam = normalize(lam)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if part(lam, 0) < k:
        raise ValueError(f"partition has only {part(lam, 0)} columns, need {k}")
    cols = list(conjugate(lam))
    for j in range(len(cols) - k, len(cols)):
        cols[j] -= 1
    return conjugate(normalize(tuple(cols)))


def staircase_exponents(lam: Sequence[int], b: int, p: int) -> tuple[int, ...]:
    """Greedy staircase split e_i = ceil(L_i/(p+1-i) + (p-i)/2) of
    L_0 = |lam| - (b+1), where L_{i+1} = L_i - e_i.

    Yields p + 1 exponents e_0 > e_1 > ... > e_p >= 0 with sum L_0
    whenever L_0 >= p(p+1)/2.  The staircase suite of verify checks these
    invariants against lam, b and p, not against the levels of the split.
    """
    lam = normalize(lam)
    if b < 0 or p < 0:
        raise ValueError("b, p must be nonnegative")
    level = sum(lam) - (b + 1)
    if level < p * (p + 1) // 2:
        raise ValueError(f"L0 = {level} below staircase minimum {p*(p+1)//2}")
    exponents = []
    for i in range(p + 1):
        r = p + 1 - i
        e = -((-2 * level - r * (r - 1)) // (2 * r))  # ceil(level/r + (r-1)/2)
        exponents.append(e)
        level -= e
    return tuple(exponents)


def first_strip_chain(lam: Sequence[int],
                      sizes: Sequence[int]) -> tuple[Partition, ...] | None:
    """The first chain () < nu_1 < ... < nu_k = lam, returned without the
    leading (), in which nu_i / nu_{i-1} is a horizontal strip of
    sizes[i-1] boxes; None when there is none (the Kostka number is 0).

    Each step, last size first, peels its k boxes from the bottom row up,
    row i giving at most shape_i - shape_{i+1}: rows i and below lose
    min(k, shape_i) in all, so row i keeps max(shape_i - k, 0) +
    min(k, shape_{i+1}).  No strip of k boxes removes fewer from any top
    block of rows, so this shape is the first strip down in decreasing lex
    order and dominates every other; by Kostka positivity (Macdonald
    I.6-I.7) it completes the chain whenever any strip does, and the peel
    fails, with k > shape_0, exactly when K_{lam,sizes} = 0.  sizes may
    contain zeros; a negative size or a total other than |lam| raises
    ValueError.
    """
    shape = normalize(lam)
    sizes = tuple(sizes)
    if min(sizes, default=0) < 0 or sum(sizes) != sum(shape):
        raise ValueError(f"strip sizes {sizes} must be nonnegative and "
                         f"add up to |{shape}|")
    chain = []
    for k in reversed(sizes):
        chain.append(shape)
        if k > part(shape, 0):
            return None
        shape = normalize([max(v - k, 0) + min(k, part(shape, i + 1))
                           for i, v in enumerate(shape)])
    return tuple(reversed(chain))


class MembershipResult(NamedTuple):
    verdict: str  # constructed | conditions-fail | pieri-fail
    exponents: tuple[int, ...]
    chain: tuple[Partition, ...]


def staircase_membership(lam: Sequence[int], b: int, p: int, d: int,
                         n: int) -> MembershipResult:
    """Decide whether lam is reachable as a Schur type of the product of
    Sym^{b+1} with the staircase factors Sym^{e_0}, ..., Sym^{e_p}.

    Preconditions: length(lam) = n - 1 <= p + 2 and the last part exceeds
    b + 1.  Checks the partial-sum conditions on the partition with its
    last b+1 visible boxes removed and e_0 <= d - 1, then independently
    certifies membership by an explicit horizontal-strip chain.
    """
    lam = normalize(lam)
    if length(lam) != n - 1 or n - 1 > p + 2:
        raise ValueError(f"need length(lam) = n-1 <= p+2, got {lam} with n={n}")
    if part(lam, n - 2) <= b + 1:
        raise ValueError(f"need last part > {b + 1}")
    es = staircase_exponents(lam, b, p)
    trimmed = remove_visible_boxes(lam, b + 1)
    if es[0] > d - 1 or any(sum(trimmed[:j]) < sum(es[:j])
                            for j in range(1, n - 1)):
        return MembershipResult("conditions-fail", es, ())
    chain = first_strip_chain(lam, [e for e in (b + 1,) + es if e > 0])
    if chain is None:
        return MembershipResult("pieri-fail", es, ())
    return MembershipResult("constructed", es, chain)


def sample_staircase_inputs(count: int, seed: int) -> list[tuple[Partition, int, int, int, int]]:
    """Seeded (lam, b, p, d, n) samples meeting the membership
    preconditions with margin L0 >= p(p+1)/2 + p."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.randint(1, 3)
        b = rng.randint(0, 2)
        m = rng.randint(1, p + 2)  # length of lam = n - 1
        tail = sorted((rng.randint(0, 8) for _ in range(m - 1)), reverse=True)
        head = (tail[0] if tail else 0) + rng.randint(0, 20)
        lam = [b + 2 + head] + [b + 2 + v for v in tail]
        margin = p * (p + 1) // 2 + p
        deficit = margin + (b + 1) - sum(lam)
        if deficit > 0:
            lam[0] += deficit
        lam_t = normalize(tuple(lam))
        d = staircase_exponents(lam_t, b, p)[0] + 1 + rng.randint(0, 3)
        out.append((lam_t, b, p, d, m + 1))
    return out


# ---------------------------------------------------------------------------
# restriction bounds

def h0_projective(n: int, e: int) -> int:
    """Dimension of the degree-e forms in n variables."""
    if n < 1 or e < 0:
        raise ValueError("need n >= 1, e >= 0")
    return comb(n - 1 + e, n - 1)


def max_n_green(p: int, b: int, q: int, d: int) -> int:
    """Largest n >= 2 with p + 1 >= h0 of degree b+1+(q-1)d on P^{n-1}.

    For q = 1 the degree is b + 1 and h0 = C(n+b, b+1) >= n^(b+1)/(b+1)!,
    so the result satisfies n^(b+1) <= (p+1)*(b+1)!.
    """
    e = b + 1 + (q - 1) * d
    if e < 1:
        # degree 0 has h0 = 1 for every n, so no n is largest
        raise ValueError(f"twist degree must be at least 1, got {e}")
    n = None
    k = 2
    while p + 1 >= h0_projective(k, e):
        n = k
        k += 1
    if n is None:
        raise ValueError(f"no n >= 2 satisfies p+1 >= h0(P^(n-1), O({e}))")
    return n


# ---------------------------------------------------------------------------
# pattern censuses

class PatternReport(NamedTuple):
    partitions: int
    molds: int


def _twin_bounds(p: int, b: int, d: int, n: int):
    B = max(Fraction(b + 2), Fraction(p * (p + 1) // 2 + b + 1, n - 1))
    lam1_lo = int(ceil(B))
    lam1_hi = int(floor((p * d - (n - 3) * B) / 2))

    def upper(lam1: int) -> int:
        terms = [Fraction(lam1), Fraction(p * d - 2 * lam1, n - 3)]
        terms.append(Fraction(2 * (p - n + 1), (n - 2) * (n - 3)) * lam1
                     - Fraction((p + 1) * (p + 2), 2 * (n - 3)))
        return int(floor(min(terms)))

    return lam1_lo, lam1_hi, upper


def twin_pattern_count_closed(p: int, b: int, d: int) -> int:
    """Count the twin-pattern partitions used to certify many distinct
    Schur types in the twisted linear strand, in closed form over the free
    values.  There is none for n in {3, 4}, where twin_pattern_enumerate
    lists the restriction types directly."""
    n = max_n_green(p, b, 1, d)
    if n == 2:
        return (p + 1) * (d - 1 - p) + 1 if d >= p + 1 else 0
    if n in (3, 4):
        raise ValueError("no closed form for n in {3, 4}; use enumeration")
    lo, hi, upper = _twin_bounds(p, b, d, n)
    k = (n - 3) // 2  # free values below lam1
    total = 0
    for lam1 in range(lo, hi + 1):
        top = min(upper(lam1), lam1)
        width = top - lo + 1
        if width > 0:
            total += comb(width - 1 + k, k)
    return total


def twin_pattern_enumerate(p: int, b: int, d: int) -> int:
    """Direct enumeration of the twin census set, independent of the
    closed form: for n <= 4 the restriction types, for n >= 5 a listing of
    lam_1 from ceil(B) to pd/2 with (n - 3) // 2 weakly decreasing free
    parts from ceil(B) to lam_1, each part tested against the pattern
    conditions.  B is restated here and no range is taken from
    _twin_bounds, so a wrong bound there shows as a count that differs."""
    n = max_n_green(p, b, 1, d)
    if n <= 4:
        return len(_restriction_types(p, b, d, n))
    lo = ceil(max(Fraction(b + 2), Fraction(p * (p + 1) // 2 + b + 1, n - 1)))
    count = 0
    for lam1 in range(lo, p * d // 2 + 1):
        cap = (Fraction(2 * (p - n + 1) * lam1, (n - 2) * (n - 3))
               - Fraction((p + 1) * (p + 2), 2 * (n - 3)))
        for free in combinations_with_replacement(range(lo, lam1 + 1),
                                                  (n - 3) // 2):
            count += all(2 * lam1 + (n - 3) * f <= p * d and f <= cap
                         for f in free)
    return count


def _restriction_types(p: int, b: int, d: int, n: int) -> set[Partition]:
    """Distinct Schur types of length <= n-1 in the direct sum of
    Sym^{e_0} (x) ... (x) Sym^{e_p} (x) Sym^{b+1} over strictly decreasing
    exponent tuples in [0, d-1].  A lam with at most n-1 parts dominates a
    weight of its size exactly when its first n-2 prefix sums do, so
    dominance is tested once per (size, those prefix sums)."""
    weights = {}
    for es in combinations(range(d), p + 1):
        weight = sorted(es + (b + 1,), reverse=True)
        weights.setdefault((sum(weight), *accumulate(weight[:n - 2])), weight)
    return {lam for weight in weights.values()
            for lam in partitions_of(sum(weight), max_parts=n - 1)
            if dominates(lam, weight)}


def mold(lam: Sequence[int]) -> Partition:
    """Mold of an almost-triplet partition: subtract a full column, check
    the (pair, triples) grouping, then overwrite the first part with the
    second."""
    lam = normalize(lam)
    bar = normalize(tuple(v - 1 for v in lam))
    if len(bar) % 3 != 0:
        raise ValueError(f"reduced length {len(bar)} not divisible by 3")
    if bar:
        if bar[1] != bar[2]:
            raise ValueError("second and third reduced parts differ")
        for g in range(1, len(bar) // 3):
            i = 3 * g
            if not bar[i] == bar[i + 1] == bar[i + 2]:
                raise ValueError(f"triple group at {i} not constant")
    return normalize((bar[1],) + bar[1:]) if bar else ()


def _triple_expand(mu: Partition, copies: int) -> tuple[int, ...]:
    out = []
    for v in mu + (0,) * (copies - len(mu)):
        out.extend([v, v, v])
    return tuple(out)


def _single_wedge(p: int, b: int, n: int, d: int):
    """Size s and offsets of the single-wedge construction, or None unless
    d >= p + 2 and 6 | (n-1)(d-r-1-eps)."""
    r = next(r for r in (1, 2, 3) if (d - r) % 3 == 1)
    eps = (d - r - 1) % 2
    raw = (n - 1) * (d - r - 1 - eps)
    if d < p + 2 or raw % 6:
        return None
    s = raw // 6
    extra = sum(d - r - 1 - k for k in range(p - n + 2)) + b + 1
    offsets = [eps * (n - 1) + extra] + [0] * (n - 2)
    return s, offsets


def _blocked(p: int, b: int, n: int, d: int):
    """Size s and offsets of the blocked construction: one wedge block of
    size n-1 carrying the triple family, the rest covered by odd-degree
    rectangles of height 3 and single rows, all at distinct degrees."""
    d1 = next((v for v in range(d - 1, 0, -1) if v % 6 == 1), None)
    if d1 is None or d1 < 2:
        raise ValueError("no usable leading degree below d")
    s = (n - 1) * (d1 - 1) // 6
    rest = p + 1 - (n - 1)
    heights = [3] * (rest // 3) + [1] * (rest % 3)
    degrees = []
    v = d1 - 2
    for h in heights:
        while v > 0 and (h == 3 and v % 2 == 0):
            v -= 1
        if v <= 0:
            raise ValueError("not enough degrees for the blocked construction")
        degrees.append(v)
        v -= 1
    offsets = [0] * (n - 1)
    for h, deg in zip(heights, degrees):
        for i in range(h):
            offsets[i] += deg
    offsets[0] += b + 1
    return s, offsets


def almost_triplet_census(p: int, b: int, n: int, d: int) -> PatternReport:
    """Construct the almost-triplet family and count its distinct molds.

    The route is chosen from the inputs: the single-wedge construction
    when d >= p + 2 and its triple size (n-1)(d-r-1-eps)/6 is an integer,
    otherwise the blocked multi-wedge construction.  Either one fixes a
    size s and an offsets vector; each partition mu of s with at most
    (n-1)/3 parts then gives one member 1 + 2*(mu tripled) + offsets.
    The report counts both members and distinct molds, so a collision
    shows as molds < partitions.
    """
    if n > p + 1:
        raise ValueError("requires n <= p + 1")
    if n < 4:
        raise ValueError("requires n >= 4 for triple groups")
    if d < 3 * ((p + 1) // (n - 3)) + 3:
        raise ValueError(f"requires d >= {3 * ((p + 1) // (n - 3)) + 3}")
    s, offsets = _single_wedge(p, b, n, d) or _blocked(p, b, n, d)
    copies = (n - 1) // 3
    molds: set[Partition] = set()
    count = 0
    for mu in partitions_of(s, max_parts=copies):
        core = [1 + 2 * v for v in _triple_expand(mu, copies)]
        core += [1] * (n - 1 - len(core))
        molds.add(mold(normalize(tuple(c + o for c, o in zip(core, offsets)))))
        count += 1
    return PatternReport(count, len(molds))
