"""The two rational cones whose slices count complexity and multiplicity.

The shape cone section parameterizes partitions of p*d with at most p
parts by (lam_2, ..., lam_p) at level d; its lattice points count the
distinct Schur types in the p-th tensor power of Sym^d.  The content cone
section lives on the strictly-upper entries of a row-content matrix and
its level-d lattice points are in bijection with weight-(d^p) tableaux,
i.e. they count total multiplicity.  The moment map projects the second
cone onto the first.

Both sections are written as integer inequalities, and their
per-coordinate maxima have closed forms (p/k for lam_k, 1 for every
content entry), so building a section solves no linear program.
`lattice_count` counts a slice by a forward DP over the coordinates whose
states are the values of the prefix forms that later coordinates still
need, so it builds no point; `moment_fibres` reads every fibre of the moment
map off the last layer of the same DP, keyed by the row sums.  The content
coordinates run column by column, bottom row first, because that order
keeps the DP's live prefix forms few (see `offdiag_pairs`).
`duality_rows` compares both lattice counts with the Pieri decomposition
of the tensor power, and `cones_payload` builds the `cones` command's
output from those rows and the leading-coefficient fits.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from veroschur.characters import (complexity, tensor_power_sym,
                                  total_multiplicity)
from veroschur.config import DEFAULT_CONFIG, RunConfig
from veroschur.partitions import Partition, is_dominant, normalize

Functional = tuple[tuple[int, ...], int]  # coeffs . x + const >= 0 at level 1


class ConeCrossSection(NamedTuple):
    """Level-1 slice of a rational cone as integer inequalities.

    upper_bounds are the exact per-coordinate maxima over the slice, in
    closed form (so the slice is bounded), one per ambient coordinate;
    interior_point satisfies every inequality strictly, certifying that
    the slice has full ambient dimension.
    """

    label: str
    inequalities: tuple[Functional, ...]
    interior_point: tuple[Fraction, ...]
    upper_bounds: tuple[Fraction, ...]


def _section(label: str, ineqs: list[Functional],
             interior: tuple[Fraction, ...],
             bounds: tuple[Fraction, ...]) -> ConeCrossSection:
    """The section, once every slack at the interior point is checked
    positive in integers: the point scaled by the lcm of its denominators
    against each constant scaled the same."""
    scale = lcm(*(x.denominator for x in interior))
    point = [x.numerator * (scale // x.denominator) for x in interior]
    if any(sum(map(mul, coeffs, point)) + const * scale <= 0
           for coeffs, const in ineqs):
        raise ValueError(f"interior point fails strictly for {label}")
    return ConeCrossSection(label, tuple(ineqs), interior, bounds)


def shape_cone_section(p: int) -> ConeCrossSection:
    """Slice of the cone of shapes: coordinates (lam_2, ..., lam_p), with
    lam_1 := p - sum at level 1 and the chain lam_1 >= ... >= lam_p >= 0."""
    if p < 1:
        raise ValueError("p must be positive")
    dim = p - 1
    ineqs: list[Functional] = []
    if dim:
        # lam_1 - lam_2 >= 0 with lam_1 substituted
        ineqs.append((tuple([-2] + [-1] * (dim - 1)), p))
        for i in range(dim - 1):
            coeffs = [0] * dim
            coeffs[i], coeffs[i + 1] = 1, -1
            ineqs.append((tuple(coeffs), 0))
        ineqs.append((tuple([0] * (dim - 1) + [1]), 0))
    interior = tuple(Fraction(p + 1 - i, p + 2) for i in range(2, p + 1))
    # lam_k <= (lam_1 + ... + lam_k)/k <= p/k, attained at
    # lam_1 = ... = lam_k = p/k
    bounds = tuple(Fraction(p, k) for k in range(2, p + 1))
    return _section(f"shapes(p={p})", ineqs, interior, bounds)


def offdiag_pairs(p: int) -> tuple[tuple[int, int], ...]:
    """The content coordinates (i, j), i < j (0-based), column by column,
    bottom row first: sort key (j, -i).

    The DP of `_count_points` keys a layer by the prefix forms that later
    coordinates still need.  The diagonal t_jj = 1 - sum_{k<j} t_kj couples
    column j, and condition (2) at (i, j) couples rows i and i + 1 up to
    column j, so in this order a finished column leaves few forms live; in
    row-major order most of them stay live to the last row (13,849 states
    expanded against 1,101 at p = 6, d = 3).
    """
    return tuple((i, j) for j in range(p) for i in reversed(range(j)))


def _content_form(p: int, terms: Iterable[tuple[int, int, int]]) -> Functional:
    """sum of sign * t_ij over (sign, i, j) as (coeffs, const) at level 1
    on the content coordinates, with each diagonal t_jj put in as
    1 - sum_{k<j} t_kj."""
    col = {pair: idx for idx, pair in enumerate(offdiag_pairs(p))}
    coeffs, const = [0] * len(col), 0
    for sign, i, j in terms:
        if i == j:
            const += sign
            for k in range(j):
                coeffs[col[(k, j)]] -= sign
        else:
            coeffs[col[(i, j)]] += sign
    return tuple(coeffs), const


def content_cone_section(p: int) -> ConeCrossSection:
    """Slice of the cone of row-content matrices on coordinates t_ij, i<j
    (in `offdiag_pairs` order: column by column, bottom row first), with
    diagonals substituted at level 1."""
    if p < 1:
        raise ValueError("p must be positive")
    pairs = offdiag_pairs(p)
    dim = len(pairs)
    # t_ij >= 0, t_jj >= 0, and the tableau condition (2) at every i < j:
    # sum_{i<=k<j} t_ik - sum_{i<k<=j} t_{i+1,k} >= 0
    ineqs = [_content_form(p, [(1, i, j)]) for i, j in pairs]
    ineqs += [_content_form(p, [(1, j, j)]) for j in range(p)]
    ineqs += [_content_form(p, [(1, i, k) for k in range(i, j)]
                            + [(-1, i + 1, k) for k in range(i + 1, j + 1)])
              for i, j in pairs]
    # row-geometric interior point: strictly inside for every p since the
    # slack of condition (2) at (i, j) is (a_i + (j-i-1)(a_i - a_{i+1})) eps
    # for row values a_i decreasing in i
    eps = Fraction(1, p ** (p + 2)) if p > 1 else Fraction(1)
    interior = tuple(Fraction(1, p ** (i + 1)) * eps for i, j in pairs)
    # t_kj >= 0 and t_jj = 1 - sum_{k<j} t_kj >= 0 give t_kj <= 1,
    # attained by the standard tableau whose first column is 0, ..., k-1, j
    bounds = (Fraction(1),) * dim
    return _section(f"contents(p={p})", ineqs, interior, bounds)


def lattice_count(cone: ConeCrossSection, level: int,
                  config: RunConfig = DEFAULT_CONFIG) -> int:
    """Exact number of integer points on the level-d slice, by the forward
    DP of `_count_points`, which builds no point."""
    return sum(_count_points(*_at_level(cone, level), config).values())


def moment_fibres(p: int, d: int,
                  config: RunConfig = DEFAULT_CONFIG) -> dict[Partition, int]:
    """The size of every nonempty level-d fibre of the moment map by its
    shape lam, the Kostka numbers K_{lam,(d^p)}, from one DP pass whose
    output forms are the row sums lam_i of rows i >= 2 less their constant
    d (t_ii is d - sum_{k<i} t_ki): a last-layer key v gives the weight
    (d - sum(v), d + v_2, ..., d + v_p).  A point of a wrong section whose
    weight is not a partition lies over no shape, so it is in no fibre."""
    forms = [_content_form(p, [(1, i, j) for j in range(i, p)])[0]
             for i in range(1, p)]
    layer = _count_points(*_at_level(content_cone_section(p), d), config, forms)
    weights = ((d - sum(key), *(d + v for v in key)) for key in layer)
    return {normalize(lam): ways for lam, ways in zip(weights, layer.values())
            if is_dominant(lam)}


def _at_level(cone: ConeCrossSection,
              level: int) -> tuple[list[Functional], list[int]]:
    """The slice's rows and per-coordinate caps scaled to the level."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    caps = [u.numerator * level // u.denominator for u in cone.upper_bounds]
    rows = [(coeffs, const * level) for coeffs, const in cone.inequalities]
    return rows, caps


def _count_points(rows: list[Functional], caps: list[int], config: RunConfig,
                  outputs: Sequence[tuple[int, ...]] = ()
                  ) -> dict[tuple[int, ...], int]:
    """Number of integer x with 0 <= x <= caps and every row
    coeffs . x + const >= 0, by the values of the output forms (distinct
    and nonzero coefficient tuples), by a forward DP over the coordinates.

    Once x_0..x_{k-1} are fixed, the interval left for x_k, and so
    everything after it, depends only on the values of the prefix forms
    sum_{i<k} c_i x_i of the rows that still involve a coordinate >= k.  A
    layer maps the values of the distinct nonzero such forms, and of the
    outputs' prefixes, to the number of prefixes that reach them, so the
    last layer, which is returned, is keyed by the outputs' values in order
    ({(): count} without outputs).  A coordinate after which no form is
    live adds its interval length in closed form.  `max_enum_nodes` bounds
    the states expanded, checked before each layer is expanded, and
    `max_table_entries` the states of the layer being filled, as it fills.
    """
    # a constant row holds or fails at every point alike
    layer = {} if any(const < 0 for c, const in rows if not any(c)) else {(): 1}
    forms: list[tuple[int, ...]] = []  # the key's prefix forms at level k
    # each row's positive tail: the most that the coordinates after x_k add
    # to it, each at its cap; a level takes its own coordinate's term off
    tails = [sum(c * cap for c, cap in zip(coeffs, caps) if c > 0)
             for coeffs, _ in rows]
    nodes = 0
    for k in range(len(caps)):
        slot = {form: i for i, form in enumerate(forms)}
        zero = len(forms)  # the zero form's slot in key + (0,)
        lo0, hi0 = 0, caps[k]
        # least constant part of the slack per (key slot, coefficient of x_k);
        # a row with a zero coefficient and a nonzero prefix form needs no
        # check: the level that last moved its form left its slack >= 0
        checks: dict[tuple[int, int], int] = {}
        for r, (coeffs, const) in enumerate(rows):
            a = coeffs[k]
            if a > 0:
                tails[r] -= a * caps[k]
            # a row past its last coordinate holds
            if not any(coeffs[k:]):
                continue
            base = const + tails[r]
            s = slot.get(coeffs[:k], zero)
            if s != zero:
                if a and base < checks.get((s, a), base + 1):
                    checks[(s, a)] = base
            elif a < 0:
                hi0 = min(hi0, base // -a)
            elif a > 0:
                lo0 = max(lo0, -(base // a))
            elif base < 0:
                hi0 = -1
        uppers = [(s, -a, base) for (s, a), base in checks.items() if a < 0]
        lowers = [(s, a, base) for (s, a), base in checks.items() if a > 0]
        # the next key: each next form's value read from its slot in
        # key + (0,), plus its coefficient of x_k times x_k
        live = [c[:k + 1] for c, _ in rows if any(c[k + 1:])]
        live += [c[:k + 1] for c in outputs]
        nxt_forms = list(dict.fromkeys(f for f in live if any(f)))
        slots = [slot.get(f[:k], zero) for f in nxt_forms]
        steps = [f[k] for f in nxt_forms]
        closed = not nxt_forms
        nodes += len(layer)
        config.check_nodes(nodes, "lattice count states expanded")
        nxt: dict[tuple[int, ...], int] = {}
        total = 0
        for key, ways in layer.items():
            lo, hi = lo0, hi0
            for s, a, base in uppers:
                t = (key[s] + base) // a
                if t < hi:
                    hi = t
            for s, a, base in lowers:
                t = -((key[s] + base) // a)
                if t > lo:
                    lo = t
            if lo > hi:
                continue
            if closed:  # the next layer holds the one key ()
                total += ways * (hi - lo + 1)
                continue
            ext = key + (0,)
            held = tuple([ext[s] for s in slots])
            for v in range(lo, hi + 1):
                new = tuple([h + a * v for h, a in zip(held, steps)]) if v else held
                if new in nxt:
                    nxt[new] += ways
                else:
                    nxt[new] = ways
                    config.check_table(len(nxt), "lattice count layer states")
        forms, layer = nxt_forms, {(): total} if total else nxt
    return layer


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


class DualityRow(NamedTuple):
    """Both lattice counts at one level and whether each matches the Pieri
    decomposition of the p-th tensor power of Sym^d."""

    d: int
    shape_count: int
    content_count: int
    types_ok: bool
    multiplicity_ok: bool


def duality_rows(p: int, levels: Iterable[int],
                 config: RunConfig = DEFAULT_CONFIG) -> list[DualityRow]:
    """Count both slices at each level and compare them with the type count
    and total multiplicity of (Sym^d)^{(x)p}; the two routes are independent,
    so a wrong slice bound or inequality shows as a mismatch."""
    shapes = shape_cone_section(p)
    contents = content_cone_section(p)
    rows = []
    for d in levels:
        e = tensor_power_sym(p, d, p, config)
        shape_count = lattice_count(shapes, d, config)
        content_count = lattice_count(contents, d, config)
        rows.append(DualityRow(
            d, shape_count, content_count,
            shape_count == complexity(e) == count_partitions(p * d, p),
            content_count == total_multiplicity(e)))
    return rows


class FitResult(NamedTuple):
    """Leading-coefficient estimate by divided differences on the last two
    windows of samples; relative_change is the convergence diagnostic."""

    estimate: Fraction
    relative_change: Fraction


def _divided_difference(points: list[tuple[int, Fraction]]) -> Fraction:
    vals = [y for _, y in points]
    xs = [x for x, _ in points]
    for span in range(1, len(points)):
        vals = [(vals[i + 1] - vals[i]) / (xs[i + span] - xs[i])
                for i in range(len(vals) - 1)]
    return vals[0]


def fit_leading_coefficient(samples: Sequence[tuple[int, int]],
                            degree: int) -> FitResult:
    """Estimate lim count / level^degree by divided differences.

    The top divided difference over degree+1 samples equals the leading
    coefficient exactly for a degree-`degree` polynomial; the change
    between the last two windows is reported as the residual diagnostic.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    pts = sorted({(int(x), Fraction(y)) for x, y in samples})
    if len(pts) != len(set(x for x, _ in pts)):
        raise ValueError("sample levels must be distinct")
    if len(pts) < degree + 2:
        raise ValueError(f"need at least {degree + 2} samples, got {len(pts)}")
    last = _divided_difference(pts[-(degree + 1):])
    prev = _divided_difference(pts[-(degree + 2):-1])
    if last == 0:
        change = Fraction(0) if prev == 0 else Fraction(1)
    else:
        change = abs(last - prev) / abs(last)
    return FitResult(last, change)


def cones_payload(p: int, levels: range, config: RunConfig = DEFAULT_CONFIG
                  ) -> tuple[dict, list[list[str]]]:
    """The payload of `cones` at levels, and its CSV rows.

    One row per level holds both lattice counts and their checks; the
    rows count against the table cap.  Each count gets a leading-
    coefficient fit (degree p - 1 for the types, C(p, 2) for the
    multiplicity) when there are at least degree + 2 levels.  The payload
    is consistent when every check passes."""
    config.check_table(len(levels), "cones levels")
    ds = list(levels)
    if not ds:
        raise ValueError("empty d range")
    rows = [{"d": r.d, "shape_count": str(r.shape_count),
             "content_count": str(r.content_count),
             "types_check": r.types_ok, "multiplicity_check": r.multiplicity_ok}
            for r in duality_rows(p, ds, config)]
    fits = {}
    if len(ds) >= 2:
        for label, deg, key in (("types", p - 1, "shape_count"),
                                ("multiplicity", comb(p, 2), "content_count")):
            samples = [(r["d"], int(r[key])) for r in rows]
            if len(samples) >= deg + 2:
                fit = fit_leading_coefficient(samples, deg)
                fits[label] = {"degree": deg, "estimate": str(fit.estimate),
                               "relative_change": str(fit.relative_change)}
    consistent = all(r["types_check"] and r["multiplicity_check"]
                     for r in rows)
    payload = {"command": "cones", "parameters": {"p": p, "d_values": ds},
               "rows": rows, "fits": fits, "consistent": consistent}
    csv_rows = [["d", "shape_count", "content_count",
                 "types_check", "multiplicity_check"]]
    csv_rows += [[str(r["d"]), r["shape_count"], r["content_count"],
                  str(r["types_check"]).lower(), str(r["multiplicity_check"]).lower()]
                 for r in rows]
    for label, fit in sorted(fits.items()):
        csv_rows.append([f"fit_{label}_degree_{fit['degree']}",
                         fit["estimate"], fit["relative_change"], "", ""])
    return payload, csv_rows
