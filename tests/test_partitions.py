from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from veroschur.cones import count_partitions
from veroschur.constructions import dominates
from veroschur.partitions import (add, conjugate, gl_dimension, normalize,
                                  partitions_of, sym_group_irrep_dim,
                                  vectors_in_box)

from oracles import (gl_dimension_weyl, horizontal_strips_down,
                     partitions_rec, pieri, pieri_rows, strips_down_rows,
                     vectors_in_box_rec)


def partitions_upto(n):
    for k in range(n + 1):
        yield from partitions_of(k)


@st.composite
def partition_strategy(draw, max_size=30):
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    bound = n
    while n > 0:
        v = draw(st.integers(min_value=1, max_value=bound))
        parts.append(v)
        n -= v
        bound = min(bound, v, n) if n else bound
    return tuple(parts)


def test_normalize():
    assert normalize((3, 2, 0, 0)) == (3, 2)
    assert normalize(()) == ()
    with pytest.raises(ValueError):
        normalize((1, 2))


def test_conjugate_examples():
    assert conjugate((2, 2, 1)) == (3, 2)
    assert conjugate(()) == ()
    assert conjugate((4, 1)) == (2, 1, 1, 1)


@given(partition_strategy())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


def test_add():
    assert add((3, 1), (2, 2)) == (5, 3)
    assert add((3, 1), ()) == (3, 1)


def test_dominates_examples():
    assert dominates((4,), (2, 2))
    assert dominates((2, 2), (2, 2))
    assert not dominates((1, 1, 1, 1), (2, 2))
    with pytest.raises(ValueError):
        dominates((2,), (1,))


def test_dominance_partial_order_exhaustive():
    for n in range(13):
        parts = list(partitions_of(n))
        for lam in parts:
            assert dominates(lam, lam)
        rel = {(a, b) for a in parts for b in parts if dominates(a, b)}
        for a, b in rel:
            if (b, a) in rel:
                assert a == b
        for a, b in rel:
            for c in parts:
                if (b, c) in rel:
                    assert (a, c) in rel


def brute_pieri(lam, b):
    """Oracle: filter all partitions of |lam|+b by the strip conditions."""
    out = []
    for mu in partitions_of(sum(lam) + b):
        big = mu + (0,) * (len(lam) + 1)
        small = lam + (0,) * len(big)
        if all(big[i] >= small[i] for i in range(len(lam) + 1)) and \
           all(big[i + 1] <= small[i] for i in range(len(big) - 1)) and \
           len(mu) <= len(lam) + 1:
            out.append(mu)
    return sorted(out, reverse=True)


def test_pieri_examples():
    assert pieri((1,), 1) == ((2,), (1, 1))
    assert pieri((2, 1), 2) == ((4, 1), (3, 2), (3, 1, 1), (2, 2, 1))
    assert pieri((3, 1), 0) == ((3, 1),)


def test_pieri_against_brute_force():
    for lam in partitions_upto(7):
        for b in range(4):
            got = list(pieri(lam, b))
            assert got == brute_pieri(lam, b)
            assert all(sum(mu) == sum(lam) + b for mu in got)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-2, 3), min_size=n, max_size=n),
    st.lists(st.integers(-2, 4), min_size=n, max_size=n),
    st.integers(-3, 12))))
def test_vectors_in_box_matches_filtered_product(case):
    # every vector of the box with the right sum, each once, in decreasing
    # lex order; an empty box or an unreachable sum gives none
    lo, hi, total = case
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    expected = sorted((v for v in product(*ranges) if sum(v) == total),
                      reverse=True)
    assert vectors_in_box(lo, hi, total) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-3, 8), min_size=n, max_size=n),
    st.lists(st.integers(0, 3), min_size=n, max_size=n),
    st.integers(-2, 26))))
def test_vectors_in_box_matches_the_recursion(case):
    # the odometer walk against the recursion it replaced, on boxes too
    # wide for the filtered product, with fixed coordinates between the
    # free ones; widths are drawn, so lo <= hi here
    lo, widths, shift = case
    hi = [a + w for a, w in zip(lo, widths)]
    total = sum(lo) + shift
    assert vectors_in_box(lo, hi, total) == vectors_in_box_rec(lo, hi, total)


def test_vectors_in_box_is_not_as_deep_as_its_free_coordinates():
    # 5,000 free coordinates: a recursion over them would pass the
    # interpreter's recursion limit
    assert vectors_in_box((0,) * 5000, (1,) * 5000, 0) == [(0,) * 5000]
    assert vectors_in_box((0,) * 5000, (1,) * 5000, 5000) == [(1,) * 5000]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 14).flatmap(lambda n: st.tuples(
    st.sampled_from(tuple(partitions_of(n))), st.integers(-1, n + 2))))
def test_strips_match_row_recursions(case):
    # strips up (Pieri) and down, by the box walker, are the lists that
    # the row-by-row recursions they replaced give, in the same order:
    # Schur expansions and strip chains are built in this order
    lam, k = case
    if k < 0:
        for route in (pieri, pieri_rows):
            with pytest.raises(ValueError):
                route(lam, k)
    else:
        assert pieri(lam, k) == pieri_rows(lam, k)
    assert list(horizontal_strips_down(lam, k)) == \
        list(strips_down_rows(lam, k))


def test_pieri_single_box_corner_count():
    # with one box the results are the addable corners: one per distinct
    # part value plus the new row
    for lam in partitions_upto(8):
        distinct = len(set(lam))
        assert len(pieri(lam, 1)) <= distinct + 1


def test_count_partitions():
    assert count_partitions(4) == 5
    assert count_partitions(0) == 1
    assert count_partitions(5, 2) == 3
    for n in range(11):
        assert count_partitions(n) == sum(1 for _ in partitions_of(n))
        for m in range(1, 5):
            assert count_partitions(n, m) == \
                sum(1 for _ in partitions_of(n, max_parts=m))


def test_count_partitions_deep():
    # far beyond the interpreter's recursion limit; checked against the
    # closed forms for at most two and three parts and the classical p(1000)
    assert count_partitions(1200, 2) == 1200 // 2 + 1
    assert count_partitions(5000, 3) == round((5000 + 3) ** 2 / 12)
    assert count_partitions(1000) == 24061467864032622473692149727991


def test_partitions_of_order_and_bounds():
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                      (1, 1, 1, 1)]
    assert list(partitions_of(5, max_parts=2)) == [(5,), (4, 1), (3, 2)]


@settings(max_examples=200, deadline=None)
@given(st.integers(-2, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.none() | st.integers(0, max(n, 0) + 1))))
def test_partitions_walk_matches_the_recursion(case):
    # the stack walk lists what the recursion it replaced lists, in the
    # same order, with and without a bound on the number of parts
    n, max_parts = case
    assert list(partitions_of(n, max_parts)) == \
        list(partitions_rec(n, max_parts))


def brute_syt_count(shape):
    """Oracle: count standard fillings by brute force over permutations."""
    cells = [(r, c) for r, ln in enumerate(shape) for c in range(ln)]
    n = len(cells)
    count = 0
    for perm in permutations(range(1, n + 1)):
        grid = {}
        for cell, v in zip(cells, perm):
            grid[cell] = v
        ok = True
        for (r, c), v in grid.items():
            if c and grid[(r, c - 1)] > v:
                ok = False
            if r and grid[(r - 1, c)] > v:
                ok = False
        count += ok
    return count


def test_sym_group_irrep_dim():
    assert sym_group_irrep_dim((5,)) == 1
    assert sym_group_irrep_dim((1, 1, 1, 1)) == 1
    assert sym_group_irrep_dim((2, 1)) == 2
    for lam in partitions_of(6):
        assert sym_group_irrep_dim(lam) == brute_syt_count(lam)


def test_irrep_dim_squares_sum_to_factorial():
    for p in range(1, 9):
        assert sum(sym_group_irrep_dim(mu) ** 2
                   for mu in partitions_of(p)) == factorial(p)


def test_gl_dimension():
    assert gl_dimension((1,), 3) == 3
    assert gl_dimension((1, 1), 3) == 3
    assert gl_dimension((2,), 3) == 6
    assert gl_dimension((1, 1, 1, 1), 3) == 0
    # binomial formulas for one-row and one-column shapes
    for n in (2, 3, 4):
        for k in range(1, 6):
            assert gl_dimension((k,), n) == count_compositions(k, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.sampled_from(tuple(partitions_of(n))), st.integers(0, 9))))
def test_gl_dimension_matches_weyl_product(case):
    # the hook-content product over the boxes equals Weyl's product over
    # the pairs of rows, 0 when lam is longer than n
    lam, n = case
    assert gl_dimension(lam, n) == gl_dimension_weyl(lam, n)


def test_gl_dimension_at_large_n():
    # the contents take one perm per row, and the hooks are taken on the
    # conjugate when it has fewer rows, so a column of 1,100 boxes is one
    # factorial
    assert gl_dimension((2, 2), 1100) == 1100 ** 2 * (1100 ** 2 - 1) // 12
    assert gl_dimension((1,) * 1100, 1100) == 1
    assert gl_dimension((1,) * 1101, 1100) == 0


def count_compositions(k, n):
    from math import comb
    return comb(k + n - 1, n - 1)
