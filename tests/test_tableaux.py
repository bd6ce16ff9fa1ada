from itertools import permutations, product

import pytest

from veroschur.cones import offdiag_pairs
from veroschur.partitions import dominates, partitions_of

from oracles import (RowContentMatrix, Tableau, enumerate_ssyt,
                     horizontal_strips_down, kostka, matrix_to_tableau,
                     strip_chains, tableau_to_matrix)


def brute_kostka(shape, weight):
    """Oracle: place the multiset of entries cell by cell."""
    entries = []
    for i, c in enumerate(weight):
        entries += [i + 1] * c
    cells = [(r, c) for r, ln in enumerate(shape) for c in range(ln)]
    count = 0
    for perm in set(permutations(entries)):
        grid = {}
        ok = True
        for cell, v in zip(cells, perm):
            grid[cell] = v
        for (r, c), v in grid.items():
            if c and grid[(r, c - 1)] > v:
                ok = False
            if r and grid[(r - 1, c)] >= v:
                ok = False
        count += ok
    return count


def test_kostka_examples():
    assert kostka((3, 1), (3, 1)) == 1
    assert kostka((3, 1), (2, 2)) == 1
    assert kostka((2, 2), (1, 1, 1, 1)) == 2
    with pytest.raises(ValueError):
        kostka((2, 2), (1, 1))


def test_kostka_superstandard():
    for lam in partitions_of(6):
        assert kostka(lam, lam) == 1


def test_kostka_against_brute_force():
    for n in range(1, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n, max_parts=4):
                assert kostka(lam, mu) == brute_kostka(lam, mu), (lam, mu)


def test_kostka_positivity_is_dominance():
    for n in range(1, 11):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert (kostka(lam, mu) > 0) == dominates(lam, mu), (lam, mu)


def test_kostka_weight_permutation_invariance():
    for n in range(2, 9):
        for lam in partitions_of(n, max_parts=3):
            for mu in partitions_of(n, max_parts=3):
                base = kostka(lam, mu)
                for perm in set(permutations(mu)):
                    assert kostka(lam, perm) == base


def test_enumerate_ssyt_examples():
    assert [t.rows for t in enumerate_ssyt((2, 2), (2, 2))] == \
        [((1, 1), (2, 2))]
    assert [t.rows for t in enumerate_ssyt((4,), (2, 2))] == \
        [((1, 1, 2, 2),)]
    assert [t.rows for t in enumerate_ssyt((1, 1, 1), (1, 1, 1))] == \
        [((1,), (2,), (3,))]


def test_enumerate_ssyt_counts_match_kostka():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n, max_parts=4):
                tabs = list(enumerate_ssyt(lam, mu))
                assert len(tabs) == kostka(lam, mu)
                assert len(set(t.rows for t in tabs)) == len(tabs)
                for t in tabs:
                    assert t.shape == lam
                    assert t.weight(len(mu)) == tuple(mu)


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau(((1, 2), (1,)))  # column not strict
    with pytest.raises(ValueError):
        Tableau(((2, 1),))  # row decreasing
    with pytest.raises(ValueError):
        Tableau(((1,), (2, 2)))  # shape not a partition


def test_row_content_matrix_examples():
    m = tableau_to_matrix(Tableau(((1, 1), (2, 2))), 2, 2)
    assert m.t == ((2, 0), (0, 2))
    m = tableau_to_matrix(Tableau(((1, 1, 2, 2),)), 2, 2)
    assert m.t[0][1] == 2
    sup = tableau_to_matrix(Tableau(((1, 1, 1), (2, 2, 2))), 2, 3)
    assert sup.t == ((3, 0), (0, 3))


def test_matrix_to_tableau_examples():
    m = RowContentMatrix.from_offdiag(2, 2, (1,))
    assert matrix_to_tableau(m).rows == ((1, 1, 2), (2,))
    m = RowContentMatrix.from_offdiag(2, 2, (0,))
    assert matrix_to_tableau(m).rows == ((1, 1), (2, 2))
    m = RowContentMatrix.from_offdiag(3, 1, (0, 0, 0))
    assert matrix_to_tableau(m).rows == ((1,), (2,), (3,))


def test_row_content_matrix_invariant_errors():
    with pytest.raises(ValueError, match="diagonal"):
        RowContentMatrix(2, 2, ((2, 3), (0, 2)))
    with pytest.raises(ValueError, match=r"condition \(1\)"):
        RowContentMatrix.from_offdiag(2, 2, (3,))
    with pytest.raises(ValueError, match=r"condition \(2\)"):
        RowContentMatrix.from_offdiag(3, 2, (0, 2, 0))


def all_content_matrices(p, d):
    pairs = offdiag_pairs(p)
    for values in product(range(d + 1), repeat=len(pairs)):
        try:
            yield RowContentMatrix.from_offdiag(p, d, values)
        except ValueError:
            continue


def all_weight_dp_tableaux(p, d):
    for lam in partitions_of(p * d, max_parts=p):
        yield from enumerate_ssyt(lam, (d,) * p)


@pytest.mark.parametrize("p,d", [(p, d) for p in (1, 2, 3, 4)
                                 for d in (1, 2, 3, 4, 5)])
def test_bijection_exhaustive(p, d):
    tabs = {t.rows for t in all_weight_dp_tableaux(p, d)}
    mats = list(all_content_matrices(p, d))
    # the two conditions characterize the image exactly
    assert {matrix_to_tableau(m).rows for m in mats} == tabs
    assert len(mats) == len(tabs)
    for m in mats:
        assert tableau_to_matrix(matrix_to_tableau(m), p, d) == m
    for rows in tabs:
        t = Tableau(rows)
        assert matrix_to_tableau(tableau_to_matrix(t, p, d)).rows == rows


def test_tableau_to_matrix_preconditions():
    t = Tableau(((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        tableau_to_matrix(t, 1, 2)  # too many rows
    with pytest.raises(ValueError):
        tableau_to_matrix(t, 2, 3)  # wrong weight


def test_horizontal_strips_down():
    assert list(horizontal_strips_down((3, 1), 2)) == [(2,), (1, 1)]
    assert list(horizontal_strips_down((2, 2), 1)) == [(2, 1)]
    assert list(horizontal_strips_down((2,), 0)) == [(2,)]


def test_strip_chains_examples():
    assert list(strip_chains((2, 1), (1, 1, 1))) == \
        [((1,), (2,), (2, 1)), ((1,), (1, 1), (2, 1))]
    assert list(strip_chains((2,), (0, 2, 0))) == [((), (2,), (2,))]
    assert list(strip_chains((1, 1), (2,))) == []
    with pytest.raises(ValueError):
        next(strip_chains((2,), (3,)))
    with pytest.raises(ValueError):
        next(strip_chains((1,), (2, -1)))
