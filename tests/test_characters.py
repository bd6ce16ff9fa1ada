from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from veroschur.characters import (NotACharacter, SchurExpansion,
                                  _power_product, complexity, sym_power_sym,
                                  tensor_power_sym, tensor_with_sym,
                                  total_multiplicity, wedge_power_sym)
from veroschur.config import DEFAULT_CONFIG, CapExceeded, RunConfig
from veroschur.koszul import WeightTable, orbit_size, schur_decompose
from veroschur.partitions import gl_dimension, is_dominant, partitions_of

from oracles import (_alternant_product, _pieri_product, char_power_monomial,
                     char_sym_sym, char_tensor_sym, char_wedge_sym, kostka,
                     monomials, oracle_decompose, plethysm_cycle_index,
                     schur_character, sub)


def brute_tensor_table(p, d, n):
    """Oracle: enumerate ordered tuples of degree-d exponent vectors."""
    table = {}
    for tup in product(monomials(d, n), repeat=p):
        w = tuple(sum(v) for v in zip(*tup))
        if is_dominant(w):
            table[w] = table.get(w, 0) + 1
    return table


def brute_wedge_table(p, d, n):
    table = {}
    for tup in combinations(monomials(d, n), p):
        w = tuple(sum(v) for v in zip(*tup))
        if is_dominant(w):
            table[w] = table.get(w, 0) + 1
    return table


def brute_sym_table(p, d, n):
    table = {}
    for tup in combinations_with_replacement(monomials(d, n), p):
        w = tuple(sum(v) for v in zip(*tup))
        if is_dominant(w):
            table[w] = table.get(w, 0) + 1
    return table


def test_monomial_order():
    assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    ms = monomials(3, 3)
    assert ms == tuple(sorted(ms, reverse=True))
    assert len(ms) == comb(3 + 2, 2)


def test_char_tensor_examples():
    t = char_tensor_sym(2, 1, 2)
    assert t.entries == {(1, 1): 2, (2, 0): 1}
    t = char_tensor_sym(2, 2, 2)
    assert t.entries == {(4, 0): 1, (3, 1): 2, (2, 2): 3}


@pytest.mark.parametrize("p,d,n", [(2, 2, 2), (3, 2, 2), (2, 3, 3), (3, 2, 3)])
def test_char_tables_against_brute_force(p, d, n):
    assert char_tensor_sym(p, d, n).entries == brute_tensor_table(p, d, n)
    assert char_wedge_sym(p, d, n).entries == brute_wedge_table(p, d, n)
    assert char_sym_sym(p, d, n).entries == brute_sym_table(p, d, n)


def test_char_dimensions():
    for p, d, n in [(2, 2, 2), (3, 2, 3), (2, 4, 3)]:
        dim_s = comb(d + n - 1, n - 1)
        assert char_tensor_sym(p, d, n).dimension() == dim_s ** p
        assert char_wedge_sym(p, d, n).dimension() == comb(dim_s, p)
        assert char_sym_sym(p, d, n).dimension() == comb(dim_s + p - 1, p)


def test_wedge_beyond_dimension_empty():
    assert char_wedge_sym(4, 1, 2).entries == {}  # dim Sym^1 C^2 = 2 < 4
    e = wedge_power_sym(4, 1, 2)
    assert (e.n, e.degree, e.terms) == (2, 4, {})


@pytest.mark.parametrize("n", [1, 2, 3, 5])  # both sides of n = p
def test_degree_zero_powers(n):
    # Sym^0 is the trivial line
    assert char_sym_sym(3, 0, n).entries == {(0,) * n: 1}
    assert char_wedge_sym(1, 0, n).entries == {(0,) * n: 1}
    assert char_wedge_sym(3, 0, n).entries == {}
    with pytest.raises(ValueError, match="d >= 0"):
        char_sym_sym(3, -1, n)
    assert sym_power_sym(3, 0, n).terms == {(): 1}
    assert wedge_power_sym(1, 0, n).terms == {(): 1}
    assert wedge_power_sym(3, 0, n).terms == {}
    for power in (sym_power_sym, wedge_power_sym):
        with pytest.raises(ValueError, match="d >= 0"):
            power(3, -1, n)


def test_schur_decompose_examples():
    assert schur_decompose(char_sym_sym(1, 3, 2)).terms == {(3,): 1}
    assert schur_decompose(char_tensor_sym(2, 2, 2)).terms == \
        {(4,): 1, (3, 1): 1, (2, 2): 1}
    assert schur_decompose(char_wedge_sym(2, 2, 2)).terms == {(3, 1): 1}
    assert schur_decompose(char_sym_sym(2, 2, 2)).terms == {(4,): 1, (2, 2): 1}
    assert sym_power_sym(1, 3, 2).terms == {(3,): 1}
    assert wedge_power_sym(2, 2, 2).terms == {(3, 1): 1}
    assert sym_power_sym(2, 2, 2).terms == {(4,): 1, (2, 2): 1}


def test_tensor_square_closed_form():
    from veroschur.partitions import normalize
    for d in (1, 2, 3, 5, 8):
        e = schur_decompose(char_tensor_sym(2, d, 2))
        assert e.terms == {normalize((2 * d - a, a)): 1 for a in range(d + 1)}
        assert total_multiplicity(e) == complexity(e) == d + 1


def test_kostka_consistency():
    for p in (2, 3, 4):
        for d in (1, 2, 3, 4, 5):
            e = schur_decompose(char_tensor_sym(p, d, p))
            for lam in partitions_of(p * d, max_parts=p):
                assert e.multiplicity(lam) == kostka(lam, (d,) * p)


def test_support_is_bounded_length():
    for p in (2, 3, 4):
        for d in (1, 2, 3, 4, 5):
            e = schur_decompose(char_tensor_sym(p, d, p + 1))
            expected = {lam for lam in partitions_of(p * d, max_parts=p)}
            assert set(e.terms) == expected
    # so every plethysm of a p-th power is settled over C^p: at n = p + 1
    # and p + 2 it has the terms it has at n = p, and the plethysm checks
    # of constructions take no n
    for power in (sym_power_sym, wedge_power_sym, tensor_power_sym):
        for p in (1, 2, 3, 4):
            for d in (0, 1, 2, 3, 4):
                at_p = power(p, d, p).terms
                for n in (p + 1, p + 2):
                    assert power(p, d, n).terms == at_p, (power, p, d, n)


def test_functorial_sum_p2():
    # tensor square = sym + wedge on the nose
    for d in (2, 3, 4):
        t = char_tensor_sym(2, d, 2)
        s = char_sym_sym(2, d, 2)
        w = char_wedge_sym(2, d, 2)
        assert sub(t, s).entries == w.entries


def test_functorial_sum_p3():
    # tensor cube = sym + wedge + two copies of the mixed functor
    for d in (2, 3, 4):
        t = char_tensor_sym(3, d, 3)
        s = char_sym_sym(3, d, 3)
        w = char_wedge_sym(3, d, 3)
        mixed2 = sub(sub(t, s), w)
        assert all(v % 2 == 0 for v in mixed2.entries.values())
        mixed = WeightTable(3, 3 * d,
                            {k: v // 2 for k, v in mixed2.entries.items()})
        e = schur_decompose(mixed)
        assert all(c > 0 for c in e.terms.values())
        nt = total_multiplicity(schur_decompose(t))
        ns = total_multiplicity(schur_decompose(s))
        nw = total_multiplicity(schur_decompose(w))
        assert nt == ns + nw + 2 * total_multiplicity(e)


def test_schur_decompose_rejects_non_characters():
    # highest weight (2,0) without its (1,1) weight space
    bad = WeightTable(2, 2, {(2, 0): 1})
    with pytest.raises(NotACharacter):
        schur_decompose(bad)
    # two copies of S_(2) need weight (1,1) twice, the table has it once:
    # the alternating sum at (1,1) is 1 - 2
    bad = WeightTable(2, 2, {(2, 0): 2, (1, 1): 1})
    with pytest.raises(NotACharacter, match="negative"):
        schur_decompose(bad)


def test_schur_character_matches_kostka():
    t = schur_character((3, 1), 3)
    for mu in partitions_of(4, max_parts=3):
        assert t.entries.get(mu + (0,) * (3 - len(mu)), 0) == kostka((3, 1), mu)


def test_tensor_with_sym():
    e = SchurExpansion(2, 3, {(3,): 1})
    assert tensor_with_sym(e, 3).terms == {(6,): 1, (5, 1): 1, (4, 2): 1,
                                           (3, 3): 1}
    assert tensor_with_sym(e, 0).terms == e.terms
    e2 = SchurExpansion(2, 4, {(3, 1): 1})
    # (4,1) and (3,2) survive at n=2, the length-3 strip result is cut
    assert tensor_with_sym(e2, 1).terms == {(4, 1): 1, (3, 2): 1}


def test_tensor_with_sym_truncation():
    e = SchurExpansion(2, 4, {(3, 1): 1})
    out = tensor_with_sym(e, 1)
    assert set(out.terms) == {(4, 1), (3, 2)}


def test_dimension_conservation_via_pieri():
    base = schur_decompose(char_tensor_sym(2, 3, 2)).with_n(3)
    out = tensor_with_sym(base, 2)
    dim_s = comb(3 + 2, 2) ** 2 * comb(2 + 2, 2)
    assert out.dimension() == dim_s


def test_orbit_size():
    assert orbit_size((2, 1, 0)) == 6
    assert orbit_size((1, 1, 0)) == 3
    assert orbit_size((2, 2, 2)) == 1


def test_caps_are_loud():
    tiny = RunConfig(max_table_entries=5)
    with pytest.raises(CapExceeded):
        tensor_power_sym(3, 4, 3, tiny)
    # the plethysms count their Schur terms against the same cap, as the
    # products fill, at any n: they list no shifts
    for p, n, cap, what in [(6, 9, 10, "Schur terms"),
                            (6, 3, 11, "Schur terms")]:
        with pytest.raises(CapExceeded) as exc:
            sym_power_sym(p, 2, n, RunConfig(max_table_entries=cap))
        assert exc.value.what == what


def test_large_p_runs_under_the_default_caps():
    # Newton's identity takes p(p+1)/2 products and lists nothing over the
    # p(80) = 15,796,476 cycle types of S_80
    assert sym_power_sym(80, 0, 1).terms == {(): 1}
    assert wedge_power_sym(80, 0, 1).terms == {}
    assert sym_power_sym(40, 1, 1).terms == {(40,): 1}


def test_long_tensor_chain_runs_without_recursion():
    # one Pieri product per factor: 1,200 factors, no recursion per factor
    assert tensor_power_sym(1200, 1, 1).terms == {(1200,): 1}


def test_plethysm_cap_trips_inside_a_level():
    # the terms are checked as each product fills, after each lam, and one
    # lam adds at most C(15, 8) = 6,435 terms, one per exponent vector, so
    # the run stops within that many terms past the cap
    with pytest.raises(CapExceeded) as exc:
        sym_power_sym(8, 8, 8, RunConfig(max_table_entries=13_000))
    assert exc.value.what == "Schur terms"
    assert 13_000 < exc.value.needed <= 13_000 + comb(15, 8)


def test_alternant_products_are_capped_before_they_run():
    # 2 h_2[h_2] = p_1[h_2] h_1[h_2] + p_2[h_2]; its one alternant product,
    # 1 times p_2[h_2] at n = 2, is 1 term times the 3 shifts of degree 2,
    # counted before it runs
    with pytest.raises(CapExceeded, match="alternant terms: needed 3, cap 2"):
        sym_power_sym(2, 2, 2, RunConfig(max_enum_nodes=2))
    assert sym_power_sym(2, 2, 2, RunConfig(max_enum_nodes=3)).terms == \
        {(4,): 1, (2, 2): 1}


def test_weight_table_validation():
    with pytest.raises(NotACharacter):
        WeightTable(2, 4, {(1, 3): 1})  # not dominant
    with pytest.raises(NotACharacter):
        WeightTable(2, 4, {(2, 1): 1})  # wrong degree
    with pytest.raises(NotACharacter):
        SchurExpansion(2, 4, {(1, 1, 1, 1): 1})  # too long


def test_expansion_dimension():
    e = schur_decompose(char_tensor_sym(3, 2, 3))
    assert e.dimension() == comb(2 + 2, 2) ** 3
    assert e.dimension() == sum(c * gl_dimension(lam, 3)
                                for lam, c in e.terms.items())


def _table_size(kind, p, d, n):
    """Monomial tuples a monomial-DP character for (kind, p, d, n) runs over."""
    dim_s = comb(d + n - 1, n - 1)
    if kind == "tensor":
        return dim_s ** p
    if kind == "sym":
        return comb(dim_s + p - 1, p)
    return comb(dim_s, p)


CHARS = {"sym": char_sym_sym, "wedge": char_wedge_sym,
         "tensor": char_tensor_sym}


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(CHARS)), p=st.integers(1, 5),
       d=st.integers(1, 4), n=st.integers(1, 8))
def test_alternant_matches_kostka_subtraction(kind, p, d, n):
    assume(_table_size(kind, p, d, n) <= 5_000)
    table = CHARS[kind](p, d, n)
    assert schur_decompose(table).terms == oracle_decompose(table).terms


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 5), d=st.integers(1, 4), n=st.integers(1, 8))
def test_pieri_tensor_power_matches_character(p, d, n):
    # n < p truncates: terms longer than n are dropped on both routes
    assume(_table_size("tensor", p, d, n) <= 5_000)
    got = tensor_power_sym(p, d, n)
    assert (got.n, got.degree) == (n, p * d)
    assert got.terms == oracle_decompose(char_tensor_sym(p, d, n)).terms


def test_alternant_search_cap():
    table = char_sym_sym(2, 2, 2)  # weights (4,0), (3,1), (2,2): 1 + 2 + 2 terms
    with pytest.raises(CapExceeded, match="enumeration nodes"):
        schur_decompose(table, RunConfig(max_enum_nodes=4))
    assert schur_decompose(table, RunConfig(max_enum_nodes=5)).terms == \
        {(4,): 1, (2, 2): 1}


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["sym", "wedge"]), p=st.integers(1, 6),
       d=st.integers(0, 5), n=st.integers(1, 9))
def test_cycle_index_matches_monomial_dp(kind, p, d, n):
    # draws on both sides of n = p: the cycle index needs no n >= p
    assume(_table_size(kind, p, d, n) <= 20_000)
    want = char_power_monomial(p, d, n, kind == "wedge")
    assert CHARS[kind](p, d, n).entries == want.entries


@settings(max_examples=100, deadline=None)
@given(wedge=st.booleans(), p=st.integers(1, 6), d=st.integers(0, 5),
       n=st.integers(1, 6))
@example(wedge=True, p=6, d=3, n=3)   # n < p
@example(wedge=False, p=5, d=4, n=1)  # one variable
@example(wedge=True, p=4, d=0, n=3)   # d = 0, empty
@example(wedge=True, p=4, d=1, n=2)   # p above dim Sym^d, empty
def test_power_sum_products_match_the_weight_tables(wedge, p, d, n):
    # the products by p_k[h_d] against both table routes, the
    # column DP decomposed by the alternant formula and the monomial DP
    # decomposed by Kostka subtraction: same terms in the same order
    assume(_table_size("wedge" if wedge else "sym", p, d, n) <= 20_000)
    got = (wedge_power_sym if wedge else sym_power_sym)(p, d, n)
    assert (got.n, got.degree) == (n, p * d)
    columns = schur_decompose(char_wedge_sym(p, d, n) if wedge
                              else char_sym_sym(p, d, n))
    monomial = oracle_decompose(char_power_monomial(p, d, n, wedge))
    assert list(got.terms.items()) == list(columns.terms.items()) == \
        list(monomial.terms.items())


@settings(max_examples=60, deadline=None)
@given(wedge=st.booleans(), p=st.integers(1, 12), d=st.integers(0, 3),
       n=st.integers(1, 5))
@example(wedge=True, p=12, d=3, n=3)   # n < p
@example(wedge=False, p=12, d=3, n=1)  # one variable
@example(wedge=False, p=12, d=0, n=4)  # d = 0
@example(wedge=True, p=12, d=1, n=5)   # p above dim Sym^d, empty
@example(wedge=True, p=10, d=3, n=4)   # even and odd k on large terms
def test_newton_identity_matches_the_cycle_index(wedge, p, d, n):
    # Newton's identity against the cycle-index walk it replaced, past the
    # range of the table oracles: same terms in the same order
    assume(comb(n + d - 1, d) * p <= 240)
    got = (wedge_power_sym if wedge else sym_power_sym)(p, d, n)
    want = plethysm_cycle_index(p, d, n, wedge)
    assert (got.n, got.degree) == (want.n, want.degree) == (n, p * d)
    assert list(got.terms.items()) == list(want.terms.items())


@st.composite
def signed_products(draw):
    """(terms, k, d, n): up to four signed Schur terms of at most n parts,
    to be multiplied by p_k[h_d] over GL_n."""
    n, k, d = draw(st.integers(1, 7)), draw(st.integers(1, 5)), \
        draw(st.integers(0, 5))
    lams = draw(st.lists(st.integers(0, 8).flatmap(
        lambda size: st.sampled_from(tuple(partitions_of(size, n)))),
        max_size=4, unique=True))
    coefs = draw(st.lists(st.integers(-3, 3).filter(bool),
                          min_size=len(lams), max_size=len(lams)))
    return dict(zip(lams, coefs)), k, d, n


@settings(max_examples=200, deadline=None)
@given(signed_products())
@example(({(2, 1): 1, (3,): -2}, 2, 0, 3))     # d = 0: the terms themselves
@example(({(4,): 1, (2,): 3}, 3, 2, 1))        # one variable
@example(({(): 1}, 2, 3, 4))                   # lam = ()
@example(({(2, 1): 2, (1, 1, 1): -1}, 5, 3, 3))  # k > n: one bead a runner
@example(({(3, 1): 1, (2, 2): -1}, 1, 2, 2))   # Pieri with truncation
@example(({(3, 2, 1): 1, (2, 2, 2): -1}, 1, 3, 3))  # Pieri, len(lam) == n
@example(({(3, 3, 3, 1): 2, (2, 2): 1}, 1, 2, 6))   # Pieri, fixed rows
@example(({(): 1}, 1, 4, 3))                   # Pieri on lam = ()
@example(({(2, 1): 1, (3,): -2}, 1, 0, 3))     # Pieri, d = 0: the terms
def test_power_product_matches_pieri_and_alternant(case):
    # horizontal strips on the rows of lam (k = 1) and on the k-abacus
    # (k >= 2) against the two rules they replaced, on signed sums of
    # terms, so cancellation between the products of different lam shows
    # too
    terms, k, d, n = case
    got = _power_product(terms, k, d, n, DEFAULT_CONFIG)
    if k == 1:
        want = {mu: c for mu, c in
                _pieri_product(terms, d, n, DEFAULT_CONFIG).items() if c}
    else:
        want = _alternant_product(terms, k, list(monomials(d, n)), n,
                                  DEFAULT_CONFIG, 0)
    assert got == want
