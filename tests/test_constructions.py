from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from veroschur.characters import (schur_decompose, sym_power_sym,
                                  total_multiplicity, wedge_power_sym)
from veroschur.constructions import (_single_wedge, almost_triplet_census,
                                     doubled_plethysm_check, first_strip_chain,
                                     h0_projective, max_n_green, mold,
                                     newell_check, remove_visible_boxes,
                                     sample_staircase_inputs,
                                     staircase_exponents, staircase_membership,
                                     twin_pattern_count_closed,
                                     twin_pattern_enumerate)
from veroschur.partitions import dominates, partitions_of
from veroschur.verify import EXPERIMENTS, ratio_check, ratio_counts

from oracles import (char_sym_sym, char_tensor_sym, char_wedge_sym,
                     has_twin_pattern, horizontal_strips_down, kostka,
                     strip_chain, strip_chains, twin_expand)


def test_newell_small():
    for p in (1, 2, 3):
        for d in (1, 2, 3, 4):
            assert not newell_check(p, d), (p, d)


def test_newell_p2_d2_shift_values():
    # Sym^2 Sym^2 = {(4), (2,2)} matches wedge^2 Sym^3 = {(5,1), (3,3)}
    assert sym_power_sym(2, 2, 2).terms == {(4,): 1, (2, 2): 1}
    assert wedge_power_sym(2, 3, 2).terms == {(5, 1): 1, (3, 3): 1}


def test_doubling_small():
    for p in (1, 2, 3):
        for d in (1, 2, 3):
            assert not doubled_plethysm_check(p, d), (p, d)


def test_remove_visible_boxes():
    assert remove_visible_boxes((3, 3, 2), 2) == (3, 2, 1)
    assert remove_visible_boxes((5,), 5) == ()
    assert remove_visible_boxes((2, 2), 1) == (2, 1)
    with pytest.raises(ValueError):
        remove_visible_boxes((2, 1), 3)


def test_remove_visible_boxes_is_strip():
    # removal is a horizontal strip: adding it back via the strip rule
    # always recovers the original partition
    from oracles import pieri
    for lam in partitions_of(8):
        for k in range(1, lam[0] + 1):
            smaller = remove_visible_boxes(lam, k)
            assert lam in pieri(smaller, k)


def test_staircase_exponents_examples():
    es = staircase_exponents((2, 1, 1), 0, 1)  # L0 = 3
    assert es == (2, 1) and sum(es) == 3
    es = staircase_exponents((13,), 0, 2)  # L0 = 12
    assert es == (5, 4, 3) and sum(es) == 12
    with pytest.raises(ValueError):
        staircase_exponents((2,), 0, 2)  # L0 = 1 below staircase minimum


def test_staircase_exponents_always_exact():
    for p in (1, 2, 3, 4):
        for total in range(p * (p + 1) // 2, 120):
            es = staircase_exponents((total + 1,), 0, p)
            assert len(es) == p + 1
            assert sum(es) == total
            assert all(es[i] > es[i + 1] for i in range(p))
            assert es[-1] >= 0


def test_staircase_membership_example():
    res = staircase_membership((4, 2), 0, 1, 4, 3)
    assert res.verdict == "constructed"
    assert res.chain[-1] == (4, 2)
    # chain builds by horizontal strips of the advertised sizes
    sizes = [e for e in (1,) + res.exponents if e > 0]
    prev = ()
    from oracles import pieri
    for shape, size in zip(res.chain, sizes):
        assert shape in pieri(prev, size)
        prev = shape


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=6), st.integers(0, 10 ** 4))
# zero sizes, with and without a chain, and a weight that lam does not
# dominate
@example(sizes=[2, 0, 2], pick=2)
@example(sizes=[0, 2, 0], pick=1)
@example(sizes=[2, 2], pick=4)
def test_greedy_strip_chain_matches_oracles(sizes, pick):
    # the greedy chain is the first of all chains and the one that the
    # backtracking search finds; there is none exactly when the Kostka
    # number vanishes
    shapes = list(partitions_of(sum(sizes)))
    lam = shapes[pick % len(shapes)]
    first = first_strip_chain(lam, sizes)
    assert first == next(strip_chains(lam, sizes), None) == \
        strip_chain(lam, tuple(sizes))
    assert (first is None) == (kostka(lam, sizes) == 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 14).flatmap(lambda n: st.tuples(
    st.sampled_from(tuple(partitions_of(n))), st.integers(0, n))))
def test_peeled_strip_is_first_and_dominates_the_others(case):
    # the lemma behind the chain: peeling k boxes bottom row first leaves
    # the first shape that the strip listing gives, and that shape
    # dominates every other one.  Single boxes then complete any shape, so
    # the chain is None exactly when no strip of k boxes exists
    lam, k = case
    strips = horizontal_strips_down(lam, k)
    chain = first_strip_chain(lam, (1,) * (sum(lam) - k) + (k,))
    if not strips:
        assert chain is None
        return
    peeled = (((),) + chain)[-2]
    assert peeled == strips[0]
    assert all(dominates(peeled, nu) for nu in strips)


def test_first_strip_chain_examples():
    assert first_strip_chain((2, 1), (1, 1, 1)) == ((1,), (2,), (2, 1))
    assert first_strip_chain((2,), (0, 2, 0)) == ((), (2,), (2,))
    assert first_strip_chain((1, 1), (2,)) is None
    assert first_strip_chain((), ()) == ()
    with pytest.raises(ValueError):
        first_strip_chain((2,), (3,))
    with pytest.raises(ValueError):
        first_strip_chain((1,), (2, -1))


def test_staircase_membership_verdicts():
    with pytest.raises(ValueError):
        staircase_membership((4, 2), 3, 1, 9, 3)  # last part not > b+1
    res = staircase_membership((9, 8, 7), 0, 1, 30, 4)
    assert res.verdict == "conditions-fail"  # length 3 needs e-sums too deep


def test_staircase_random_suite():
    samples = sample_staircase_inputs(100, seed=20240)
    assert len(samples) == 100
    for lam, b, p, d, n in samples:
        res = staircase_membership(lam, b, p, d, n)
        es = res.exponents
        assert sum(es) == sum(lam) - (b + 1)
        assert all(es[i] > es[i + 1] for i in range(len(es) - 1))
        assert res.verdict in ("constructed", "conditions-fail")
        if res.verdict == "constructed":
            assert res.chain[-1] == lam
    # the sampler is deterministic
    again = sample_staircase_inputs(100, seed=20240)
    assert again == samples


def test_membership_agrees_with_kostka_positivity():
    # conditions-pass inputs are exactly those whose trimmed partition
    # dominates the staircase, so membership must match Kostka positivity
    for lam, b, p, d, n in sample_staircase_inputs(40, seed=5):
        res = staircase_membership(lam, b, p, d, n)
        weight = tuple(sorted((b + 1,) + res.exponents, reverse=True))
        weight = tuple(v for v in weight if v)
        if res.verdict == "constructed":
            assert kostka(lam, weight) > 0


def test_h0_and_max_n_green():
    assert h0_projective(2, 3) == 4
    assert h0_projective(3, 2) == 6
    assert max_n_green(5, 1, 1, 9) == 3
    assert max_n_green(3, 1, 1, 12) == 2
    with pytest.raises(ValueError):
        max_n_green(1, 2, 1, 5)
    # degree 0 has h0 = 1 for every n: an error, not an endless search
    with pytest.raises(ValueError, match="at least 1, got 0"):
        max_n_green(1, 0, 0, 1)


@given(b=st.integers(0, 5), extra=st.integers(0, 58), d=st.integers(1, 30))
@example(b=1, extra=2, d=5)  # max_n_green(4, 1, 1, 5) == 2
def test_max_n_green_is_largest_and_root_bounded(b, extra, d):
    p = b + 1 + extra  # p >= b + 1, so n = 2 qualifies
    n = max_n_green(p, b, 1, d)
    assert n >= 2
    assert p + 1 >= h0_projective(n, b + 1)
    assert p + 1 < h0_projective(n + 1, b + 1)
    # h0 = C(n+b, b+1) >= n^(b+1)/(b+1)!, so the root is an upper bound
    assert n ** (b + 1) <= (p + 1) * factorial(b + 1)


def test_twin_pattern_predicate_and_expand():
    assert has_twin_pattern((4, 4, 2, 2), 5)
    assert not has_twin_pattern((4, 3, 2, 2), 5)
    assert has_twin_pattern((4, 4, 2, 2, 2), 6)  # odd length ends in a triple
    assert not has_twin_pattern((4, 4, 3, 2, 2), 6)
    assert twin_expand(4, (2,), 5) == (4, 4, 2, 2)
    assert twin_expand(4, (2,), 6) == (4, 4, 2, 2, 2)


def test_twin_census_closed_form_equals_enumeration():
    for d in range(5, 31):
        assert twin_pattern_count_closed(3, 1, d) == \
            twin_pattern_enumerate(3, 1, d)
    # regimes with the full pattern machinery: n = 5 at p = 14 and n = 6 at
    # p = 20, where the enumeration lists lam and takes no range from the
    # closed form
    for p, d in ((14, 10), (14, 13), (14, 16), (20, 12), (20, 16)):
        assert twin_pattern_count_closed(p, 1, d) == \
            twin_pattern_enumerate(p, 1, d)


def test_mold():
    assert mold((5, 3, 3, 1, 1, 1)) == (2, 2, 2)
    assert mold((1, 1, 1)) == ()
    assert mold((3, 2, 2)) == (1, 1, 1)
    with pytest.raises(ValueError):
        mold((5, 3, 2, 1, 1, 1))  # pair group broken
    with pytest.raises(ValueError):
        mold((3, 2))  # reduced length 2 not divisible by 3


def test_almost_triplet_census():
    rep = almost_triplet_census(6, 1, 7, 9)
    assert rep.molds == rep.partitions > 0
    counts = {}
    for n in (7, 10, 13):
        p = n - 1
        d = max(p + 2, 3 * ((p + 1) // (n - 3)) + 3)
        counts[n] = almost_triplet_census(p, 1, n, d).molds
    assert counts[7] < counts[10] < counts[13]
    with pytest.raises(ValueError):
        almost_triplet_census(6, 1, 8, 20)  # n > p+1
    with pytest.raises(ValueError):
        almost_triplet_census(9, 1, 10, 6)  # d below the census bound


def test_almost_triplet_multi_wedge():
    # d < p + 2, and d >= p + 2 with a non-integral triple size: both reach
    # the blocked construction from the inputs alone
    for p, b, n, d in ((9, 1, 10, 10), (4, 1, 5, 11)):
        assert _single_wedge(p, b, n, d) is None, (p, n, d)
        rep = almost_triplet_census(p, b, n, d)
        assert rep.molds == rep.partitions > 0


def test_almost_triplet_route_follows_applicability():
    # single-wedge exactly when d >= p + 2 and 6 | (n-1)(d-r-1-eps)
    routes = set()
    for p in range(4, 10):
        for n in range(4, p + 2):
            for d in range(3 * ((p + 1) // (n - 3)) + 3, 24):
                r = next(r for r in (1, 2, 3) if (d - r) % 3 == 1)
                eps = (d - r - 1) % 2
                single = d >= p + 2 and (n - 1) * (d - r - 1 - eps) % 6 == 0
                try:
                    rep = almost_triplet_census(p, 1, n, d)
                except ValueError:
                    assert not single, (p, n, d)
                    continue
                path = ("multi-wedge" if _single_wedge(p, 1, n, d) is None
                        else "single-wedge")
                assert path == ("single-wedge" if single else "multi-wedge"), \
                    (p, n, d)
                assert rep.molds == rep.partitions
                routes.add(path)
    assert routes == {"single-wedge", "multi-wedge"}


def test_twin_patterns_separate_in_columns():
    # distinct twin-pattern partitions of the same length differ by at
    # least two boxes in some column, the separation the branching rule
    # needs
    from veroschur.partitions import conjugate
    n = 5
    members = []
    for lam1 in range(1, 7):
        for free in range(1, lam1 + 1):
            members.append(twin_expand(lam1, (free,), n))
    members = sorted(set(members))
    for i, a in enumerate(members):
        ca = conjugate(a)
        for b in members[i + 1:]:
            cb = conjugate(b)
            width = max(len(ca), len(cb))
            diffs = [abs((ca[j] if j < len(ca) else 0) -
                         (cb[j] if j < len(cb) else 0)) for j in range(width)]
            assert max(diffs) >= 2, (a, b)


def test_census_members_satisfy_membership():
    # sampled twin-census members really occur: run them through the
    # staircase membership oracle at a large enough d
    p, b = 14, 1
    d = 40
    from veroschur.constructions import _twin_bounds
    lo, hi, upper = _twin_bounds(p, b, d, 5)
    lam1 = lo + 2
    top = min(upper(lam1), lam1)
    assert top >= lo
    lam = twin_expand(lam1, (lo,), 5)
    res = staircase_membership(lam, b, p, d, 5)
    assert res.verdict == "constructed"


def test_ratio_experiment_tables():
    limit, pairs = ratio_counts("sym-vs-wedge", {"p": 2}, (10, 20))
    assert limit == 1
    assert list(pairs) == [10, 20]
    # the verdict reports the ratio of the pair at the largest level
    check = ratio_check("c", "sym-vs-wedge", {"p": 2}, (10, 20), Fraction(1))
    assert check.detail.startswith(f"ratio {Fraction(*pairs[20])} vs limit 1,")
    limit, _ = ratio_counts("twist-total", {"p": 2, "b": 1}, (12,))
    assert limit == comb(3, 2)
    limit, _ = ratio_counts("twist-types", {"p": 2, "b": 2}, (12,))
    assert limit == 3
    # an unknown name lists the experiments in sorted order
    with pytest.raises(ValueError, match=", ".join(sorted(EXPERIMENTS)) + "$"):
        ratio_counts("nope", {}, (3,))
    with pytest.raises(ValueError, match=r"does not take parameter\(s\) b$"):
        ratio_counts("sym-vs-wedge", {"p": 2, "b": 1}, (3,))


def test_ratio_experiment_schur_share():
    limit, pairs = ratio_counts("schur-share", {"p": 3, "mu": (2, 1)}, (4, 6))
    assert limit == Fraction(2, 6)
    # mixed-component count agrees with direct subtraction of the
    # decomposed weight tables
    for d, (num, den) in pairs.items():
        nt = total_multiplicity(schur_decompose(char_tensor_sym(3, d, 3)))
        ns = total_multiplicity(schur_decompose(char_sym_sym(3, d, 3)))
        nw = total_multiplicity(schur_decompose(char_wedge_sym(3, d, 3)))
        assert num == (nt - ns - nw) // 2
        assert den == nt


def test_ratio_experiment_syzygy_share():
    limit, pairs = ratio_counts("syzygy-share", {"p": 1}, (4, 8))
    assert limit == Fraction(1, 2)
    assert [num for num, _ in pairs.values()] == [2, 4]  # floor(d/2)
    assert [den for _, den in pairs.values()] == [5, 9]  # d + 1
