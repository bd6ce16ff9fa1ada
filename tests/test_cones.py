import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from veroschur import cones
from veroschur.characters import (complexity, schur_decompose,
                                  tensor_power_sym, total_multiplicity)
from veroschur.cones import (_at_level, _count_points, _section,
                             content_cone_section, duality_rows,
                             fit_leading_coefficient, lattice_count,
                             moment_fibres, shape_cone_section)
from veroschur.config import CapExceeded, RunConfig
from veroschur.partitions import (count_partitions, normalize, part,
                                  partitions_of)

from oracles import (RowContentMatrix, Unbounded, char_tensor_sym,
                     content_points_as_matrices, enumerate_slice, kostka,
                     matrix_to_tableau, moment_fibre_count, moment_map,
                     row_major_count, simplex_max, slice_maxima)


def test_shape_cone_small():
    cone = shape_cone_section(2)
    assert len(cone.upper_bounds) == 1
    assert cone.upper_bounds == (Fraction(1),)
    assert [lattice_count(cone, d) for d in (0, 1, 2, 5)] == [1, 2, 3, 6]


def test_content_cone_small():
    cone = content_cone_section(2)
    assert len(cone.upper_bounds) == 1
    assert [lattice_count(cone, d) for d in (0, 1, 2, 5)] == [1, 2, 3, 6]


def test_level_zero_is_origin():
    for p in (1, 2, 3, 4):
        assert lattice_count(shape_cone_section(p), 0) == 1
        assert lattice_count(content_cone_section(p), 0) == 1


def test_interior_points_are_strict():
    for p in (1, 2, 3, 4, 5):
        for cone in (shape_cone_section(p), content_cone_section(p)):
            slacks = cone.evaluate(cone.interior_point)
            assert all(s > 0 for s in slacks), cone.label
    # a point on the boundary certifies nothing
    with pytest.raises(ValueError, match="interior point fails"):
        _section("ray", [((1,), 0)], (Fraction(0),), (Fraction(1),))


def test_inequalities_are_integers():
    for p in (1, 2, 3, 4):
        for cone in (shape_cone_section(p), content_cone_section(p)):
            for coeffs, const in cone.inequalities:
                assert all(type(c) is int for c in coeffs + (const,))


def test_closed_form_bounds_match_lp():
    for p in range(1, 7):
        shapes = shape_cone_section(p)
        assert shapes.upper_bounds == slice_maxima(shapes)
        assert shapes.upper_bounds == tuple(Fraction(p, k)
                                            for k in range(2, p + 1))
        contents = content_cone_section(p)
        assert contents.upper_bounds == slice_maxima(contents)
        assert set(contents.upper_bounds) <= {1}


def test_unbounded_system_rejected():
    # maximize x over the open ray x >= 0
    with pytest.raises(Unbounded):
        simplex_max([1], [[-1]], [0])


def test_duality_with_characters():
    for p in (1, 2, 3):
        shapes = shape_cone_section(p)
        contents = content_cone_section(p)
        for d in (1, 2, 3, 4):
            e = schur_decompose(char_tensor_sym(p, d, p))
            assert lattice_count(shapes, d) == complexity(e) \
                == count_partitions(p * d, p)
            assert lattice_count(contents, d) == total_multiplicity(e)


def test_duality_rows_catch_a_wrong_cap(monkeypatch):
    rows = duality_rows(3, range(1, 5))
    assert [r.d for r in rows] == [1, 2, 3, 4]
    assert all(r.types_ok and r.multiplicity_ok for r in rows)
    assert [r.shape_count for r in rows] == \
        [count_partitions(3 * d, 3) for d in range(1, 5)]
    right = cones.content_cone_section

    def halved(p):
        cone = right(p)
        return cone._replace(
            upper_bounds=tuple(u / 2 for u in cone.upper_bounds))

    monkeypatch.setattr(cones, "content_cone_section", halved)
    rows = duality_rows(3, range(1, 5))
    assert all(r.types_ok for r in rows)
    assert not any(r.multiplicity_ok for r in rows)


def test_moment_map_examples():
    sup = RowContentMatrix.from_offdiag(3, 2, (0, 0, 0))
    assert moment_map(sup) == (2, 2, 2)
    single = RowContentMatrix.from_offdiag(2, 2, (2,))
    assert moment_map(single) == (0, 2)


def test_moment_map_matches_tableau_shape():
    for p, d in [(2, 3), (3, 2)]:
        for m in content_points_as_matrices(p, d):
            image = moment_map(m)
            shape = matrix_to_tableau(m).shape
            assert image[:-1] == tuple(shape[1:]) + (0,) * (p - len(shape))
            assert image[-1] == d


def test_moment_fibers_are_kostka():
    for p in (2, 3):
        for d in (1, 2, 3, 4, 5):
            fibers = {}
            for m in content_points_as_matrices(p, d):
                key = moment_map(m)
                fibers[key] = fibers.get(key, 0) + 1
            shape_points = {pt + (d,)
                            for pt in enumerate_slice(shape_cone_section(p), d)}
            assert set(fibers) == shape_points
            for key, size in fibers.items():
                lam = normalize((p * d - sum(key[:-1]),) + key[:-1])
                assert size == kostka(lam, (d,) * p)


def test_few_short_shapes():
    # the share of level-d shape points with an empty last row shrinks
    for p in (2, 3):
        cone = shape_cone_section(p)
        fractions = []
        for d in (2, 4, 6, 8):
            pts = list(enumerate_slice(cone, d))
            short = sum(1 for pt in pts if pt and pt[-1] == 0)
            fractions.append(Fraction(short, len(pts)))
        assert all(a > b for a, b in zip(fractions, fractions[1:]))


def brute_max_kostka(p, d):
    """Largest multiplicity of a Schur functor in the p-th tensor power of
    Sym^d, i.e. the largest Kostka number at weight (d^p), and a shape
    attaining it."""
    best, arg = 0, ()
    for lam in partitions_of(p * d, max_parts=p):
        k = kostka(lam, (d,) * p)
        if k > best:
            best, arg = k, lam
    return best, arg


def test_max_multiplicity():
    assert brute_max_kostka(2, 7)[0] == 1
    assert brute_max_kostka(1, 3)[0] == 1
    assert brute_max_kostka(3, 0)[0] == 1
    assert brute_max_kostka(3, 2) == (3, (4, 2))
    assert brute_max_kostka(4, 2)[0] == 8
    # the paper's bound max <= 3^C(p-1,2) * max(1, d^C(p-1,2))
    for p, d in [(p, d) for p in (2, 3) for d in (1, 2, 3)] + [(4, 2)]:
        e = comb(p - 1, 2)
        assert brute_max_kostka(p, d)[0] <= 3 ** e * max(1, d ** e)


def test_enumeration_node_cap():
    tiny = RunConfig(max_enum_nodes=3)
    with pytest.raises(CapExceeded):
        lattice_count(content_cone_section(3), 4, tiny)


def test_layer_cap_trips_as_the_layer_fills():
    # without a check per new state the level-12 count at p = 8 fills a
    # 118,329-state layer after 129,213 expanded states; here it stops at
    # the first state over the cap (about a second)
    cfg = RunConfig(max_table_entries=100_000, max_enum_nodes=250_000)
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as exc:
        lattice_count(content_cone_section(8), 12, cfg)
    assert time.perf_counter() - start < 10
    assert (exc.value.what, exc.value.setting, exc.value.needed) == \
        ("lattice count layer states", "max_table_entries", 100_001)
    assert "(max_table_entries)" in str(exc.value)


def test_count_expands_states_not_points():
    # enumerating the 44,288 points takes about 300,000 nodes; the DP
    # expands 1,101 states
    tight = RunConfig(max_enum_nodes=1_200)
    assert lattice_count(content_cone_section(6), 3, tight) == 44288
    with pytest.raises(CapExceeded) as exc:
        lattice_count(content_cone_section(6), 3, RunConfig(max_enum_nodes=1_000))
    assert exc.value.setting == "max_enum_nodes"


def test_column_order_keeps_layers_small():
    # the largest layer at p = 6, d = 4 holds 596 states in column order
    # and 16,045 in row-major order
    small = RunConfig(max_table_entries=1_000)
    assert lattice_count(content_cone_section(6), 4, small) == 478711


def test_counts_beyond_enumeration():
    contents = lattice_count(content_cone_section(6), 4)
    assert contents == 478711 == total_multiplicity(tensor_power_sym(6, 4, 6))
    assert lattice_count(shape_cone_section(4), 200) == count_partitions(800, 4)


# largest level per (section, p) at which enumeration stays cheap
ORACLE_LEVELS = {"shapes": {1: 12, 2: 12, 3: 12, 4: 12, 5: 10, 6: 6, 7: 6},
                 "contents": {1: 12, 2: 12, 3: 10, 4: 5, 5: 3}}
SECTIONS = {"shapes": shape_cone_section, "contents": content_cone_section}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_count_matches_enumeration(data):
    kind = data.draw(st.sampled_from(sorted(SECTIONS)))
    p = data.draw(st.sampled_from(sorted(ORACLE_LEVELS[kind])))
    level = data.draw(st.integers(0, ORACLE_LEVELS[kind][p]))
    cone = SECTIONS[kind](p)
    assert lattice_count(cone, level) == \
        sum(1 for _ in enumerate_slice(cone, level))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fibre_counts_match_listing(data):
    # each listed point is checked to be a tableau by RowContentMatrix,
    # and each fibre counted by the DP holds exactly the listed points
    # over its shape; together the fibres cover the section
    p = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(0, ORACLE_LEVELS["contents"][p]))
    listed: dict[tuple[int, ...], int] = {}
    for m in content_points_as_matrices(p, d):
        key = moment_map(m)
        listed[key] = listed.get(key, 0) + 1
    fibres = moment_fibres(p, d)
    counted = {tuple(part(lam, i) for i in range(1, p)) + (d,):
               fibres.get(lam, 0)
               for lam in partitions_of(p * d, max_parts=p)}
    assert counted == listed
    assert set(fibres) <= set(partitions_of(p * d, max_parts=p))
    assert sum(counted.values()) == lattice_count(content_cone_section(p), d)


# largest level per p at which the row-major count stays under about 0.1 s
ROW_MAJOR_LEVELS = {1: 20, 2: 20, 3: 20, 4: 12, 5: 5, 6: 3}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_column_order_matches_row_order(data):
    p = data.draw(st.sampled_from(sorted(ROW_MAJOR_LEVELS)))
    d = data.draw(st.integers(0, ROW_MAJOR_LEVELS[p]))
    assert lattice_count(content_cone_section(p), d) == row_major_count(p, d)


@settings(max_examples=20, deadline=None)
@given(p=st.integers(1, 4), d=st.integers(0, 4))
def test_fibres_sum_to_the_row_order_count(p, d):
    assert sum(moment_fibres(p, d).values()) == row_major_count(p, d)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fibres_match_pieri_and_per_shape_counts(data):
    p = data.draw(st.integers(1, 5))
    d = data.draw(st.integers(0, ORACLE_LEVELS["contents"][p]))
    fibres = moment_fibres(p, d)
    assert fibres == tensor_power_sym(p, d, p).terms
    assert {lam: moment_fibre_count(p, d, lam)
            for lam in partitions_of(p * d, max_parts=p)} == \
        {lam: fibres.get(lam, 0) for lam in partitions_of(p * d, max_parts=p)}


def test_fibre_pass_caps():
    # p = 6, d = 3: the fibre pass keeps five row sums in every key, so its
    # largest layer holds 553 states (the plain count's: 215) and it
    # expands 1,997 states (the plain count: 1,101)
    with pytest.raises(CapExceeded) as exc:
        moment_fibres(6, 3, RunConfig(max_table_entries=300))
    assert (exc.value.what, exc.value.needed) == \
        ("lattice count layer states", 301)
    with pytest.raises(CapExceeded) as exc:
        moment_fibres(6, 3, RunConfig(max_enum_nodes=1_500))
    assert exc.value.what == "lattice count states expanded"
    assert lattice_count(content_cone_section(6), 3,
                         RunConfig(max_table_entries=300,
                                   max_enum_nodes=1_500)) == 44288


@st.composite
def small_systems(draw):
    """A box [0, u_i * level] cut by a few random integer rows, some of
    them constant or sharing a prefix form; the box need not be tight."""
    dim = draw(st.integers(1, 4))
    row = st.tuples(st.tuples(*[st.integers(-2, 2)] * dim), st.integers(-1, 4))
    rows = draw(st.lists(row, min_size=0, max_size=6))
    bounds = tuple(Fraction(draw(st.integers(0, 6)), 2) for _ in range(dim))
    return cones.ConeCrossSection("random", tuple(rows),
                                  (Fraction(0),) * dim, bounds)


@settings(max_examples=150, deadline=None)
@given(cone=small_systems(), level=st.integers(0, 4))
# a constant row that fails empties the slice at every positive level
@example(cone=cones.ConeCrossSection("empty", (((0, 0), -1), ((1, -1), 0)),
                                     (Fraction(0),) * 2, (Fraction(1),) * 2),
         level=1)
def test_count_matches_enumeration_on_random_systems(cone, level):
    assert lattice_count(cone, level) == \
        sum(1 for _ in enumerate_slice(cone, level))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_output_forms_group_the_enumeration(data):
    cone = data.draw(small_systems())
    level = data.draw(st.integers(0, 4))
    form = st.tuples(*[st.integers(-2, 2)] * len(cone.upper_bounds)).filter(any)
    outputs = data.draw(st.lists(form, min_size=1, max_size=3, unique=True))
    grouped: dict[tuple[int, ...], int] = {}
    for x in enumerate_slice(cone, level):
        key = tuple(sum(c * v for c, v in zip(f, x)) for f in outputs)
        grouped[key] = grouped.get(key, 0) + 1
    assert _count_points(*_at_level(cone, level), RunConfig(), outputs) == \
        grouped


def test_fit_exact_polynomials():
    fit = fit_leading_coefficient([(d, d + 1) for d in range(1, 8)], 1)
    assert fit.estimate == 1 and fit.relative_change == 0
    fit = fit_leading_coefficient([(d, 7) for d in (1, 3, 9)], 0)
    assert fit.estimate == 7
    fit = fit_leading_coefficient([(d, 2 * d ** 3 - d + 5)
                                   for d in (2, 4, 6, 8, 10)], 3)
    assert fit.estimate == 2 and fit.relative_change == 0


def test_fit_requires_enough_samples():
    with pytest.raises(ValueError):
        fit_leading_coefficient([(1, 1), (2, 2)], 1)
    with pytest.raises(ValueError):
        fit_leading_coefficient([(1, 1), (1, 2), (2, 2)], 1)


def test_fit_content_cone_converges():
    cone = content_cone_section(3)
    samples = [(d, lattice_count(cone, d)) for d in range(4, 25, 4)]
    fit = fit_leading_coefficient(samples, 3)
    assert fit.estimate > 0
    wide = fit_leading_coefficient(samples[:5], 3)
    assert fit.relative_change <= wide.relative_change


def test_cone_labels():
    assert shape_cone_section(3).label == "shapes(p=3)"
    assert content_cone_section(3).label == "contents(p=3)"
