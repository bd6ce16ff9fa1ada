import copy
import random
from fractions import Fraction

from hypothesis import given, strategies as st

from veroschur.intrank import rank_sparse

from oracles import rank_dense


def rank_fraction_oracle(rows):
    """Oracle: plain Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    rank = 0
    col = 0
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [v / pv for v in m[rank]]
        for r in range(nr):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def to_cols(rows):
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    return [{r: rows[r][c] for r in range(nr) if rows[r][c]}
            for c in range(nc)]


def test_known_ranks():
    ident = [[1, 0], [0, 1]]
    assert rank_dense(ident) == rank_sparse(to_cols(ident)) == 2
    sing = [[1, 2], [2, 4]]
    assert rank_dense(sing) == rank_sparse(to_cols(sing)) == 1
    zero = [[0, 0, 0], [0, 0, 0]]
    assert rank_dense(zero) == rank_sparse(to_cols(zero)) == 0
    assert rank_sparse([]) == 0
    # explicit zero entries are ignored
    assert rank_sparse([{0: 0, 1: 2}, {1: 0}, {0: 3, 1: 0}]) == 2


def test_rank_randomized_cross_check():
    rng = random.Random(7)
    for trial in range(200):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        density = rng.choice((0.2, 0.5, 0.9))
        rows = [[rng.randint(-4, 4) if rng.random() < density else 0
                 for _ in range(nc)] for _ in range(nr)]
        expect = rank_fraction_oracle(rows)
        assert rank_dense(rows) == expect
        assert rank_sparse(to_cols(rows)) == expect


def test_rank_structured_low_rank():
    rng = random.Random(11)
    for trial in range(50):
        nr, nc, k = 10, 12, rng.randint(1, 3)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nr)]
        right = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(k)]
        rows = [[sum(left[r][i] * right[i][c] for i in range(k))
                 for c in range(nc)] for r in range(nr)]
        expect = rank_fraction_oracle(rows)
        assert expect <= k
        assert rank_dense(rows) == expect
        assert rank_sparse(to_cols(rows)) == expect


NONZERO = [v for v in range(-4, 5) if v]


@st.composite
def sparse_matrices(draw):
    """(nrows, columns) from three families, up to 12 x 12."""
    nr = draw(st.integers(1, 12))
    nc = draw(st.integers(1, 12))
    family = draw(st.sampled_from(("entries", "signs", "combinations")))
    if family == "signs":
        # at most three +-1 entries per column, like a Koszul differential
        return nr, [{r: draw(st.sampled_from((1, -1)))
                     for r in draw(st.sets(st.integers(0, nr - 1),
                                           max_size=3))}
                    for _ in range(nc)]
    # entries in -4..4 with density about 0.2, 0.5 or 0.9
    zeros = draw(st.sampled_from((32, 8, 1)))
    entry = st.sampled_from([0] * zeros + NONZERO)
    base = nc if family == "entries" else draw(st.integers(1, nc))
    cols = [{r: v for r in range(nr) if (v := draw(entry))}
            for _ in range(base)]
    # the other columns are integer combinations of earlier ones
    for _ in range(nc - base):
        combo: dict[int, int] = {}
        for col in cols:
            k = draw(st.integers(-2, 2))
            for r, v in col.items():
                combo[r] = combo.get(r, 0) + k * v
        cols.append({r: v for r, v in combo.items() if v})
    return nr, cols


@given(sparse_matrices())
def test_rank_sparse_matches_dense_oracle(matrix):
    nr, cols = matrix
    rows = [[col.get(r, 0) for col in cols] for r in range(nr)]
    before = copy.deepcopy(cols)
    assert rank_sparse(cols) == rank_dense(rows)
    assert cols == before


@st.composite
def cleared_matrices(draw):
    """(nrows, columns, skip): each column in skip is an integer combination
    of the columns before it, skipped or not."""
    nr = draw(st.integers(1, 12))
    entry = st.sampled_from([0] * draw(st.sampled_from((8, 2))) + NONZERO)
    cols: list[dict[int, int]] = []
    skip = set()
    for j in range(draw(st.integers(1, 12))):
        if cols and draw(st.booleans()):
            combo: dict[int, int] = {}
            for col in cols:
                k = draw(st.integers(-2, 2))
                for r, v in col.items():
                    combo[r] = combo.get(r, 0) + k * v
            cols.append({r: v for r, v in combo.items() if v})
            skip.add(j)
        else:
            cols.append({r: v for r in range(nr) if (v := draw(entry))})
    return nr, cols, skip


@given(cleared_matrices())
def test_rank_sparse_skip_keeps_rank(matrix):
    nr, cols, skip = matrix
    rows = [[col.get(r, 0) for col in cols] for r in range(nr)]
    before = copy.deepcopy(cols)
    pivots: set[int] = set()
    assert rank_sparse(cols, skip=skip, pivots=pivots) == rank_dense(rows)
    assert cols == before
    # one pivot row per kept column, each a row of the matrix
    assert len(pivots) == rank_dense(rows)
    assert pivots <= set(range(nr))


def test_rank_non_unit_pivots_scale_in_place():
    # a kept vector is stored with a positive lead entry; here the leads
    # are negative or not units, so a step scales the working vector
    # before it subtracts, and the third 3 x 3 row reduces to zero only
    # after two such scalings
    for rows in ([[2, 3], [-4, 5]],
                 [[3, 3, 4], [-1, 1, -1], [-4, -2, -5]]):
        vecs = [{c: v for c, v in enumerate(row) if v} for row in rows]
        for given_vecs in (vecs, to_cols(rows)):
            before = copy.deepcopy(given_vecs)
            assert rank_sparse(given_vecs) == rank_dense(rows) == 2
            assert given_vecs == before


def test_rank_big_entries_exact():
    # entries engineered so float elimination would misjudge the rank
    big = 10 ** 30
    rows = [[big, big - 1], [big + 1, big]]
    det = big * big - (big - 1) * (big + 1)  # = 1
    assert det == 1
    assert rank_dense(rows) == 2
    assert rank_sparse(to_cols(rows)) == 2
