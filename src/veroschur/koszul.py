"""The Koszul complex of a Veronese embedding, block by weight, and its
cohomology by exact ranks: the basis search.

The three-term complex for a veroschur.syzygy.KoszulSpec (p, q, b, d) is

    wedge^{p+1} S^d (x) S^{(q-1)d+b}  ->  wedge^p S^d (x) S^{qd+b}
                                      ->  wedge^{p-1} S^d (x) S^{(q+1)d+b},

with the convention that a negative exterior or symmetric degree gives the
zero space.  The differential sends f_0 ^ ... ^ f_{k-1} (x) g to the
alternating sum of f_0 ^ ... f_i-hat ... (x) f_i g.  Everything is graded
by the torus, so cohomology is computed blockwise per dominant weight and
assembled into a character; the dominant weights come from the partitions
of the total degree with at most n parts.  veroschur.syzygy answers the
specs on Green's rules without this module, and calls cohomology_table
for every other spec; on the rules the search is the tests' oracle.

The complex is built over the Artinian quotient.  For 0 <= b < d the pure
powers x_1^d, ..., x_n^d lie in V = S^d and form a regular sequence on
M = (+)_j S^{jd+b}, the part of k[x] in degrees b mod d, which is free over
k[x_1^d, ..., x_n^d].  So by Green's hyperplane-section reduction (Green
1984, Koszul cohomology and the geometry of projective varieties) the same
torus-graded cohomology comes from wedge^k W (x) Mbar, where W is S^d
without the pure powers and Mbar = M / (x_i^d) M has every exponent below
d.  A product f_i g that leaves Mbar is zero.  Mbar vanishes above degree
n(d - 1), and no middle element has a coordinate above (p + 1)(d - 1), so
those specs and weights are skipped.  The same holds for every b >= 0:
the three symmetric degrees depend on (q, b) only through qd + b, and a
negative degree gives the zero space, so the specs (p, q, b, d, n) and
(p, q + b // d, b % d, d, n) have the same complex, basis for basis and
map for map, and the second has b % d < d.  (At q = 0 and b >= d the left
term S^{b-d} is not zero, so M is all of the degrees b mod d, not a
truncation of them.)

All three terms have the total degree (p+q)d+b, so at a weight w a
k-subset of wedge factors whose sum fits under w is one basis element of
the k-th exterior term when what is left, its symmetric factor, has every
exponent below d.  One depth-first search over increasing index tuples
into the wedge factors that fit under w, to depth p + 1, records all three
bases in lex order.  A node's state is packed into one int, two fields per
coordinate with a guard bit on top of each, so a test is one subtraction
and one mask.  The weight fixes the symmetric factor, so an element is
keyed by its index tuple alone, and term i of the differential lands in
the row of the tuple without its i-th index, if that is a basis element.
Each map is stored as its rows, one per target element, filled in one
pass over the sources.  The ranks are taken on those rows in the
cohomology direction: the rows of d_out are reduced first, and their
pivots clear rows of d_in (see veroschur.intrank).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from veroschur.characters import Weight, WeightTable
from veroschur.config import DEFAULT_CONFIG, RunConfig
from veroschur.intrank import SparseVec, rank_sparse
from veroschur.partitions import partitions_of, vectors_in_box
from veroschur.syzygy import KoszulSpec

Wedge = tuple[int, ...]  # increasing indices into the wedge factors
Levels = tuple[list[Wedge], list[Wedge], list[Wedge]]  # left, middle, right


class KoszulBlock(NamedTuple):
    """One dominant weight block of the complex; it validates nothing, so
    it is a NamedTuple, not a config.Record.

    d_in and d_out are their rows, one {column: value} per target element,
    with a column per source element: d_out is dims[2] x dims[1] and d_in
    dims[1] x dims[0], so a map with no rows is still typed by dims.
    """

    weight: Weight
    dims: tuple[int, int, int]
    d_in: tuple[SparseVec, ...]
    d_out: tuple[SparseVec, ...]

    def cohomology_dim(self) -> int:
        # ranks on rows, cleared in the cohomology direction: the pivot of
        # a kept row of d_out, its largest middle index, marks a row of d_in
        # that is a combination of the rows before it, so it is cleared
        # from the second reduction
        pivots: set[int] = set()
        dim = (self.dims[1] - rank_sparse(self.d_out, pivots=pivots)
               - rank_sparse(self.d_in, skip=pivots))
        if dim < 0:
            raise RuntimeError(f"negative cohomology at weight {self.weight}")
        return dim


def _levels(spec: KoszulSpec, weight: Weight, config: RunConfig,
            nodes: list[int] | None = None) -> Levels:
    """The left, middle and right bases at weight.

    Each basis element is a Wedge of indices into the wedge factors under
    the weight; its symmetric factor is weight minus their sum.  Every
    exponent of a factor is at most top = d - 1, so no pure power is a
    factor.  The factors are the degree-d vectors in the box
    min(weight, top), listed by vectors_in_box in decreasing lex order.
    One depth-first search over index tuples records the levels p + 1, p
    and p - 1, each in lex order.

    A node at depth k packs two fields per coordinate: its rest r_i and
    the slack s_i = (deepest - k + 1) * top - r_i.  Both are nonnegative
    exactly when the rest fits under the weight and the deepest - k
    factors still to come, each at most top, can bring it to top.  Taking
    a factor m subtracts m from r and top - m from s, so a child is tested
    by one subtraction and one mask of the guard bits; a node keeps the
    children after its last index that pass.  A node at the deepest level
    whose rest is the factor m is the guarded packed state of m.  A level
    is checked against max_matrix_dim as it grows, and the children of
    every expanded node count against max_enum_nodes in nodes[0], a count
    that the caller may carry over the weights of one spec.
    """
    if len(weight) != spec.n:
        raise ValueError(f"weight {weight} has {len(weight)} entries, "
                         f"need n = {spec.n}")
    top = spec.d - 1
    p = spec.p
    left_degree = spec.term_parameters()[0][1]
    empty: Levels = ([], [], [])
    if min(weight) < 0 or sum(weight) != spec.total_degree:
        return empty
    # no level p + 1 when the left term has a negative symmetric degree
    deepest = p + 1 if left_degree >= 0 else p
    lowest = max(p - 1, 0)
    slack = (deepest + 1) * top
    if max(weight) > slack:
        return empty
    # a field holds a rest or a slack under its guard bit
    width = max(max(weight), slack).bit_length() + 1
    guard = sum(1 << (i * width + width - 1) for i in range(2 * spec.n))

    def pack(rest: Weight, room: Weight) -> int:
        return sum(x << (i * width) for i, x in enumerate(rest + room))

    monos = vectors_in_box((0,) * spec.n, [min(x, top) for x in weight],
                           spec.d)
    packed = [pack(m, tuple(top - x for x in m)) for m in monos]
    # subtracting record[k] from a node at depth k leaves its guard bits
    # exactly when every coordinate of its rest is at most top
    zero = (0,) * spec.n
    record = [pack(zero, ((deepest - k) * top,) * spec.n)
              for k in range(deepest + 1)]
    levels: list[list[Wedge]] = [[] for _ in range(deepest + 1)]
    cap, node_cap = config.max_matrix_dim, config.max_enum_nodes
    count = [0] if nodes is None else nodes

    def extend(prefix: Wedge, node: int, cands: list[int]) -> None:
        # node is the guarded packed state of prefix; cands its children
        count[0] += len(cands)
        if count[0] > node_cap:
            config.check_nodes(count[0], "Koszul search nodes")
        depth = len(prefix) + 1
        out = levels[depth]
        if depth == deepest:
            # at the deepest level a child that passes is kept
            out += [prefix + (j,) for j in cands]
        else:
            keep = record[depth] if depth >= lowest else None
            for i, j in enumerate(cands):
                wedge = prefix + (j,)
                child = node - packed[j]
                if keep is not None and (child - keep) & guard == guard:
                    out.append(wedge)
                fits = [k for k in cands[i + 1:]
                        if (child - packed[k]) & guard == guard]
                if fits:
                    extend(wedge, child, fits)
        if len(out) > cap:
            config.check_matrix(cap + 1)

    root = pack(weight, tuple(slack - x for x in weight)) | guard
    if (root - record[0]) & guard == guard:
        levels[0].append(())
    if deepest:
        extend((), root, [j for j, m in enumerate(packed)
                          if (root - m) & guard == guard])
    return (levels[p + 1] if deepest > p else [], levels[p],
            levels[p - 1] if p else [])


def _differential(sources: list[Wedge],
                  targets: list[Wedge]) -> tuple[SparseVec, ...]:
    """The rows of the Koszul differential from sources to targets, one
    {source index: sign} per target; the caller's dims give its shape.

    Term i of a source drops its i-th index with sign (-1)^i.  The face
    lies under the same weight, but its symmetric factor gained the
    dropped monomial; when that takes an exponent to d or above the
    product is zero in the quotient, the face is not a target, and the
    term is dropped.
    """
    index = {wedge: i for i, wedge in enumerate(targets)}
    get = index.get
    k = len(sources[0]) if sources else 0
    terms = [(i, -1 if i % 2 else 1) for i in range(k)]
    rows: list[SparseVec] = [{} for _ in targets]
    for j, w in enumerate(sources):
        for i, sign in terms:
            row = get(w[:i] + w[i + 1:])
            if row is not None:
                rows[row][j] = sign
    return tuple(rows)


def block_at_weight(spec: KoszulSpec, weight: Weight,
                    config: RunConfig = DEFAULT_CONFIG,
                    nodes: list[int] | None = None) -> KoszulBlock:
    """Single block of the complex at any weight vector of length n; its
    search nodes add to nodes[0] when given (see _levels)."""
    left, mid, right = _levels(spec, weight, config, nodes)
    return KoszulBlock(weight, (len(left), len(mid), len(right)),
                       _differential(left, mid), _differential(mid, right))


def _weights(spec: KoszulSpec) -> Iterator[Weight]:
    """Dominant weights of length n where the middle term can be nonzero,
    in decreasing lex order.

    A middle element has p wedge factors and a symmetric factor of degree
    qd + b, each with every exponent at most top = d - 1.  So there is
    none when qd + b > n * top, and none at a weight with a coordinate
    above (p + 1) * top.
    """
    top = spec.d - 1
    if spec.term_parameters()[1][1] > spec.n * top:
        return
    for lam in partitions_of(spec.total_degree, max_parts=spec.n):
        if not lam or lam[0] <= (spec.p + 1) * top:
            yield lam + (0,) * (spec.n - len(lam))


def build_blocks(spec: KoszulSpec,
                 config: RunConfig = DEFAULT_CONFIG) -> Iterator[KoszulBlock]:
    """One block per dominant weight with a nonzero middle term, in
    decreasing lex order.

    The running basis size of all three terms is checked against the
    table-entry cap, and the search nodes of all weights against the
    node cap.
    """
    basis, nodes = 0, [0]
    for weight in _weights(spec):
        block = block_at_weight(spec, weight, config, nodes)
        if block.dims[1]:
            basis += sum(block.dims)
            config.check_table(basis, "Koszul basis elements")
            yield block


def cohomology_table(spec: KoszulSpec,
                     config: RunConfig = DEFAULT_CONFIG) -> WeightTable:
    """Character of the middle cohomology on dominant weights."""
    entries = {}
    for block in build_blocks(spec, config):
        dim = block.cohomology_dim()
        if dim:
            entries[block.weight] = dim
    return WeightTable(spec.n, spec.total_degree, entries)
