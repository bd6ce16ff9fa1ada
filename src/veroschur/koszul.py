"""Syzygy functors of Veronese embeddings via per-weight Koszul ranks.

The three-term complex for parameters (p, q, b, d) is

    wedge^{p+1} S^d (x) S^{(q-1)d+b}  ->  wedge^p S^d (x) S^{qd+b}
                                      ->  wedge^{p-1} S^d (x) S^{(q+1)d+b},

with the convention that a negative exterior or symmetric degree gives the
zero space.  The differential sends f_0 ^ ... ^ f_{k-1} (x) g to the
alternating sum of f_0 ^ ... f_i-hat ... (x) f_i g.  Everything is graded
by the torus, so cohomology is computed blockwise per dominant weight and
assembled into a character.  Each block's basis is enumerated directly at
its weight; the dominant weights come from the partitions of the total
degree with at most n parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le, sub
from typing import Iterator

from veroschur.characters import (SchurExpansion, Weight, WeightTable,
                                  char_sym_sym, monomials, schur_decompose)
from veroschur.config import DEFAULT_CONFIG, RunConfig
from veroschur.intrank import SparseCol, rank_sparse
from veroschur.partitions import add, partitions_of

Element = tuple[tuple[Weight, ...], Weight]  # (wedge tuple, symmetric factor)


@dataclass(frozen=True)
class KoszulSpec:
    """Parameters of one syzygy computation over C^n.

    n defaults to p + q + 1, which is faithful for the untwisted (b = 0)
    decompositions; for b > 0 the result is the length <= n truncation.
    """

    p: int
    q: int
    b: int
    d: int
    n: int = 0

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0 or self.b < 0:
            raise ValueError("p, q, b must be nonnegative")
        if self.d < 1:
            raise ValueError("d must be positive")
        if self.n == 0:
            object.__setattr__(self, "n", self.p + self.q + 1)
        if self.n < 1:
            raise ValueError("n must be positive")

    @property
    def total_degree(self) -> int:
        return (self.p + self.q) * self.d + self.b

    def term_parameters(self) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        """(wedge exponent, symmetric degree) for left, middle, right."""
        return ((self.p + 1, (self.q - 1) * self.d + self.b),
                (self.p, self.q * self.d + self.b),
                (self.p - 1, (self.q + 1) * self.d + self.b))

    def is_faithful(self) -> bool:
        # untwisted first-strand types have length <= p+1 (middle-term Pieri)
        if self.b != 0:
            return False
        if self.q == 1:
            return self.n >= self.p + 1
        return self.n >= self.p + self.q + 1


@dataclass(frozen=True)
class SparseIntMatrix:
    """Columns as {row: value}; shapes explicit so zero blocks are typed."""

    nrows: int
    ncols: int
    cols: tuple[SparseCol, ...]

    def rank(self) -> int:
        return rank_sparse(self.cols)


@dataclass
class KoszulBlock:
    """One dominant weight block of the complex."""

    weight: Weight
    dims: tuple[int, int, int]
    d_in: SparseIntMatrix
    d_out: SparseIntMatrix

    def cohomology_dim(self) -> int:
        dim = self.dims[1] - self.d_in.rank() - self.d_out.rank()
        if dim < 0:
            raise RuntimeError(f"negative cohomology at weight {self.weight}")
        return dim


def _elements_at_weight(k: int, e: int, d: int, n: int,
                        target: Weight) -> list[Element]:
    """Basis of wedge^k S^d (x) S^e at one (possibly non-dominant) weight.

    A depth-first search over wedge tuples in monomial order, using only
    the monomials that fit under target and pruning every prefix whose sum
    exceeds target in some coordinate; the symmetric factor is what is left.
    """
    if k < 0 or e < 0 or min(target) < 0 or sum(target) != k * d + e:
        return []
    monos = [m for m in monomials(d, n) if all(map(le, m, target))]
    out: list[Element] = []
    wedge: list[Weight] = []

    def extend(start: int, rest: Weight) -> None:
        if len(wedge) == k:
            out.append((tuple(wedge), rest))
            return
        for j in range(start, len(monos) - (k - len(wedge)) + 1):
            m = monos[j]
            if all(map(le, m, rest)):
                wedge.append(m)
                extend(j + 1, tuple(map(sub, rest, m)))
                wedge.pop()

    extend(0, tuple(target))
    return out


def _differential(sources: list[Element], targets: list[Element],
                  config: RunConfig) -> SparseIntMatrix:
    """Matrix of the Koszul differential from sources to targets."""
    config.check_matrix(max(len(sources), len(targets), 1))
    index = {el: i for i, el in enumerate(targets)}
    cols = []
    for wedge, g in sources:
        col: SparseCol = {}
        for i, f in enumerate(wedge):
            rest = wedge[:i] + wedge[i + 1:]
            prod = tuple(x + y for x, y in zip(f, g))
            row = index.get((rest, prod))
            if row is not None:
                col[row] = 1 if i % 2 == 0 else -1
        cols.append(col)
    return SparseIntMatrix(len(targets), len(sources), tuple(cols))


def block_at_weight(spec: KoszulSpec, weight: Weight,
                    config: RunConfig = DEFAULT_CONFIG) -> KoszulBlock:
    """Single block of the complex at an arbitrary weight vector."""
    left, mid, right = (_elements_at_weight(k, e, spec.d, spec.n, weight)
                        for k, e in spec.term_parameters())
    return KoszulBlock(weight, (len(left), len(mid), len(right)),
                       _differential(left, mid, config),
                       _differential(mid, right, config))


def build_blocks(spec: KoszulSpec,
                 config: RunConfig = DEFAULT_CONFIG) -> Iterator[KoszulBlock]:
    """One block per dominant weight of the middle term, decreasing lex.

    The running basis size of all three terms is checked against the
    table-entry cap.
    """
    basis = 0
    for lam in partitions_of(spec.total_degree, max_parts=spec.n):
        block = block_at_weight(spec, lam + (0,) * (spec.n - len(lam)), config)
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


def syzygy_decompose(spec: KoszulSpec,
                     config: RunConfig = DEFAULT_CONFIG) -> SchurExpansion:
    """Schur decomposition of the middle Koszul cohomology for spec."""
    return schur_decompose(cohomology_table(spec, config), config)


def green_vanishing_predicted(p: int, q: int, b: int, d: int) -> bool:
    """Classical vanishing for the untwisted case: true when q >= 2, d >= p."""
    if b != 0:
        raise ValueError("untwisted predicate requires b = 0; "
                         "see green_vanishing_predicted_twisted")
    return q >= 2 and d >= p


def green_vanishing_predicted_twisted(p: int, q: int, b: int, d: int) -> bool:
    """Conservative twisted variant: q >= 2 and d >= p + b.

    For b = 0 this agrees with green_vanishing_predicted; for b > 0 no
    sharp bound is asserted, only this sufficient one.
    """
    return q >= 2 and d >= p + b


def raicu_predicted_kp0(p: int, d: int, n: int,
                        config: RunConfig = DEFAULT_CONFIG) -> SchurExpansion:
    """Predicted decomposition of the (p+1)-st linear-strand kernel with
    twist 1: the decomposition of Sym^{p+1} Sym^{d-1} with every term
    shifted by a full column (1^{p+2})."""
    if n < p + 2:
        raise ValueError(f"need n >= {p + 2} to hold the shifted terms")
    if d < 2:
        raise ValueError("need d >= 2")
    base = schur_decompose(char_sym_sym(p + 1, d - 1, n, config), config)
    column = (1,) * (p + 2)
    shifted = {add(lam, column): c for lam, c in base.terms.items()}
    return SchurExpansion(n, (p + 1) * d + 1, shifted)
