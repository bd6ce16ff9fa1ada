"""Syzygy functors of Veronese embeddings, by theorem where one applies.

K_{p,q}(b; d) is the middle cohomology of the three-term Koszul complex

    wedge^{p+1} S^d (x) S^{(q-1)d+b}  ->  wedge^p S^d (x) S^{qd+b}
                                      ->  wedge^{p-1} S^d (x) S^{(q+1)d+b}

that veroschur.koszul builds.  syzygy_decompose answers by theorem where
one applies, and searches bases only elsewhere.  It folds the spec first
to q' = q + b // d and b' = b % d, which gives the same complex (see
veroschur.koszul).  Two vanishing facts hold for b' = 0 (Green 1984;
Eisenbud, The Geometry of Syzygies, ch. 2): K_{p,0} = 0 for p >= 1, since
the section ring is generated in degree 0, and Green's theorem
K_{p,q} = 0 for q >= 2 and p <= d (green_vanishing_predicted).  Strand m
of the Koszul complex, the terms wedge^k S^d (x) S^{(m-k)d+b} for
k = 0..m, is a finite complex whose cohomology at term k is
K_{k,m-k}(b; d), so its Euler characteristic is

    sum over k = 0..m of (-1)^k [wedge^k S^d (x) S^{(m-k)d+b}]
        = sum over k = 0..m of (-1)^k [K_{k,m-k}(b; d)]

(strand_euler_characteristic computes the left side).  So with b' = 0,
q' >= 2 and d >= p the expansion is empty, and with b' = 0, q' = 1 and
d >= p - 1 every other entry of strand p + 1 vanishes, K_{p+1,0} by the
first fact and K_{k,p+1-k}, k <= p - 1 <= d, by Green's, and K_{p,1} is
(-1)^p times the left side.  Every other spec (b' > 0, q' = 0, or q' = 1
with d < p - 1, or q' >= 2 with d < p) runs the basis search of
veroschur.koszul, which stays the tests' oracle on the rules.  A process
whose specs are all on the rules imports neither koszul nor intrank.
"""

from __future__ import annotations

from math import comb

from veroschur.characters import (NotACharacter, SchurExpansion,
                                  _power_product, newton_powers,
                                  schur_decompose, sym_power_sym)
from veroschur.config import DEFAULT_CONFIG, Record, RunConfig
from veroschur.partitions import Partition, add, gl_dimension


class KoszulSpec(Record):
    """Parameters of one syzygy computation over C^n, validated here.

    n defaults to p + q + 1.  A spec folds to q' = q + b // d and
    b' = b % d with the same complex (see the module docstring); with
    b' = 0 the result is faithful when n >= p + 1 for q' = 1 and
    n >= p + q' + 1 otherwise, and with b' > 0 it is the length <= n
    truncation.
    """

    __slots__ = ("p", "q", "b", "d", "n")

    def __init__(self, p: int, q: int, b: int, d: int, n: int = 0) -> None:
        if p < 0 or q < 0 or b < 0:
            raise ValueError("p, q, b must be nonnegative")
        if d < 1:
            raise ValueError("d must be positive")
        if n == 0:
            n = p + q + 1
        if n < 1:
            raise ValueError("n must be positive")
        self._freeze(p, q, b, d, n)

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
        if self.b % self.d:
            return False
        q = self.q + self.b // self.d
        if q == 1:
            return self.n >= self.p + 1
        return self.n >= self.p + q + 1


def strand_euler_characteristic(m: int, b: int, d: int, n: int,
                                config: RunConfig = DEFAULT_CONFIG
                                ) -> dict[Partition, int]:
    """The signed Schur terms of the Euler characteristic of strand m,

        sum over k = 0..m of (-1)^k [wedge^k S^d (x) S^{(m-k)d+b}],

    over GL_n, m >= 1.  One Newton loop gives e_0[h_d], ..., e_m[h_d]
    (characters.newton_powers, with its caps and checks), and each is
    multiplied by h_{(m-k)d+b} by the Pieri rule, whose terms count as
    "Schur terms" on top of the stored powers, as in the loop.  The
    dimension of the sum is checked against the sum over k of
    (-1)^k C(N, k) C(n-1+(m-k)d+b, n-1), N = C(n+d-1, d).  For
    0 <= b < d it is the sum over k of (-1)^k [K_{k,m-k}(b; d)] (see the
    module docstring)."""
    powers = newton_powers(m, d, n, True, config)
    held = sum(map(len, powers))
    total: dict[Partition, int] = {}
    for k, e_k in enumerate(powers):
        step = _power_product(e_k, 1, (m - k) * d + b, n, config,
                              held + len(total))
        sign = -1 if k % 2 else 1
        for lam, c in step.items():
            total[lam] = total.get(lam, 0) + sign * c
    terms = {lam: c for lam, c in total.items() if c}
    monos = comb(n + d - 1, d)
    want = sum((-1) ** k * comb(monos, k)
               * comb((m - k) * d + b + n - 1, n - 1) for k in range(m + 1))
    dim = sum(c * gl_dimension(lam, n) for lam, c in terms.items())
    if dim != want:
        raise NotACharacter(f"strand dimension {dim}, expected {want}")
    return terms


def syzygy_decompose(spec: KoszulSpec,
                     config: RunConfig = DEFAULT_CONFIG) -> SchurExpansion:
    """Schur decomposition of the middle Koszul cohomology for spec: by
    theorem on the two rules of the module docstring, the empty expansion
    or (-1)^p times the Euler characteristic of strand p + 1 (a negative
    multiplicity raises NotACharacter), and by the basis search elsewhere.
    """
    p, d, n = spec.p, spec.d, spec.n
    q = spec.q + spec.b // d
    if spec.b % d == 0:
        if green_vanishing_predicted(p, q, d):
            return SchurExpansion(n, spec.total_degree)
        if q == 1 and d >= p - 1:
            euler = strand_euler_characteristic(p + 1, 0, d, n, config)
            terms = {lam: (-1) ** p * c for lam, c in euler.items()}
            for lam, c in terms.items():
                if c < 0:
                    raise NotACharacter(f"negative multiplicity {c} at {lam}")
            return SchurExpansion(n, spec.total_degree, terms)
    from veroschur.koszul import cohomology_table

    return schur_decompose(cohomology_table(spec, config), config)


def green_vanishing_predicted(p: int, q: int, d: int) -> bool:
    """Green's vanishing K_{p,q} = 0 for the untwisted case (b = 0): true
    when q >= 2 and d >= p (Green 1984)."""
    return q >= 2 and d >= p


def raicu_predicted_kp0(p: int, d: int, n: int,
                        config: RunConfig = DEFAULT_CONFIG) -> SchurExpansion:
    """Predicted decomposition of the (p+1)-st linear-strand kernel with
    twist 1: the decomposition of Sym^{p+1} Sym^{d-1} with every term
    shifted by a full column (1^{p+2})."""
    if n < p + 2:
        raise ValueError(f"need n >= {p + 2} to hold the shifted terms")
    if d < 2:
        raise ValueError("need d >= 2")
    base = sym_power_sym(p + 1, d - 1, n, config)
    column = (1,) * (p + 2)
    shifted = {add(lam, column): c for lam, c in base.terms.items()}
    return SchurExpansion(n, (p + 1) * d + 1, shifted)
