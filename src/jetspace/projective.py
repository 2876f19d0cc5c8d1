"""Global differential operators between line bundle twists on projective space.

Sections of O(a) over the chart x_j != 0 are spanned by degree-a Laurent
monomials whose only negative exponent sits in slot j.  A homogeneous Weyl
element of x-degree b - a maps each such monomial to degree-b monomials that
are again chart sections, so it induces maps O(a) -> O(b) on every chart
simultaneously; for n >= 2 the space of global operators of order <= N is
the span of these induced maps (on P^1 it is larger, see below).
Concretely: rows of the action matrix are the candidate monomials
x^alpha d^beta with |beta| <= N and |alpha| - |beta| = b - a, and columns
are (test monomial, image monomial) coefficient slots over a finite test
set of chart monomials.

The structural rank deficiency comes from the Euler operator E = sum x_i d_i:
E - a annihilates every degree-a monomial, so phi (E - a) acts as zero for
every graded phi.  The dimension is therefore at most the candidate count
minus these relations, and at least the rank on any finite test set; on
a lattice of test rows per shift block, all inside one box, each block is
a product of two nonsingular triangular matrices, so the two meet.
Counted, the bound is C(N + n, n) C(N + b - a + n, n), the number of
candidates of exact order N, and no matrix is built: the counting lives in
dimensions (dimensions.do_dimensions has the proof) and is re-exported here.
On P^1 the span of the induced maps is smaller than the space of global
operators: no Weyl element induces d: O -> O(-2), so the count misses it.

Also here: induced maps on degree-0 and top Cech cohomology of the twists,
and the unipotent block construction pairing a twist with a shifted twist.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

# Modules, not names: reading projective executes neither laurent nor linalg
# until a function here first calls into them (see __init__).
from . import cohomology, laurent, linalg, weyl
from .dimensions import (  # noqa: F401 -- the counting names, read here as before
    NegativeTwistResult, TwistedDOSpace, _check_space, candidate_count, do_dimension,
    do_dimensions, global_do_dimension, negative_twist_existence)
from .errors import WORK_LIMIT  # noqa: F401 -- read as projective.WORK_LIMIT
from .errors import InconsistencyError, PreconditionError

# strings, so that defining the alias reads nothing from laurent
Candidate = tuple["laurent.Exponent", "laurent.Exponent"]

# induced_cohomology_map refuses a dense matrix with more cells than this
INDUCED_MAP_CELL_LIMIT = 10 ** 6

# BlockOperator.verify refuses an O(m) test set of more monomials than this
BLOCK_OP_TEST_LIMIT = 2 * 10 ** 5


def candidate_monomials(n: int, a: int, b: int, order: int) -> list[Candidate]:
    """All (alpha, beta) with |beta| <= N and |alpha| = |beta| + b - a,
    sorted by derivative order, then lexicographically on (beta, alpha)."""
    _check_space(n, order)
    nvars = n + 1
    out: list[Candidate] = []
    for k in range(max(0, a - b), order + 1):
        betas = laurent.monomials_of_degree(nvars, k)
        alphas = laurent.monomials_of_degree(nvars, k + b - a)
        for beta in betas:
            for alpha in alphas:
                out.append((alpha, beta))
    return out


def chart_test_monomials(n: int, a: int, box: int) -> list[laurent.Exponent]:
    """Degree-a Laurent monomials with at most one negative exponent and all
    exponents in [-box, box], sorted: the nonnegative ones, and those with
    one slot at -v for v = 1..box, both from laurent.monomials_of_degree
    with cap box."""
    if box < 0:
        raise PreconditionError("box must be nonnegative")
    out = laurent.monomials_of_degree(n + 1, a, box)
    for v in range(1, box + 1):
        for rest in laurent.monomials_of_degree(n, a + v, box):
            out += [(*rest[:j], -v, *rest[j:]) for j in range(n + 1)]
    return sorted(out)


def chart_test_count(n: int, a: int, box: int) -> int:
    """Closed form for len(chart_test_monomials(n, a, box)): O(n)
    binomials, whatever the box.

    The monomials with a slot at -v number (n + 1)·_bounded_count(n, a + v,
    box).  Summed over v = 1..box, inclusion-exclusion term i counts the
    n-tuples of total u = a + v - i·(box + 1) over u in [lower, upper],
    which is C(upper + n, n) - C(lower - 1 + n, n) by the hockey-stick
    identity."""
    if box < 0:
        raise PreconditionError("box must be nonnegative")
    shifted = 0
    for i in range(n + 1):
        upper = a + box - i * (box + 1)
        lower = max(0, a + 1 - i * (box + 1))
        if upper >= lower:
            shifted += (-1) ** i * comb(n, i) * (comb(upper + n, n) - comb(lower - 1 + n, n))
    return _bounded_count(n + 1, a, box) + (n + 1) * shifted


def _bounded_count(k: int, total: int, cap: int) -> int:
    """Number of k-tuples (k >= 1) of integers in [0, cap] summing to total,
    len(laurent.monomials_of_degree(k, total, cap)), by inclusion-exclusion
    over the entries that pass cap."""
    return sum((-1) ** i * comb(k, i) * comb(total - i * (cap + 1) + k - 1, k - 1)
               for i in range(k + 1) if total >= i * (cap + 1))


def action_matrix(candidates: list[Candidate],
                  testset: list[laurent.Exponent]) -> linalg.ExactMatrix:
    """Rows: candidates; columns: (test monomial, image monomial) slots."""
    ff_cache: dict[tuple[int, int], int] = {}
    col_index: dict[tuple[laurent.Exponent, laurent.Exponent], int] = {}
    entries: dict[tuple[int, int], Fraction] = {}
    for row, (alpha, beta) in enumerate(candidates):
        for gamma in testset:
            coeff = 1
            for g, bexp in zip(gamma, beta):
                if bexp:
                    key = (g, bexp)
                    ff = ff_cache.get(key)
                    if ff is None:
                        ff = weyl.falling(g, bexp)
                        ff_cache[key] = ff
                    coeff *= ff
                    if coeff == 0:
                        break
            if coeff == 0:
                continue
            image = tuple(g + x - d for g, x, d in zip(gamma, alpha, beta))
            slot = (gamma, image)
            j = col_index.get(slot)
            if j is None:
                j = len(col_index)
                col_index[slot] = j
            entries[(row, j)] = Fraction(coeff)
    return linalg.ExactMatrix(len(candidates), len(col_index), entries)


# ---- induced maps on cohomology ---------------------------------------


def h0_basis(n: int, k: int) -> list[laurent.Exponent]:
    """Monomial basis of the degree-0 cohomology of O(k)."""
    return laurent.monomials_of_degree(n + 1, k)


def hn_basis(n: int, k: int) -> list[laurent.Exponent]:
    """All-negative-exponent monomials of degree k (top Cech cohomology)."""
    inner = laurent.monomials_of_degree(n + 1, -k - (n + 1))
    return sorted(tuple(-1 - v for v in e) for e in inner)


def induced_cohomology_map(n: int, a: int, b: int, op: weyl.WeylElement,
                           i: int) -> linalg.ExactMatrix:
    """Matrix of the map induced by op on H^i of the twists, i in {0, n}.

    For i = n the image is projected back onto the all-negative monomial
    basis; monomials with a nonnegative exponent are coboundaries and are
    discarded.  A matrix of more than INDUCED_MAP_CELL_LIMIT cells, h^i(O(a))
    h^i(O(b)), is refused with PreconditionError before any work.
    """
    return _induced_map(n, a, b, op, i)[0]


def _induced_map(n: int, a: int, b: int, op: weyl.WeylElement, i: int
                 ) -> tuple[linalg.ExactMatrix, list, list]:
    """induced_cohomology_map's matrix with the source and target monomial
    bases that index its columns and rows, each built once."""
    if n < 1:
        raise PreconditionError("projective dimension must be >= 1")
    if op.nvars != n + 1:
        raise PreconditionError("operator has the wrong number of variables")
    if not op.is_graded_of_degree(b - a):
        raise PreconditionError(f"operator is not homogeneous of x-degree {b - a}")
    if i not in (0, n):
        raise PreconditionError("induced maps are available for i = 0 and i = n")
    line, basis = ((cohomology.h0_line, h0_basis) if i == 0
                   else (cohomology.hn_line, hn_basis))
    cells = line(n, a) * line(n, b)
    if cells > INDUCED_MAP_CELL_LIMIT:
        raise PreconditionError(
            f"the H^{i} map O({a}) -> O({b}) on P^{n} has {cells} matrix cells, "
            f"above the limit {INDUCED_MAP_CELL_LIMIT}")
    source, target = basis(n, a), basis(n, b)
    tgt_index = {e: r for r, e in enumerate(target)}
    entries: dict[tuple[int, int], Fraction] = {}
    for j, gamma in enumerate(source):
        for image, c in op.apply_monomial(gamma).items():
            row = tgt_index.get(image)
            if row is None:
                if i == n and max(image) >= 0:
                    continue
                raise InconsistencyError(
                    f"image monomial {image} escaped the H^{i} basis")
            entries[(row, j)] = c
    return linalg.ExactMatrix(len(target), len(source), entries), source, target


# ---- unipotent block operators ----------------------------------------


class BlockOperatorReport(NamedTuple):
    """What BlockOperator.verify finds.  The three identity fields are True
    for every D12, by apply_pair's definition (see verify); they stay
    because the block-op report prints them."""

    preserves_second_summand: bool
    identity_on_sub: bool
    identity_on_quotient: bool
    order: int
    order_witness: laurent.Exponent | None

    @property
    def ok(self) -> bool:
        return (self.preserves_second_summand and self.identity_on_sub
                and self.identity_on_quotient
                and (self.order == 0 or self.order_witness is not None))


class BlockOperator:
    """(s, t) |-> (s, D12 s + t) on pairs of sections of O(m) and O(d).

    Fixes the second summand pointwise and induces the identity on sub and
    quotient; everything nontrivial sits in the off-diagonal corner, so the
    operator order equals the order of D12 (0 when D12 = 0).
    """

    def __init__(self, n: int, m: int, d: int, d12: weyl.WeylElement):
        if n < 1:
            raise PreconditionError("projective dimension must be >= 1")
        if d12.nvars != n + 1:
            raise PreconditionError("D12 has the wrong number of variables")
        if not d12.is_graded_of_degree(d - m):
            raise PreconditionError(f"D12 must be homogeneous of x-degree {d - m}")
        self.n, self.m, self.d, self.d12 = n, m, d, d12

    def apply_pair(self, s: laurent.LaurentPoly,
                   t: laurent.LaurentPoly) -> tuple[laurent.LaurentPoly, laurent.LaurentPoly]:
        return s, self.d12.apply(s) + t

    def order(self) -> int:
        o = self.d12.order()
        return 0 if o is None else max(o, 0)

    def verify(self) -> BlockOperatorReport:
        """The order and its witness: the first chart monomial of O(m), in
        sorted order in the box order + |m| + |d| + 3, on which the top-order
        part of D12 acts nonzero (None if there is none, or D12 = 0).

        The three identities hold for every D12 by apply_pair's definition:
        apply_pair(0, t) = (0, D12 0 + t) = (0, t), so the operator fixes
        the second summand and is the identity on the sub O(d), and
        apply_pair(s, 0) has first entry s, the identity on the quotient
        O(m).  So only the witness is searched, and it stops at the first
        hit.  More than BLOCK_OP_TEST_LIMIT chart monomials of O(m) are
        refused with PreconditionError before any work.
        """
        order = self.order()
        box = order + abs(self.m) + abs(self.d) + 3
        tests = chart_test_count(self.n, self.m, box)
        if tests > BLOCK_OP_TEST_LIMIT:
            raise PreconditionError(
                f"the block operator O({self.m}) + O({self.d}) on P^{self.n} has "
                f"{tests} chart test monomials of O({self.m}) in box {box}, above "
                f"the limit {BLOCK_OP_TEST_LIMIT}")
        witness = None
        if not self.d12.is_zero():
            top = self.d12.order_part(order)
            witness = next((gamma for gamma in chart_test_monomials(self.n, self.m, box)
                            if top.apply_monomial(gamma)), None)
        return BlockOperatorReport(True, True, True, order, witness)


def block_operator(n: int, m: int, d: int, d12: weyl.WeylElement) -> BlockOperator:
    return BlockOperator(n=n, m=m, d=d, d12=d12)
