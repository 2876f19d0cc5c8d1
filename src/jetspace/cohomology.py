"""Cohomology of line bundles and symmetric tangent twists on projective space.

Line bundles O(k) on P^n have cohomology concentrated in degrees 0 and n:
h^0 counts degree-k monomials in the n+1 homogeneous coordinates, h^n counts
degree-k Laurent monomials with every exponent negative (the top Cech cell
of the standard cover), and everything in between vanishes.  Both counting
descriptions are implemented: closed binomial forms, and a direct monomial
enumeration used as an independent cross-check at desk scale.

Twists of symmetric tangent powers are handled through the two-step
resolution  Sym^(k-1)V (j+k-1) -> Sym^k V (j+k) -> Sym^k T (j)  coming from
the Euler presentation of the tangent bundle: on P^n with n >= 2 the middle
cohomology of line bundles vanishes, so h^0 of the quotient is the cokernel
dimension of the multiplication map on global sections.  That map is
injective, so h^0 is a difference of binomial counts.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from . import laurent
from .errors import PreconditionError, _ITEM_WORK, _binomial_bits, _step, check_work


def chi_line(n: int, k: int) -> int:
    """Euler characteristic of O(k) on P^n: the binomial (n+k choose n) as a
    polynomial in k, so negative twists produce signed values.  Below k = 0
    it is (k+1)...(k+n)/n! = (-1)^n C(-k-1, n), which is 0 for -n <= k < 0."""
    if n < 1:
        raise PreconditionError("projective dimension must be >= 1")
    return comb(n + k, n) if k >= 0 else (-1) ** n * comb(-k - 1, n)


def h0_line(n: int, k: int) -> int:
    return comb(n + k, n) if k >= 0 else 0


def hn_line(n: int, k: int) -> int:
    return comb(-k - 1, n) if k <= -n - 1 else 0


class LineBundleCohomology(NamedTuple):
    n: int
    k: int
    dims: tuple[int, ...]
    chi: int


def line_cohomology(n: int, k: int) -> LineBundleCohomology:
    """All cohomology dimensions h^0..h^n of O(k) on P^n, with chi.  Input
    whose work estimate for the n + 1 entries and twice the binomial of h^0
    or h^n passes errors.WORK_LIMIT is refused with PreconditionError
    before any binomial; chi is read off that binomial."""
    if n < 1:
        raise PreconditionError("projective dimension must be >= 1")
    bits = _binomial_bits(n + k, n) if k >= 0 else _binomial_bits(-k - 1, n)
    check_work(2 * _step(bits) + (n + 1) * _ITEM_WORK, "(n={}, k={})", n, k)
    dims = [0] * (n + 1)
    dims[0] = h0_line(n, k)
    dims[n] = hn_line(n, k)
    # chi_line's binomial is whichever of the two is nonzero
    chi = dims[0] + (-1) ** n * dims[n]
    return LineBundleCohomology(n, k, tuple(dims), chi)


def cech_line_oracle(n: int, k: int, i: int) -> int:
    """Monomial-count route to h^i(P^n, O(k)), for i in {0, n}.

    h^0 enumerates nonnegative exponent vectors of total degree k; h^n
    enumerates exponent vectors with every entry <= -1 of total degree k.
    Input whose work estimate for those h^i monomials of n + 1 entries each
    passes errors.WORK_LIMIT is refused with PreconditionError before any
    is built.
    """
    if n < 1:
        raise PreconditionError("projective dimension must be >= 1")
    if i not in (0, n):
        raise PreconditionError("cech oracle only covers i = 0 and i = n")
    # shift gamma_j = -1 - e_j turns the all-negative count into a
    # nonnegative count of total degree -k - (n+1)
    total = k if i == 0 else -k - (n + 1)
    if total < 0:
        return 0
    # the count is h0_line(n, k) or hn_line(n, k); a bound past 64 bits on
    # it means more than 2^40 monomials, refused whatever their exact count
    count = comb(total + n, n) if _binomial_bits(total + n, n) <= 64 else 1 << 64
    check_work(count * (n + 1) * _ITEM_WORK, "the Cech count of h^{}(P^{}, O({}))", i, n, k)
    return len(laurent.monomials_of_degree(n + 1, total))


class SymTangentH0(NamedTuple):
    n: int
    k: int
    j: int
    h0: int
    chi: int


def chi_sym_tangent(n: int, k: int, j: int) -> int:
    """chi of Sym^k T twisted by j, by additivity along the Euler resolution."""
    if n < 1:
        raise PreconditionError("projective dimension must be >= 1")
    if k < 0:
        raise PreconditionError("symmetric power must be nonnegative")
    lead = comb(n + k, k) * chi_line(n, j + k)
    if k == 0:
        return lead
    return lead - comb(n + k - 1, k - 1) * chi_line(n, j + k - 1)


def h0_sym_tangent(n: int, k: int, j: int) -> SymTangentH0:
    """h^0 of Sym^k T(j) on P^n, n >= 2, as the cokernel dimension of the
    Euler multiplication map on global sections.

    The map Sym^(k-1)V (j+k-1) -> Sym^k V (j+k) multiplies by sum_i x_i e_i,
    a nonzero element of the domain Q[x, e], so it is injective and h^0 is
    C(n+k, k) h^0(O(j+k)) - C(n+k-1, k-1) h^0(O(j+k-1)), the second term
    only for k >= 1.  h^0 and chi are differences of products of binomials
    with at most those of C(n+k, k) C(n+|j+k|, n) bits; input whose work
    estimate for the two passes errors.WORK_LIMIT is refused with
    PreconditionError before any binomial.
    """
    if n < 2:
        raise PreconditionError(
            "h0_sym_tangent needs n >= 2; on the projective line the tangent "
            "bundle is O(2), so use h^0(O(2k + j)) instead")
    if k < 0:
        raise PreconditionError("symmetric power must be nonnegative")
    bits = _binomial_bits(n + k, k) + _binomial_bits(n + abs(j + k), n)
    check_work(2 * _step(bits), "(n={}, k={}, j={})", n, k, j)
    h0 = _h0_sym_tangent_row(n, j, k, k)[0]
    # for j + k >= 0 neither O(j + k) nor O(j + k - 1) has higher
    # cohomology, so chi is h^0 and its binomials are not computed again
    return SymTangentH0(n, k, j, h0, h0 if j + k >= 0 else chi_sym_tangent(n, k, j))


def _h0_sym_tangent_row(n: int, j: int, lo: int, hi: int) -> list[int]:
    """The h^0 of h0_sym_tangent for k = lo..hi, for n >= 2 and 0 <= lo
    (not checked).  By the Euler sequence each is the difference of the
    lead terms C(n+k, k) h^0(O(j+k)) at k and k - 1; each lead term, for
    k = lo - 1..hi, is computed once, and the one at k = -1 is 0."""
    lead = [comb(n + k, k) * comb(n + j + k, n) if k >= 0 and j + k >= 0 else 0
            for k in range(lo - 1, hi + 1)]
    return [b - a for a, b in zip(lead, lead[1:])]


__all__ = [
    "LineBundleCohomology", "SymTangentH0",
    "chi_line", "h0_line", "hn_line", "line_cohomology", "cech_line_oracle",
    "chi_sym_tangent", "h0_sym_tangent",
]
