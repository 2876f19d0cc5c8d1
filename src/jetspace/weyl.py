"""Weyl algebra elements in several variables, in normal order.

An element is a rational combination of monomials x^alpha d^beta with all x
factors to the left of all derivative factors.  Products are renormalized
with the commutation rule d_i x_i = x_i d_i + 1, whose closed form for
monomials is

    (x^a d^b) (x^a' d^b') =
        sum_k  prod_j C(b_j, k_j) * ff(a'_j, k_j)  x^(a+a'-k) d^(b+b'-k)

where ff(m, k) = m (m-1) ... (m-k+1) is the falling factorial and the sum
runs over 0 <= k <= min(b, a') componentwise.

Elements act on Laurent monomials by

    x^a d^b . x^g = prod_j ff(g_j, b_j) * x^(g + a - b),

valid for negative exponents as well (ff of a negative integer is a signed
product, e.g. (x d) . x^-1 = -x^-1), which is what Cech-style computations
on punctured charts need.

Order is the maximal |beta|; x-degree of a term is |alpha| - |beta|.  An
element all of whose terms share one x-degree is called graded.  Text form
(laurent's term codec with labels x and d): terms
"c * x^(a0,..,an) d^(b0,..,bn)" joined by " + ".
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import product
from math import comb

from .laurent import (Exponent, LaurentPoly, TermMap, _coerce, add_terms,
                      format_terms, parse_terms)

TermKey = tuple[Exponent, Exponent]


def falling(m: int, k: int) -> int:
    """Falling factorial m (m-1) ... (m-k+1); defined for any integer m."""
    out = 1
    for t in range(k):
        out *= m - t
        if out == 0:
            return 0
    return out


def _product_terms(k1: TermKey, k2: TermKey, coeff: Fraction):
    """Terms of the normal-ordered expansion of coeff (x^a1 d^b1)(x^a2 d^b2),
    one per 0 <= k <= min(b1, a2), the first index running fastest."""
    (a1, b1), (a2, b2) = k1, k2
    caps = [range(min(p, q) + 1) for p, q in zip(b1, a2)]
    for k in product(*caps[::-1]):
        k = k[::-1]
        w = 1
        for p, q, kj in zip(b1, a2, k):
            if kj:
                w *= comb(p, kj) * falling(q, kj)
        if w:
            yield ((tuple(p + q - r for p, q, r in zip(a1, a2, k)),
                    tuple(p + q - r for p, q, r in zip(b1, b2, k))), coeff * w)


class WeylElement(TermMap):
    """A normal-ordered differential operator with polynomial coefficients;
    keys are (alpha, beta) pairs, and the product is composition."""

    __slots__ = ()
    _MIN_NVARS, _NVARS_ERROR = 1, "nvars must be positive"
    _product = staticmethod(_product_terms)

    def _checked(self, pair) -> tuple[TermKey, Fraction]:
        (alpha, beta), c = pair
        alpha, beta = tuple(alpha), tuple(beta)
        if len(alpha) != self.nvars or len(beta) != self.nvars:
            raise ValueError("exponent tuple length mismatch")
        if min(alpha, default=0) < 0 or min(beta, default=0) < 0:
            raise ValueError("operator exponents must be nonnegative")
        return (alpha, beta), _coerce(c)

    # ---- constructors -------------------------------------------------

    @classmethod
    def one(cls, nvars: int) -> "WeylElement":
        z = (0,) * nvars
        return cls(nvars, {(z, z): Fraction(1)})

    @classmethod
    def monomial(cls, alpha: Iterable[int], beta: Iterable[int], coeff=1) -> "WeylElement":
        alpha, beta = tuple(alpha), tuple(beta)
        return cls(len(alpha), {(alpha, beta): _coerce(coeff)})

    @classmethod
    def x(cls, i: int, nvars: int) -> "WeylElement":
        alpha = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {(alpha, (0,) * nvars): Fraction(1)})

    @classmethod
    def d(cls, i: int, nvars: int) -> "WeylElement":
        beta = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {((0,) * nvars, beta): Fraction(1)})

    # ---- basic structure ----------------------------------------------

    def order(self) -> int | None:
        """Maximal derivative order; None stands in for minus infinity on 0."""
        if not self.terms:
            return None
        return max(sum(beta) for _, beta in self.terms)

    def degree(self) -> int | None:
        """Common x-degree |alpha| - |beta| of all terms, or None if mixed/zero."""
        degs = {sum(a) - sum(b) for a, b in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_graded_of_degree(self, d: int) -> bool:
        """True when every term has x-degree d; vacuously true for the zero element."""
        return all(sum(a) - sum(b) == d for a, b in self.terms)

    def order_part(self, k: int) -> "WeylElement":
        """The sub-sum of terms with derivative order exactly k."""
        return WeylElement._raw(
            self.nvars, {key: c for key, c in self.terms.items() if sum(key[1]) == k})

    def coefficient(self, alpha: Iterable[int], beta: Iterable[int]) -> Fraction:
        return self.terms.get((tuple(alpha), tuple(beta)), Fraction(0))

    # ---- action on Laurent polynomials ---------------------------------

    def _image_terms(self, gamma: Exponent):
        """Terms of self . x^gamma, unsummed."""
        for (alpha, beta), c in self.terms.items():
            ff = 1
            for g, b in zip(gamma, beta):
                if b:
                    ff *= falling(g, b)
                    if not ff:
                        break
            if ff:
                yield tuple(g + a - b for g, a, b in zip(gamma, alpha, beta)), c * ff

    def apply_monomial(self, gamma: Exponent) -> dict[Exponent, Fraction]:
        """Image of x^gamma as a sparse exponent -> coefficient map."""
        return add_terms({}, self._image_terms(gamma))

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        if f.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        return LaurentPoly._raw(self.nvars, add_terms({}, (
            (target, cg * c) for gamma, cg in f.terms.items()
            for target, c in self._image_terms(gamma))))

    # ---- text form -----------------------------------------------------

    def serialize(self) -> str:
        """Canonical text form, terms sorted by (|beta|, beta, alpha)."""
        n = self.nvars
        return format_terms({a + b: c for (a, b), c in self.terms.items()}, ("x", "d"), n,
                            key=lambda e: (sum(e[n:]), e[n:], e[:n]))

    @classmethod
    def parse(cls, text: str) -> "WeylElement":
        """Inverse of serialize; accepts any term order and repeated keys.
        Negative exponents parse and are then rejected like any other."""
        width, pairs = parse_terms(text, ("x", "d"))
        return cls(width, (((e[:width], e[width:]), c) for e, c in pairs))

    def __repr__(self) -> str:
        return f"WeylElement({self.serialize()})"


def euler_operator(nvars: int) -> WeylElement:
    """sum_i x_i d_i; multiplies a monomial x^gamma by its total degree."""
    terms = {}
    for i in range(nvars):
        e = tuple(1 if j == i else 0 for j in range(nvars))
        terms[(e, e)] = Fraction(1)
    return WeylElement(nvars, terms)
