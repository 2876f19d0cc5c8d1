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
element all of whose terms share one x-degree is called graded.  Text form:
terms "c * x^(a0,..,an) d^(b0,..,bn)" joined by " + ".
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping

from .laurent import Exponent, LaurentPoly, _coerce

TermKey = tuple[Exponent, Exponent]

_TERM_RE = re.compile(
    r"^\s*(?P<coeff>-?\d+(?:/\d+)?)\s*\*\s*x\^\((?P<alpha>-?[\d,\s]*)\)\s*d\^\((?P<beta>-?[\d,\s]*)\)\s*$"
)


def falling(m: int, k: int) -> int:
    """Falling factorial m (m-1) ... (m-k+1); defined for any integer m."""
    out = 1
    for t in range(k):
        out *= m - t
        if out == 0:
            return 0
    return out


class WeylElement:
    """A normal-ordered differential operator with polynomial coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[TermKey, Fraction] | None = None):
        if nvars <= 0:
            raise ValueError("nvars must be positive")
        self.nvars = nvars
        clean: dict[TermKey, Fraction] = {}
        if terms:
            for (alpha, beta), c in terms.items():
                alpha, beta = tuple(alpha), tuple(beta)
                if len(alpha) != nvars or len(beta) != nvars:
                    raise ValueError("exponent tuple length mismatch")
                if min(alpha, default=0) < 0 or min(beta, default=0) < 0:
                    raise ValueError("operator exponents must be nonnegative")
                c = _coerce(c)
                if c:
                    key = (alpha, beta)
                    acc = clean.get(key)
                    if acc is None:
                        clean[key] = c
                    else:
                        acc = acc + c
                        if acc:
                            clean[key] = acc
                        else:
                            del clean[key]
        self.terms = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "WeylElement":
        return cls(nvars, {})

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

    def is_zero(self) -> bool:
        return not self.terms

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
        res = WeylElement.__new__(WeylElement)
        res.nvars = self.nvars
        res.terms = {key: c for key, c in self.terms.items() if sum(key[1]) == k}
        return res

    def coefficient(self, alpha: Iterable[int], beta: Iterable[int]) -> Fraction:
        return self.terms.get((tuple(alpha), tuple(beta)), Fraction(0))

    # ---- ring operations ----------------------------------------------

    def __add__(self, other: "WeylElement") -> "WeylElement":
        if not isinstance(other, WeylElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                acc = acc + c
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        res = WeylElement.__new__(WeylElement)
        res.nvars = self.nvars
        res.terms = out
        return res

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def __neg__(self) -> "WeylElement":
        res = WeylElement.__new__(WeylElement)
        res.nvars = self.nvars
        res.terms = {key: -c for key, c in self.terms.items()}
        return res

    def __mul__(self, other):
        """Scalar multiple, or operator composition (self after other)."""
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            res = WeylElement.__new__(WeylElement)
            res.nvars = self.nvars
            res.terms = {key: k * c for key, k in self.terms.items()} if c else {}
            return res
        if not isinstance(other, WeylElement):
            return NotImplemented
        self._check(other)
        out: dict[TermKey, Fraction] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                _accumulate_product(out, a1, b1, a2, b2, c1 * c2, self.nvars)
        res = WeylElement.__new__(WeylElement)
        res.nvars = self.nvars
        res.terms = out
        return res

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int) -> "WeylElement":
        if k < 0:
            raise ValueError("negative powers are not defined")
        result = WeylElement.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check(self, other: "WeylElement") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    # ---- action on Laurent polynomials ---------------------------------

    def apply_monomial(self, gamma: Exponent) -> dict[Exponent, Fraction]:
        """Image of x^gamma as a sparse exponent -> coefficient map."""
        out: dict[Exponent, Fraction] = {}
        for (alpha, beta), c in self.terms.items():
            ff = 1
            for g, b in zip(gamma, beta):
                if b:
                    ff *= falling(g, b)
                    if ff == 0:
                        break
            if ff == 0:
                continue
            target = tuple(g + a - b for g, a, b in zip(gamma, alpha, beta))
            coeff = c * ff
            acc = out.get(target)
            if acc is None:
                out[target] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[target] = acc
                else:
                    del out[target]
        return out

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        if f.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        out: dict[Exponent, Fraction] = {}
        for gamma, cg in f.terms.items():
            for target, cv in self.apply_monomial(gamma).items():
                coeff = cg * cv
                acc = out.get(target)
                if acc is None:
                    out[target] = coeff
                else:
                    acc = acc + coeff
                    if acc:
                        out[target] = acc
                    else:
                        del out[target]
        res = LaurentPoly.__new__(LaurentPoly)
        res.nvars = self.nvars
        res.terms = out
        return res

    # ---- text form -----------------------------------------------------

    def serialize(self) -> str:
        """Canonical text form, terms sorted by (|beta|, beta, alpha)."""
        if not self.terms:
            z = ",".join("0" for _ in range(self.nvars))
            return f"0 * x^({z}) d^({z})"
        parts = []
        for alpha, beta in sorted(self.terms, key=lambda k: (sum(k[1]), k[1], k[0])):
            c = self.terms[(alpha, beta)]
            sa = ",".join(str(v) for v in alpha)
            sb = ",".join(str(v) for v in beta)
            parts.append(f"{c} * x^({sa}) d^({sb})")
        return " + ".join(parts)

    @classmethod
    def parse(cls, text: str, nvars: int | None = None) -> "WeylElement":
        """Inverse of serialize; accepts any term order and repeated keys."""
        chunks = [p for p in text.split("+") if p.strip()]
        if not chunks:
            raise ValueError("empty operator text")
        terms: dict[TermKey, Fraction] = {}
        seen_nvars = nvars
        for chunk in chunks:
            m = _TERM_RE.match(chunk)
            if not m:
                raise ValueError(f"cannot parse operator term {chunk!r}")
            alpha = _parse_tuple(m.group("alpha"))
            beta = _parse_tuple(m.group("beta"))
            if len(alpha) != len(beta):
                raise ValueError(f"mismatched tuple lengths in {chunk!r}")
            if seen_nvars is None:
                seen_nvars = len(alpha)
            elif len(alpha) != seen_nvars:
                raise ValueError("inconsistent variable count across terms")
            try:
                c = Fraction(m.group("coeff"))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in operator term {chunk!r}") from None
            key = (alpha, beta)
            terms[key] = terms.get(key, Fraction(0)) + c
        return cls(seen_nvars, terms)

    def __repr__(self) -> str:
        return f"WeylElement({self.serialize()})"


def _parse_tuple(body: str) -> Exponent:
    body = body.strip()
    if not body:
        return ()
    return tuple(int(p) for p in body.split(","))


def _accumulate_product(out, a1, b1, a2, b2, coeff, nvars) -> None:
    """Add the normal-ordered expansion of (x^a1 d^b1)(x^a2 d^b2) into out."""
    caps = [min(p, q) for p, q in zip(b1, a2)]
    # iterate over all k with 0 <= k <= caps, odometer style
    k = [0] * nvars
    while True:
        w = 1
        for j in range(nvars):
            kj = k[j]
            if kj:
                w *= comb(b1[j], kj) * falling(a2[j], kj)
        if w:
            alpha = tuple(p + q - r for p, q, r in zip(a1, a2, k))
            beta = tuple(p + q - r for p, q, r in zip(b1, b2, k))
            key = (alpha, beta)
            c = coeff * w
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                acc = acc + c
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        j = 0
        while j < nvars and k[j] == caps[j]:
            k[j] = 0
            j += 1
        if j == nvars:
            return
        k[j] += 1


def euler_operator(nvars: int) -> WeylElement:
    """sum_i x_i d_i; multiplies a monomial x^gamma by its total degree."""
    terms = {}
    for i in range(nvars):
        e = tuple(1 if j == i else 0 for j in range(nvars))
        terms[(e, e)] = Fraction(1)
    return WeylElement(nvars, terms)
