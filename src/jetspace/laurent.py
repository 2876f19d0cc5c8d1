"""Sparse multivariate Laurent polynomials with exact rational coefficients.

Monomials are exponent tuples (negative entries allowed), coefficients are
``fractions.Fraction``.  Zero coefficients are never stored, so two equal
polynomials always have identical term dictionaries.  Instances are treated
as immutable: no method mutates ``self`` after construction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Mapping

Exponent = tuple[int, ...]


def monomials_of_degree(nvars: int, degree: int) -> list[Exponent]:
    """Nonnegative exponent tuples of the given total degree, sorted."""
    if degree < 0 or nvars < 0:
        return []
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out)


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class LaurentPoly:
    """A Laurent polynomial in ``nvars`` variables over the rationals."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = _coerce(c)
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} has wrong length for nvars={nvars}")
                if c:
                    key = tuple(exps)
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
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: Fraction(1)})

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff=1, nvars: int | None = None) -> "LaurentPoly":
        exps = tuple(exps)
        if nvars is None:
            nvars = len(exps)
        return cls(nvars, {exps: _coerce(coeff)})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "LaurentPoly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @classmethod
    def constant(cls, c, nvars: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: _coerce(c)})

    # ---- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def homogeneous_degree(self) -> int | None:
        """Total degree if every term has the same one, else None.  None for 0."""
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def has_negative_exponent(self) -> bool:
        return any(min(e) < 0 for e in self.terms)

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                acc = acc + c
                if acc:
                    out[e] = acc
                else:
                    del out[e]
        res = LaurentPoly.__new__(LaurentPoly)
        res.nvars = self.nvars
        res.terms = out
        return res

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        res = LaurentPoly.__new__(LaurentPoly)
        res.nvars = self.nvars
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if not c:
                return LaurentPoly.zero(self.nvars)
            res = LaurentPoly.__new__(LaurentPoly)
            res.nvars = self.nvars
            res.terms = {e: k * c for e, k in self.terms.items()}
            return res
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                acc = out.get(e)
                if acc is None:
                    out[e] = c
                else:
                    acc = acc + c
                    if acc:
                        out[e] = acc
                    else:
                        del out[e]
        res = LaurentPoly.__new__(LaurentPoly)
        res.nvars = self.nvars
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers of polynomials are not supported")
        result = LaurentPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check(self, other: "LaurentPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    # ---- evaluation ---------------------------------------------------

    def evaluate(self, point: Iterable) -> Fraction:
        """Exact evaluation at a rational point.

        Negative exponents require the corresponding coordinate to be nonzero.
        """
        pt = [_coerce(p) for p in point]
        if len(pt) != self.nvars:
            raise ValueError("point has wrong dimension")
        total = Fraction(0)
        for exps, c in self.terms.items():
            val = c
            for p, e in zip(pt, exps):
                if e == 0:
                    continue
                if p == 0 and e < 0:
                    raise ZeroDivisionError("negative exponent at a zero coordinate")
                val *= p ** e
            total += val
        return total

    # ---- display ------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            factors = [str(c)]
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i}")
                elif e != 0:
                    factors.append(f"x{i}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)
