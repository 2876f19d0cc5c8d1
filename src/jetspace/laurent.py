"""Sparse multivariate Laurent polynomials with exact rational coefficients.

Monomials are exponent tuples (negative entries allowed), coefficients are
``fractions.Fraction``.  Zero coefficients are never stored, so two equal
polynomials always have identical term dictionaries.  Instances are treated
as immutable: no method mutates ``self`` after construction.

Operators, polynomials, symbols and jets are all finitely supported maps from
exponent blocks to Q.  ``add_terms`` is the one accumulator that sums such
maps, and ``format_terms``/``parse_terms`` the one text codec: terms
"c * x^(..) d^(..)" joined by " + ", one labelled block per exponent block.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import combinations_with_replacement

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


def add_terms(out: dict, pairs: Iterable) -> dict:
    """Fold (key, coefficient) pairs into out, in place; a key whose sum is 0
    is dropped.  Every coefficient must be nonzero (callers that may hold
    zeros filter them first), so out never stores a zero.  Returns out."""
    get = out.get
    for key, c in pairs:
        acc = get(key)
        if acc is None:
            out[key] = c
        else:
            c += acc
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def format_terms(terms: Mapping[Exponent, Fraction], labels: Sequence[str],
                 width: int, key: Callable | None = None) -> str:
    """Text form of a term map: "c * x^(..) d^(..)" terms joined by " + ".

    Each flat exponent is cut into one block of ``width`` entries per label,
    e.g. labels ("x", "d") for operators, ("x", "dx") for jets, ("x", "s")
    for symbols.  Terms are sorted by ``key`` (default: the exponent).  The
    zero map prints as a single zero term."""
    def term(exps, c):
        blocks = (exps[i * width:(i + 1) * width] for i in range(len(labels)))
        return f"{c} * " + " ".join(f"{label}^({','.join(map(str, b))})"
                                    for label, b in zip(labels, blocks))

    if not terms:
        return term((0,) * (width * len(labels)), 0)
    return " + ".join(term(e, terms[e]) for e in sorted(terms, key=key))


def parse_terms(text: str, labels: Sequence[str]) -> tuple[int, list[tuple[Exponent, Fraction]]]:
    """Inverse of format_terms: (width, [(flat exponent, coefficient), ...]).

    Accepts any term order and repeated exponents; the pairs come back in
    text order, unsummed, so the caller's constructor sees (and can reject)
    every exponent.  Exponents may be negative in every position.  Raises
    ValueError on malformed text, a zero denominator, an empty exponent block,
    or blocks of unequal width."""
    pattern = r"\s*(-?\d+(?:/\d+)?)\s*\*" + "".join(
        rf"\s*{re.escape(label)}\^\(([-\d,\s]*)\)" for label in labels) + r"\s*"
    chunks = [chunk for chunk in text.split("+") if chunk.strip()]
    if not chunks:
        raise ValueError("empty term text")
    width = None
    pairs = []
    for chunk in chunks:
        m = re.fullmatch(pattern, chunk)
        if not m:
            raise ValueError(f"cannot parse term {chunk!r}")
        try:
            c = Fraction(m.group(1))
            blocks = [tuple(int(v) for v in body.split(",")) for body in m.groups()[1:]]
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {chunk!r}") from None
        except ValueError:
            raise ValueError(f"bad exponent tuple in term {chunk!r}") from None
        if width is None:
            width = len(blocks[0])
        if any(len(b) != width for b in blocks):
            raise ValueError(f"inconsistent exponent tuple lengths in {chunk!r}")
        pairs.append((sum(blocks, ()), c))
    return width, pairs


class LaurentPoly:
    """A Laurent polynomial in ``nvars`` variables over the rationals."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction] | Iterable | None = None):
        """``terms`` is a map or an iterable of (exponent, coefficient)
        pairs; repeated exponents are summed."""
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        pairs = terms.items() if isinstance(terms, Mapping) else terms or ()
        self.terms = add_terms({}, [t for t in map(self._checked, pairs) if t[1]])

    def _checked(self, pair) -> tuple[Exponent, Fraction]:
        exps, c = pair
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError(f"exponent tuple {exps} has wrong length for nvars={self.nvars}")
        return exps, _coerce(c)

    @classmethod
    def _raw(cls, nvars: int, terms: dict[Exponent, Fraction]) -> "LaurentPoly":
        """Wrap an already clean term dict (no zeros, right lengths)."""
        res = cls.__new__(cls)
        res.nvars = nvars
        res.terms = terms
        return res

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
        return LaurentPoly._raw(self.nvars, add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            return LaurentPoly._raw(
                self.nvars, {e: k * c for e, k in self.terms.items()} if c else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        return LaurentPoly._raw(self.nvars, add_terms({}, (
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items())))

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
