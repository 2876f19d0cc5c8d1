"""Sparse multivariate Laurent polynomials with exact rational coefficients.

Monomials are exponent tuples (negative entries allowed), coefficients are
``fractions.Fraction``.  Zero coefficients are never stored, so two equal
polynomials always have identical term dictionaries.  Instances are treated
as immutable: no method mutates ``self`` after construction.

Operators, polynomials, symbols and jets are all finitely supported maps from
exponent blocks to Q.  ``add_terms`` is the one accumulator that sums such
maps, and ``format_terms``/``parse_terms`` the one text codec: terms
"c * x^(..) d^(..)" joined by " + ", one labelled block per exponent block.
``parse_coefficient`` is the one grammar of a rational in text, for term
coefficients and for the CLI's bare coefficient lists alike.
``primitive_integers`` clears a vector of such coefficients to coprime
integers, for the integer routes of linalg and symbols.
``TermMap`` holds the arithmetic that polynomials and operators share;
``LaurentPoly`` and ``weyl.WeylElement`` state only their keys and products.
``monomials_of_degree`` is the one monomial enumerator, and ``_power`` the
one square-and-multiply loop (for ``TermMap`` and ``presented.UniPoly``).
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import add

Exponent = tuple[int, ...]

# Python's default limit on int <-> str digits.  Every integer literal that
# parse_coefficient and parse_terms read is capped at it, so parsing stays
# cheap where a caller has lifted the limit to print large exact results.
DIGIT_CAP = 4300
_RATIONAL = r"-?\d+(?:/\d+)?"


def monomials_of_degree(nvars: int, degree: int, cap: int | None = None) -> list[Exponent]:
    """Nonnegative exponent tuples of the given total degree with every entry
    at most ``cap`` (default: the degree), sorted.

    Built one slot at a time, with no recursion: each entry leaves a total
    in [0, left·cap] for the ``left`` slots after it, so every prefix
    completes, the last slot takes what is left, and the work is
    proportional to the output."""
    cap = degree if cap is None else cap
    if nvars <= 1:
        fits = 0 <= degree <= cap if nvars == 1 else nvars == degree == 0
        return [(degree,) * nvars] if fits else []
    rows = [((), degree)]
    for left in range(nvars - 1, 0, -1):
        rows = [((*prefix, first), rest - first) for prefix, rest in rows
                for first in range(max(0, rest - left * cap), min(cap, rest) + 1)]
    return [(*prefix, rest) for prefix, rest in rows]


def _power(base, k: int, one):
    """base ** k by square-and-multiply, starting from ``one``."""
    if k < 0:
        raise ValueError("negative powers are not defined")
    result = one
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def primitive_integers(values: Iterable[Fraction]) -> list[int]:
    """Coprime integers proportional to the given rationals, same signs:
    scaled by the lcm of the denominators, then divided by the gcd."""
    values = list(values)
    scale = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


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


def _check_digits(literal: str, what: str) -> None:
    """Refuse an integer literal of more than DIGIT_CAP digits, naming it."""
    digits = literal.strip().lstrip("-")
    if len(digits) > DIGIT_CAP:
        raise ValueError(f"{what} {digits[:12]}... has {len(digits)} digits, "
                         f"over the cap of {DIGIT_CAP}")


def parse_coefficient(text: str) -> Fraction:
    """The rational that text spells as -?\\d+(/\\d+)? between optional
    whitespace, each integer of at most DIGIT_CAP digits.  Raises ValueError
    on any other text (decimals, exponents, signs other than a leading '-',
    underscores), an oversized integer or a zero denominator."""
    if not re.fullmatch(rf"\s*{_RATIONAL}\s*", text):
        raise ValueError(f"bad coefficient {text!r}")
    num, _, den = text.strip().partition("/")
    _check_digits(num, "coefficient")
    _check_digits(den, "coefficient denominator")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coefficient {text!r}") from None


def parse_terms(text: str, labels: Sequence[str]) -> tuple[int, list[tuple[Exponent, Fraction]]]:
    """Inverse of format_terms: (width, [(flat exponent, coefficient), ...]).

    Accepts any term order and repeated exponents; the pairs come back in
    text order, unsummed, so the caller's constructor sees (and can reject)
    every exponent.  Exponents may be negative in every position.  Raises
    ValueError on malformed text, a coefficient that parse_coefficient
    refuses, an exponent of more than DIGIT_CAP digits, an empty exponent
    block, or blocks of unequal width."""
    pattern = rf"\s*({_RATIONAL})\s*\*" + "".join(
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
        c = parse_coefficient(m.group(1))
        bodies = [body.split(",") for body in m.groups()[1:]]
        for literal in (v for body in bodies for v in body):
            _check_digits(literal, "exponent")
        try:
            blocks = [tuple(map(int, body)) for body in bodies]
        except ValueError:
            raise ValueError(f"bad exponent tuple in term {chunk!r}") from None
        if width is None:
            width = len(blocks[0])
        if any(len(b) != width for b in blocks):
            raise ValueError(f"inconsistent exponent tuple lengths in {chunk!r}")
        pairs.append((sum(blocks, ()), c))
    return width, pairs


class TermMap:
    """A finitely supported map from monomial keys to nonzero rationals, with
    the ring structure its subclass names.

    Polynomials and differential operators share the monomial basis and the
    vector-space structure; they differ in what a key is (``_checked`` and
    the least ``nvars``), what 1 is (``one``) and how two basis monomials
    multiply (``_product``, an iterable of the unsummed terms of
    c * key1 * key2).  Everything else lives here.  Elements of different
    subclasses never compare equal, add or multiply.
    """

    __slots__ = ("nvars", "terms")
    _MIN_NVARS, _NVARS_ERROR = 0, "nvars must be nonnegative"

    def __init__(self, nvars: int, terms: Mapping | Iterable | None = None):
        """``terms`` is a map or an iterable of (key, coefficient) pairs;
        repeated keys are summed."""
        if nvars < self._MIN_NVARS:
            raise ValueError(self._NVARS_ERROR)
        self.nvars = nvars
        pairs = terms.items() if isinstance(terms, Mapping) else terms or ()
        self.terms = add_terms({}, [t for t in map(self._checked, pairs) if t[1]])

    @classmethod
    def _raw(cls, nvars: int, terms: dict):
        """Wrap an already clean term dict (no zeros, valid keys)."""
        res = cls.__new__(cls)
        res.nvars = nvars
        res.terms = terms
        return res

    @classmethod
    def zero(cls, nvars: int):
        return cls(nvars, {})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "TermMap") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._raw(self.nvars, add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._raw(self.nvars, {key: -c for key, c in self.terms.items()})

    def __mul__(self, other):
        """Scalar multiple, or the product self * other (for operators:
        self after other)."""
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            return self._raw(
                self.nvars, {key: k * c for key, k in self.terms.items()} if c else {})
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        product = self._product
        return self._raw(self.nvars, add_terms({}, (
            term for k1, c1 in self.terms.items() for k2, c2 in other.terms.items()
            for term in product(k1, k2, c1 * c2))))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        return _power(self, k, self.one(self.nvars))

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))


class LaurentPoly(TermMap):
    """A Laurent polynomial in ``nvars`` variables over the rationals; keys
    are exponent tuples."""

    __slots__ = ()

    def _checked(self, pair) -> tuple[Exponent, Fraction]:
        exps, c = pair
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError(f"exponent tuple {exps} has wrong length for nvars={self.nvars}")
        return exps, _coerce(c)

    @staticmethod
    def _product(e1: Exponent, e2: Exponent, c: Fraction):
        return ((tuple(map(add, e1, e2)), c),)

    # ---- constructors -------------------------------------------------

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

    # ---- queries ------------------------------------------------------

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def homogeneous_degree(self) -> int | None:
        """Total degree if every term has the same one, else None.  None for 0."""
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def has_negative_exponent(self) -> bool:
        return any(min(e) < 0 for e in self.terms)

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
        return f"LaurentPoly({format_terms(self.terms, ('x',), self.nvars)})"
