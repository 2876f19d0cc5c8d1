"""Finitely presented modules over the univariate polynomial ring Q[t].

UniPoly is laurent.TermMap's one-variable case, keyed by the exponent of t:
the ring arithmetic is TermMap's, and UniPoly adds division with remainder
and the monic gcd (Euclid on primitive remainders).  Q[t] is a
principal ideal domain, so every finitely presented module splits as a free
part plus cyclic torsion summands Q[t]/(d_i); the invariant factors
d_1 | d_2 | ... are computed by an exact Smith reduction in two stages.
Euclid's algorithm on rows and columns reduces the matrix to a diagonal
(pivot on a least-degree entry; clear its column by polynomial division,
then its row, and start the position over on any remainder).  Then
divisibility_chain replaces each pair of diagonal entries by their gcd and
lcm, so that each divides the next.  A matrix whose work estimate
(_smith_work, from its shape, largest entry degree and coefficient bits)
passes errors.WORK_LIMIT is refused with PreconditionError before any
elimination.

A PresentedModule is coker of a g x r relation matrix.  It is torsion
exactly when the relation matrix has full row rank g, and then its length
is the sum of the degrees of the invariant factors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import _ITEM_WORK, _fraction_bits, _step, check_work
from .laurent import TermMap, _coerce, primitive_integers


class UniPoly(TermMap):
    """Polynomial in one variable t over Q, a TermMap keyed by the exponent
    of t; coeffs[i] is the t^i coefficient."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable = ()):
        super().__init__(1, enumerate(coeffs))

    @staticmethod
    def _checked(pair) -> tuple[int, Fraction]:
        i, c = pair
        return i, _coerce(c)

    @staticmethod
    def _product(i: int, j: int, c: Fraction):
        return ((i + j, c),)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls, nvars: int = 1) -> "UniPoly":
        """1; TermMap.__pow__ passes nvars, which is always 1 here."""
        return cls((1,))

    @classmethod
    def t(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((c,))

    # ---- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Dense ascending coefficients, zeros included; () for 0."""
        return tuple(self.terms.get(i, Fraction(0)) for i in range(self.degree() + 1))

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.terms, default=-1)

    def lead(self) -> Fraction:
        return self.terms.get(self.degree(), Fraction(0))

    def is_unit(self) -> bool:
        return self.degree() == 0

    def monic(self) -> "UniPoly":
        lead = self.lead()
        return self if lead in (0, 1) else self * (1 / lead)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, lead = other.degree(), other.lead()
        if len(rem) <= dd:
            return UniPoly.zero(), self
        quot = [Fraction(0)] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                q = c / lead
                quot[i - dd] = q
                for j, d in other.terms.items():
                    rem[i - dd + j] -= q * d
        return UniPoly(quot), UniPoly(rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def divides(self, other: "UniPoly") -> bool:
        if not self:
            return not other
        return not (other % self)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd by Euclid's algorithm on primitive remainders (Collins,
        J. ACM 14, 1967): each remainder is replaced by its primitive integer
        part, a unit multiple of it, so the coefficients do not swell.  The
        parts keep Fraction coefficients, as division divides with /."""
        a, b = self, other
        while b:
            r = a % b
            a, b = b, r and UniPoly(map(Fraction, primitive_integers(r.coeffs)))
        return a.monic()

    def derivative(self) -> "UniPoly":
        return UniPoly._raw(1, {i - 1: i * c for i, c in self.terms.items() if i})

    def evaluate(self, point) -> Fraction:
        p = _coerce(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def __repr__(self) -> str:
        parts = []
        for i, c in sorted(self.terms.items()):
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return " + ".join(parts) or "0"


def smith_normal_form(matrix: Sequence[Sequence[UniPoly]]) -> list[UniPoly]:
    """Monic invariant factors d_1 | d_2 | ... of a matrix over Q[t].

    Returns only the nonzero invariants; their count is the rank of the
    matrix over the fraction field Q(t).  Each pivot position takes an entry
    of least degree in the remaining block.  Row operations divide the rest
    of the pivot column by it; a remainder moves a lower degree into the
    block, and the position starts over.  Only with the column clean is the
    rest of the pivot row replaced by its remainders, a column operation that
    changes no other row.  When both are clean the pivot is a diagonal entry,
    and divisibility_chain turns the diagonal into the invariants.  A matrix
    whose work estimate (_smith_work) passes errors.WORK_LIMIT is refused
    with PreconditionError before any of this.
    """
    work = [list(row) for row in matrix]
    cols = len(work[0]) if work else 0
    check_work(_smith_work(work, cols), "the Smith form of a {}x{} matrix over Q[t]",
               len(work), cols)
    diagonal: list[UniPoly] = []
    top = 0
    while top < min(len(work), cols):
        block = [(p.degree(), i, j) for i in range(top, len(work))
                 for j in range(top, cols) if (p := work[i][j])]
        if not block:
            break
        _, pr, pc = min(block)
        work[top], work[pr] = work[pr], work[top]
        for row in work:
            row[top], row[pc] = row[pc], row[top]
        pivot_row = work[top]
        piv = pivot_row[top]
        clean = True
        for row in work[top + 1:]:
            if row[top]:
                q = row[top] // piv
                row[top:] = [p - q * r for p, r in zip(row[top:], pivot_row[top:])]
                clean = clean and not row[top]
        if not clean:
            continue
        pivot_row[top + 1:] = [p % piv for p in pivot_row[top + 1:]]
        if not any(pivot_row[top + 1:]):
            diagonal.append(piv)
            top += 1
    return divisibility_chain(diagonal)


def _smith_work(rows: list[list[UniPoly]], cols: int) -> int:
    """Work estimate of smith_normal_form on an r x c matrix, in products of
    an item and a _step each, from its shape, its largest entry degree D and
    the bits B of its largest coefficient; no polynomial arithmetic.  The
    k = min(r, c) invariant factors have degrees adding up to at most
    L = k D, the degree of a k x k minor, and each restart of a pivot
    position lowers its pivot's degree; so it charges L + k sweeps of the
    r c cells, each a product of up to L + 1 coefficients of up to
    k (B + bits(D)) bits.  Calibrated on the Taylor-layer presentations of
    jets, whose unit layers give early pivots (CHANGES.md has the rows); a
    dense matrix of the same shape with no unit entries fills in and can
    take far longer."""
    cells = [p for row in rows for p in row if p]
    if not cells:
        return 0
    deg = max(p.degree() for p in cells)
    bits = max(_fraction_bits(c) for p in cells for c in p.terms.values())
    k = min(len(rows), cols)
    length = k * deg
    return (len(rows) * cols * (length + k) * (length + 1)
            * (_ITEM_WORK + _step(k * (bits + deg.bit_length()))))


def divisibility_chain(diagonal: Iterable[UniPoly]) -> list[UniPoly]:
    """Monic d_1 | d_2 | ... with diag(d) equivalent to diag(diagonal) over Q[t].

    The entries must be nonzero.  Over a principal ideal domain diag(p, q) is
    equivalent to diag(gcd(p, q), lcm(p, q)) (Newman, Integral Matrices,
    ch. II).  Merging d_i with every later d_j leaves d_i the gcd of all of
    them, and the later merges keep to multiples of it, so one pass over the
    pairs i < j gives the chain.
    """
    d = [p.monic() for p in diagonal]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = d[i].gcd(d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


class PresentedModule:
    """coker of a g x r matrix over Q[t]: g generators, r relation columns."""

    __slots__ = ("gens", "relations", "_invariants")

    def __init__(self, gens: int, relations: Sequence[Sequence[UniPoly]]):
        if gens < 0:
            raise ValueError("generator count must be nonnegative")
        rels = [tuple(row) for row in relations]
        if len(rels) != gens:
            raise ValueError("relation matrix must have one row per generator")
        width = {len(row) for row in rels}
        if len(width) > 1:
            raise ValueError("ragged relation matrix")
        self.gens = gens
        self.relations = tuple(rels)
        self._invariants = None

    @classmethod
    def free(cls, gens: int) -> "PresentedModule":
        return cls.from_invariants(gens, ())

    @classmethod
    def from_invariants(cls, free_rank: int,
                        torsion: Sequence[UniPoly]) -> "PresentedModule":
        """Q[t]^f + sum_i Q[t]/(d_i), presented by its diagonal, for monic
        nonunit d_1 | d_2 | ...; invariants() returns (f, (d_1, ...)) as
        given, with no Smith form."""
        zero = UniPoly.zero()
        module = cls(free_rank + len(torsion),
                     [(zero,) * len(torsion)] * free_rank
                     + [tuple(d if i == j else zero for j in range(len(torsion)))
                        for i, d in enumerate(torsion)])
        module._invariants = (free_rank, tuple(torsion))
        return module

    @classmethod
    def cyclic(cls, p: UniPoly) -> "PresentedModule":
        return cls(1, [(p,)])

    @property
    def relation_count(self) -> int:
        return len(self.relations[0]) if self.gens else 0

    def invariants(self) -> tuple[int, tuple[UniPoly, ...]]:
        """(free rank, nonunit invariant factors); a complete isomorphism invariant.

        Computed once: the module is immutable.
        """
        if self._invariants is None:
            inv = smith_normal_form(self.relations)
            self._invariants = (self.gens - len(inv),
                                tuple(d for d in inv if not d.is_unit()))
        return self._invariants

    def is_torsion(self) -> bool:
        return self.invariants()[0] == 0

    def length(self) -> int | None:
        """Composition length; None when the module has a free summand."""
        free_rank, torsion = self.invariants()
        if free_rank:
            return None
        return sum(d.degree() for d in torsion)

    def direct_sum(self, other: "PresentedModule") -> "PresentedModule":
        g = self.gens + other.gens
        r1, r2 = self.relation_count, other.relation_count
        zero1 = (UniPoly.zero(),) * r2
        zero2 = (UniPoly.zero(),) * r1
        rels = [tuple(row) + zero1 for row in self.relations]
        rels += [zero2 + tuple(row) for row in other.relations]
        return PresentedModule(g, rels)

    def __repr__(self) -> str:
        return f"PresentedModule(gens={self.gens}, relations={self.relation_count})"
