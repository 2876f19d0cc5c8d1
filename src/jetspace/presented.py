"""Finitely presented modules over the univariate polynomial ring Q[t].

UniPoly is a dense univariate polynomial with Fraction coefficients.  Q[t]
is a principal ideal domain, so every finitely presented module splits as a
free part plus cyclic torsion summands Q[t]/(d_i); the invariant factors
d_1 | d_2 | ... are computed by an exact Smith reduction in two stages.
Euclid's algorithm on rows and columns reduces the matrix to a diagonal
(pivot on a least-degree entry; clear its column by polynomial division,
then its row, and start the position over on any remainder).  Then
divisibility_chain replaces each pair of diagonal entries by their gcd and
lcm, so that each divides the next.

A PresentedModule is coker of a g x r relation matrix.  It is torsion
exactly when the relation matrix has full row rank g, and then its length
is the sum of the degrees of the invariant factors.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .laurent import _coerce, _power


class UniPoly:
    """Polynomial in one variable t over Q; coeffs[i] is the t^i coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def t(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((c,))

    # ---- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def lead(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def is_unit(self) -> bool:
        return len(self.coeffs) == 1

    def monic(self) -> "UniPoly":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return UniPoly(c / lead for c in self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            return UniPoly(k * c for k in self.coeffs)
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "UniPoly":
        return _power(self, exponent, UniPoly.one())

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.coeffs
        dd = len(dv) - 1
        lead = dv[-1]
        if len(rem) <= dd:
            return UniPoly.zero(), self
        quot = [Fraction(0)] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                q = c / lead
                quot[i - dd] = q
                for j, d in enumerate(dv):
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
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "UniPoly":
        return UniPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def squarefree_parts(self) -> list["UniPoly"]:
        """Monic squarefree, pairwise coprime q_1, q_2, ... with
        monic(self) = prod_e q_e^e (Yun's algorithm).

        parts[e - 1] is q_e; the last part is a nonunit, so a constant
        gives [].  Exact in characteristic 0.
        """
        if not self:
            raise ValueError("the zero polynomial has no squarefree decomposition")
        parts: list[UniPoly] = []
        f = self.monic()
        df = f.derivative()
        a = f.gcd(df)
        b, c = f // a, df // a
        while b.degree() > 0:
            d = c - b.derivative()
            q = b.gcd(d)
            parts.append(q)
            b, c = b // q, d // q
        return parts

    def shift_coefficients(self) -> list["UniPoly"]:
        """Polynomials q_k with p(t + s) = sum_k q_k(t) s^k (Taylor layers).

        q_k is the k-th derivative divided by k!, computed via binomials so
        everything stays exact.
        """
        n = len(self.coeffs)
        if n == 0:
            return []
        layers: list[list[Fraction]] = [[Fraction(0)] * (n - k) for k in range(n)]
        for j, c in enumerate(self.coeffs):
            if c:
                for k in range(j + 1):
                    layers[k][j - k] += c * comb(j, k)
        return [UniPoly(layer) for layer in layers]

    def evaluate(self, point) -> Fraction:
        p = _coerce(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return " + ".join(parts)


def smith_normal_form(matrix: Sequence[Sequence[UniPoly]]) -> list[UniPoly]:
    """Monic invariant factors d_1 | d_2 | ... of a matrix over Q[t].

    Returns only the nonzero invariants; their count is the rank of the
    matrix over the fraction field Q(t).  Each pivot position takes an entry
    of least degree in the remaining block.  Row operations divide the rest
    of the pivot column by it; a remainder moves a lower degree into the
    block, and the position starts over.  Only with the column clean is the
    rest of the pivot row replaced by its remainders, a column operation that
    changes no other row.  When both are clean the pivot is a diagonal entry,
    and divisibility_chain turns the diagonal into the invariants.
    """
    work = [list(row) for row in matrix]
    cols = len(work[0]) if work else 0
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
        return cls(gens, [() for _ in range(gens)])

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
