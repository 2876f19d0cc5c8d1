"""Finitely presented modules over the univariate polynomial ring Q[t].

UniPoly is a dense univariate polynomial with Fraction coefficients.  Q[t]
is a principal ideal domain, so every finitely presented module splits as a
free part plus cyclic torsion summands Q[t]/(d_i); the invariant factors
d_1 | d_2 | ... are computed by an exact Smith reduction (pivot on a
minimal-degree entry, clear its row and column by polynomial division,
restart the block when a division leaves a remainder, then fix up the
divisibility chain).

A PresentedModule is coker of a g x r relation matrix.  It is torsion
exactly when the relation matrix has full row rank g, and then its length
is the sum of the degrees of the invariant factors.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .laurent import _coerce


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

    @classmethod
    def monomial(cls, k: int, c=1) -> "UniPoly":
        return cls((0,) * k + (c,))

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
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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


PolyMatrix = list[list[UniPoly]]


def smith_normal_form(matrix: Sequence[Sequence[UniPoly]]) -> list[UniPoly]:
    """Monic invariant factors d_1 | d_2 | ... of a matrix over Q[t].

    Returns only the nonzero invariants; their count is the rank of the
    matrix over the fraction field Q(t).
    """
    work = [[p for p in row] for row in matrix]
    rows = len(work)
    cols = len(work[0]) if rows else 0
    invariants: list[UniPoly] = []
    top = 0
    while top < min(rows, cols):
        pr, pc = _minimal_degree_entry(work, top)
        if pr is None:
            break
        _swap(work, top, pr, pc)
        while True:
            _clear_column(work, top)
            if _clear_row(work, top):
                continue
            # pivot must also divide the remaining block for a clean chain
            offender = _undivided_entry(work, top)
            if offender is None:
                break
            oi, _ = offender
            for j in range(top, cols):
                work[top][j] = work[top][j] + work[oi][j]
        invariants.append(work[top][top].monic())
        top += 1
    return _fix_divisibility(invariants)


def _minimal_degree_entry(work: PolyMatrix, top: int):
    best = (None, None)
    best_deg = None
    for i in range(top, len(work)):
        for j in range(top, len(work[0])):
            p = work[i][j]
            if p and (best_deg is None or p.degree() < best_deg):
                best = (i, j)
                best_deg = p.degree()
    return best


def _swap(work: PolyMatrix, top: int, pr: int, pc: int) -> None:
    if pr != top:
        work[top], work[pr] = work[pr], work[top]
    if pc != top:
        for row in work:
            row[top], row[pc] = row[pc], row[top]


def _clear_column(work: PolyMatrix, top: int) -> None:
    """Eliminate below the pivot, re-pivoting whenever a remainder shows up."""
    rows = len(work)
    cols = len(work[0])
    i = top + 1
    while i < rows:
        p = work[i][top]
        if not p:
            i += 1
            continue
        q, r = divmod(p, work[top][top])
        for j in range(top, cols):
            work[i][j] = work[i][j] - q * work[top][j]
        if r:
            work[top], work[i] = work[i], work[top]
            i = top + 1
        else:
            i += 1


def _clear_row(work: PolyMatrix, top: int) -> bool:
    """Eliminate right of the pivot; True if a remainder forced a re-pivot."""
    rows = len(work)
    cols = len(work[0])
    changed = False
    j = top + 1
    while j < cols:
        p = work[top][j]
        if not p:
            j += 1
            continue
        q, r = divmod(p, work[top][top])
        for i in range(top, rows):
            work[i][j] = work[i][j] - q * work[i][top]
        if r:
            for i in range(top, rows):
                work[i][top], work[i][j] = work[i][j], work[i][top]
            changed = True
            j = top + 1
        else:
            j += 1
    return changed


def _undivided_entry(work: PolyMatrix, top: int):
    piv = work[top][top]
    for i in range(top + 1, len(work)):
        for j in range(top + 1, len(work[0])):
            if work[i][j] and not piv.divides(work[i][j]):
                return (i, j)
    return None


def _fix_divisibility(diag: list[UniPoly]) -> list[UniPoly]:
    ds = [d.monic() for d in diag if d]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            if not ds[i].divides(ds[j]):
                g = ds[i].gcd(ds[j])
                lcm = (ds[i] * ds[j] // g).monic()
                ds[i], ds[j] = g, lcm
    return ds


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

    def smith_invariants(self) -> list[UniPoly]:
        if self.gens == 0 or self.relation_count == 0:
            return []
        return smith_normal_form(self.relations)

    def invariants(self) -> tuple[int, tuple[UniPoly, ...]]:
        """(free rank, nonunit invariant factors); a complete isomorphism invariant.

        Computed once: the module is immutable.
        """
        if self._invariants is None:
            inv = self.smith_invariants()
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
