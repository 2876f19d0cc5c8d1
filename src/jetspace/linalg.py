"""Sparse exact linear algebra over the rationals.

ExactMatrix stores only nonzero entries, keyed by (row, col).  rank() runs a
fraction-free sparse row elimination over the integers (each incoming row is
scaled to integer entries, pivot rows are kept primitive), so results are
exact regardless of conditioning.  kernel_basis() uses a rational RREF and
back-substitution; together they satisfy rank + nullity = cols exactly.

Row elimination picks each row's minimal column as pivot position, so rows
with disjoint column supports never interact; on block-structured input the
cost is the sum of the block costs.  add_pivot_row() is one elimination
step on integer rows; projective's shift blocks call it directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .laurent import _coerce, add_terms


class ExactMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], Fraction] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (i, j), c in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError(f"entry ({i},{j}) outside {rows}x{cols}")
                c = _coerce(c)
                if c:
                    clean[(i, j)] = c
        self.entries = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, data: Iterable[Iterable]) -> "ExactMatrix":
        data = [list(r) for r in data]
        cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        return cls(len(data), cols,
                   {(i, j): c for i, r in enumerate(data) for j, c in enumerate(r)})

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, {})

    # ---- queries ------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), Fraction(0))

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def to_rows(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), c in self.entries.items():
            out[i][j] = c
        return out

    def row_dicts(self) -> list[dict[int, Fraction]]:
        out: list[dict[int, Fraction]] = [dict() for _ in range(self.rows)]
        for (i, j), c in self.entries.items():
            out[i][j] = c
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        other_rows = other.row_dicts()
        return ExactMatrix(self.rows, other.cols, add_terms({}, (
            ((i, j), c * d) for (i, k), c in self.entries.items()
            for j, d in other_rows[k].items())))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows, {(j, i): c for (i, j), c in self.entries.items()})

    # ---- rank ---------------------------------------------------------

    def rank(self) -> int:
        """Exact rank by deterministic sparse fraction-free elimination."""
        pivots: dict[int, dict[int, int]] = {}
        for row in self._integer_rows():
            add_pivot_row(pivots, row)
        return len(pivots)

    def _integer_rows(self) -> list[dict[int, int]]:
        return [dict(zip(r, primitive_integers(r.values()))) for r in self.row_dicts()]

    # ---- reduced row echelon / kernel ---------------------------------

    def rref(self) -> tuple[list[dict[int, Fraction]], list[int]]:
        """Reduced row echelon form as sparse rows, plus sorted pivot columns."""
        pivots: dict[int, dict[int, Fraction]] = {}
        for row in self.row_dicts():
            while row:
                c = min(row)
                piv = pivots.get(c)
                if piv is None:
                    lead = row[c]
                    pivots[c] = {j: v / lead for j, v in row.items()}
                    break
                factor = row[c]
                add_terms(row, ((j, -factor * v) for j, v in piv.items()))
        cols_sorted = sorted(pivots)
        # back-substitute so each pivot column appears in exactly one row
        for c in reversed(cols_sorted):
            piv = pivots[c]
            for c2 in cols_sorted:
                if c2 >= c:
                    break
                upper = pivots[c2]
                factor = upper.get(c)
                if factor:
                    add_terms(upper, ((j, -factor * v) for j, v in piv.items()))
        return [pivots[c] for c in cols_sorted], cols_sorted

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """A basis of {v : M v = 0}; length is cols - rank, each exact."""
        rows, pivot_cols = self.rref()
        pivot_set = set(pivot_cols)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            vec = [Fraction(0)] * self.cols
            vec[free] = Fraction(1)
            for prow, pcol in zip(rows, pivot_cols):
                coeff = prow.get(free)
                if coeff:
                    vec[pcol] = -coeff
            basis.append(tuple(vec))
        return basis

    def apply_to_vector(self, vec: Iterable) -> list[Fraction]:
        v = [_coerce(x) for x in vec]
        if len(v) != self.cols:
            raise ValueError("vector has wrong length")
        out = [Fraction(0)] * self.rows
        for (i, j), c in self.entries.items():
            if v[j]:
                out[i] += c * v[j]
        return out

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def primitive_integers(values: Iterable[Fraction]) -> list[int]:
    """Coprime integers proportional to the given rationals, same signs:
    scaled by the lcm of the denominators, then divided by the gcd."""
    values = list(values)
    scale = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def add_pivot_row(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> None:
    """Reduce an integer row in place against pivots (keyed by their minimal
    column); if anything is left, keep it, primitive, as a new pivot."""
    while row:
        c = min(row)
        piv = pivots.get(c)
        if piv is None:
            _make_primitive(row)
            pivots[c] = row
            return
        _eliminate(row, piv, c)


def _make_primitive(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for j in row:
            row[j] //= g


def _eliminate(row: dict[int, int], piv: dict[int, int], c: int) -> None:
    """In place: row <- (piv[c]/g) * row - (row[c]/g) * piv, cancelling column c."""
    a, b = row[c], piv[c]
    g = gcd(a, b)
    mr, mp = b // g, a // g
    if mr != 1:
        for j in row:
            row[j] *= mr
    for j, v in piv.items():
        acc = row.get(j, 0) - mp * v
        if acc:
            row[j] = acc
        else:
            row.pop(j, None)
    _make_primitive(row)
