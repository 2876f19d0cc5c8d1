"""Sparse exact linear algebra over the rationals.

ExactMatrix stores only nonzero entries, keyed by (row, col).  rank() runs a
fraction-free sparse row elimination over the integers (each incoming row is
scaled to integer entries, pivot rows are kept primitive), so results are
exact regardless of conditioning.

Row elimination picks each row's minimal column as pivot position, so rows
with disjoint column supports never interact; on block-structured input the
cost is the sum of the block costs.  add_pivot_row() is one elimination
step on integer rows, the step rank() takes for each row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from .laurent import _coerce, add_terms, primitive_integers


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

    # ---- queries ------------------------------------------------------

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

    # ---- rank ---------------------------------------------------------

    def rank(self) -> int:
        """Exact rank by deterministic sparse fraction-free elimination."""
        pivots: dict[int, dict[int, int]] = {}
        for row in self.row_dicts():
            add_pivot_row(pivots, dict(zip(row, primitive_integers(row.values()))))
        return len(pivots)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


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
