#!/usr/bin/env python3
"""Classify a gallery of classical operators by their symbol.

Each entry is run through symbol extraction, the algebraic (closed-field)
ellipticity test, and the real-points test, printing verdicts and witnesses.
Variable-coefficient symbols are reported as out of scope for the pointwise
checks rather than silently skipped.

Run:
    python3 scripts/ellipticity_gallery.py
"""

import sys

from jetspace.errors import PreconditionError
from jetspace.laurent import format_terms
from jetspace.symbols import classify, symbol_of
from jetspace.weyl import WeylElement


def d(i, m=2):
    return WeylElement.d(i, m)


def x(i, m=2):
    return WeylElement.x(i, m)


GALLERY = [
    ("laplacian", d(0) * d(0) + d(1) * d(1), 2),
    ("wave", d(0) * d(0) - d(1) * d(1), 2),
    ("heat", d(0) - d(1) * d(1), 2),
    ("bilaplacian", (d(0) * d(0) + d(1) * d(1)) ** 2, 4),
    ("mixed-derivative", d(0) * d(1), 2),
    ("transport", d(0) + d(1), 1),
    ("tricomi", x(1) * d(0) * d(0) + d(1) * d(1), 2),
    ("cauchy-riemann system", [[d(0), -1 * d(1)], [d(1), d(0)]], 1),
]


def main():
    for name, op, order in GALLERY:
        sym = symbol_of(op, order)
        print(f"== {name} (order {order}, size {sym.size}) ==")
        for row in sym.entries:
            print("   symbol:", " | ".join(format_terms(p.terms, ("x", "s"), sym.m)
                                           for p in row))
        try:
            verdict = classify(sym)
        except PreconditionError as exc:
            print(f"   pointwise checks unavailable: {exc}\n")
            continue
        print(f"   algebraically elliptic: {verdict.algebraic}")
        print(f"   elliptic over the reals: {verdict.real}")
        if verdict.witness is not None:
            w = verdict.witness
            tag = "" if w.is_rational() else (
                f"  (t is a root of {list(w.defining_poly)},"
                f" {'real' if w.real else 'non-real'})")
            print(f"   witness direction: ({', '.join(w.as_strings())}){tag}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
