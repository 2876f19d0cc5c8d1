#!/usr/bin/env python3
"""Survey dimension growth of global operator spaces over a range of twists.

For each pair (a, b) the script sweeps order bounds N = 0..nmax, prints the
dimension table with increments against the symmetric-tangent prediction,
and reports the stabilization threshold M and the closed-form polynomial.

Example:
    python3 scripts/growth_survey.py --n 2 --nmax 4 --pairs 0:0 0:1 0:-1 0:2
"""

import argparse
import sys

from jetspace.errors import StabilizationError
from jetspace.growth import default_n_max, verify_growth


def parse_pair(text):
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"pair must look like a:b, got {text!r}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2, help="projective dimension")
    ap.add_argument("--nmax", type=int, default=None, help="largest order bound")
    ap.add_argument("--pairs", type=parse_pair, nargs="+",
                    default=[(0, 0), (0, 1), (0, -1), (0, 2)],
                    metavar="A:B", help="twist pairs to sweep")
    args = ap.parse_args(argv)
    nmax = args.nmax if args.nmax is not None else default_n_max(args.n)

    exit_code = 0
    for a, b in args.pairs:
        print(f"== P^{args.n}: operators O({a}) -> O({b}), N = 0..{nmax} ==")
        try:
            report = verify_growth(args.n, a, b, nmax)
        except StabilizationError as exc:
            print(f"  no stabilization in budget: {exc}\n")
            exit_code = 2
            continue
        print(f"  {'N':>3} {'dim':>8} {'delta':>8} {'expected':>8}  match")
        for row in report.table.rows:
            delta = "-" if row.delta is None else row.delta
            expected = "-" if row.expected_delta is None else row.expected_delta
            match = "-" if row.match is None else ("yes" if row.match else "NO")
            print(f"  {row.order:>3} {row.dim:>8} {delta:>8} {expected:>8}  {match}")
        poly = report.polynomial
        coeffs = ", ".join(str(c) for c in poly.coeffs)
        print(f"  threshold M = {report.table.threshold}")
        print(f"  P(N) coefficients (ascending): [{coeffs}]")
        print(f"  degree {poly.degree}, leading {poly.coeffs[-1]},"
              f" constant shift {poly.constant}")
        print(f"  verdict: {'ok' if report.verdict else 'MISMATCH'}"
              + ("" if report.first_failure is None
                 else f" (first failure at N = {report.first_failure})"))
        print()
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
