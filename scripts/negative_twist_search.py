#!/usr/bin/env python3
"""Find the first order admitting operators into a negative twist.

Order-zero maps O -> O(-d) are plain sections of O(-d), so none exist;
differential operators of high enough order do.  The script locates the
first order with a nonzero space for each drop d and prints the dimension
profile up to the search budget.

Example:
    python3 scripts/negative_twist_search.py --n 2 --max-drop 3 --budget 4
"""

import argparse
import sys

from jetspace.dimensions import do_dimensions, negative_twist_existence


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2, help="projective dimension")
    ap.add_argument("--max-drop", type=int, default=3, dest="max_drop",
                    help="largest twist drop d to try")
    ap.add_argument("--budget", type=int, default=4,
                    help="largest order searched per drop")
    args = ap.parse_args(argv)

    print(f"operators O -> O(-d) on P^{args.n}, orders 0..{args.budget}")
    print(f"{'d':>3} {'first order':>12} {'dim there':>10}   profile")
    for d in range(1, args.max_drop + 1):
        res = negative_twist_existence(args.n, d, n_max=args.budget)
        profile = list(do_dimensions(args.n, 0, -d, args.budget))
        first = "-" if res.order is None else res.order
        print(f"{d:>3} {first:>12} {res.dim:>10}   {profile}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
