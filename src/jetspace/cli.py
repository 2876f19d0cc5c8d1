"""Command-line interface.

Subcommands: dim-do, growth-table, cohomology, symbol, elliptic-check, jet,
induced-map, block-op.  Reports are JSON with sorted keys (growth-table
defaults to CSV with a JSON footer); identical invocations produce identical
bytes.  Exit codes: 0 success, 1 malformed usage, 2 precondition failure,
3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

# Modules, not names: a module's body runs only when a subcommand first reads
# from it (see __init__), so each subcommand pays for the modules it uses.
from . import (cohomology, dimensions, growth, jets, laurent, presented, projective,
               symbols, weyl)
from .errors import InconsistencyError, PreconditionError

SCHEMA = "jetspace/1"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write --output {output!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    """The one renderer: handlers return Fractions, UniPolys and tuples, and
    every value JSON has no type for prints as its str."""
    return json.dumps(obj, sort_keys=True, indent=2, default=str) + "\n"


def _parse_operator(text: str) -> weyl.WeylElement:
    """One operator text, as --op gives it."""
    try:
        return weyl.WeylElement.parse(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_operand(args) -> list[list[weyl.WeylElement]]:
    """symbol's and elliptic-check's operand: one --op text, or a --matrix
    JSON array of operator texts."""
    if args.op is not None and args.matrix is not None:
        raise _UsageError("give only one of --op or --matrix")
    if args.op is not None:
        return [[_parse_operator(args.op)]]
    if args.matrix is None:
        raise _UsageError("one of --op or --matrix is required")
    try:
        raw = json.loads(args.matrix)
    except (ValueError, RecursionError) as exc:
        raise _UsageError(f"--matrix is not valid JSON: {exc}") from exc
    if (not isinstance(raw, list) or not raw
            or any(not isinstance(row, list) or len(row) != len(raw)
                   or not all(isinstance(cell, str) for cell in row) for row in raw)):
        raise _UsageError("--matrix must be a square JSON array of arrays of strings")
    return [[_parse_operator(cell) for cell in row] for row in raw]


# ---- subcommand handlers ----------------------------------------------


def _cmd_dim_do(args) -> dict:
    space = dimensions.global_do_dimension(args.n, args.a, args.b, args.N)
    return {
        "n": args.n, "a": args.a, "b": args.b, "N": args.N,
        "dim": space.dim, "box": space.box,
        "candidates": dimensions.candidate_count(args.n, args.a, args.b, args.N),
    }


def _cmd_growth_table(args) -> dict | str:
    nmax = growth.default_n_max(args.n) if args.nmax is None else args.nmax
    report = growth.verify_growth(args.n, args.a, args.b, nmax)
    footer = {
        "M": report.table.threshold,
        "P_coeffs": report.polynomial.coeffs,
        "verdict": report.verdict,
    }
    if args.format == "json":
        return {
            "n": args.n, "a": args.a, "b": args.b, "nmax": nmax,
            "rows": [
                {"N": r.order, "dim": r.dim, "delta": r.delta,
                 "expected_delta": r.expected_delta, "match": r.match}
                for r in report.table.rows
            ],
            "constant": report.polynomial.constant,
            "first_failure": report.first_failure,
            **footer,
        }
    buf = io.StringIO()
    buf.write("N,dim,delta,expected_delta,match\n")
    for r in report.table.rows:
        match = None if r.match is None else ("true" if r.match else "false")
        buf.write(",".join("" if v is None else str(v) for v in
                           (r.order, r.dim, r.delta, r.expected_delta, match)) + "\n")
    buf.write(json.dumps(footer, sort_keys=True, default=str) + "\n")
    return buf.getvalue()


def _cmd_cohomology(args) -> dict:
    if args.method is not None and args.i is None:
        raise _UsageError("--method needs --i")
    if args.j is not None:
        result = cohomology.h0_sym_tangent(args.n, args.k, args.j)
        return {
            "n": args.n, "k": args.k, "j": args.j,
            "h0": result.h0, "chi": result.chi,
        }
    elif args.i is not None:
        method = args.method or "closed"
        if method == "cech":
            h = cohomology.cech_line_oracle(args.n, args.k, args.i)
        else:
            # the range first, so a bad --i costs no binomial; n < 1 stays
            # line_cohomology's refusal
            if args.n >= 1 and not 0 <= args.i <= args.n:
                raise PreconditionError(f"i must lie in [0, {args.n}]")
            h = cohomology.line_cohomology(args.n, args.k).dims[args.i]
        return {
            "n": args.n, "k": args.k, "i": args.i,
            "h": h, "method": method,
        }
    else:
        full = cohomology.line_cohomology(args.n, args.k)
        return {
            "n": args.n, "k": args.k,
            "h": full.dims, "chi": full.chi,
        }


def _cmd_symbol(args) -> dict:
    ops = _parse_operand(args)
    sym = symbols.symbol_of(ops, args.N)
    return {
        "m": sym.m, "N": args.N, "size": sym.size,
        "entries": [[laurent.format_terms(p.terms, ("x", "s"), sym.m) for p in row]
                    for row in sym.entries],
        "constant_coefficient": sym.constant_coefficient,
        "torus_operator": symbols.torus_operator_check(ops),
    }


def _cmd_elliptic_check(args) -> dict:
    sym = symbols.symbol_of(_parse_operand(args), args.N)
    payload = {"mode": args.mode, "m": sym.m, "N": args.N}
    if args.mode == "algebraic":
        res = symbols.elliptic_algebraic(sym)
        w = res.witness
        payload.update(elliptic=res.elliptic, witness_defining_poly=w and w.defining_poly,
                       witness_real=w and w.real)
    else:
        res = symbols.elliptic_real(sym)
        w = res.witness
        payload.update(verdict=res.verdict, sign_points=res.sign_points)
    payload.update(witness=w and w.components, reason=res.reason)
    return payload


def _parse_poly(text: str) -> laurent.LaurentPoly:
    """Polynomial text "c * x^(e0,..,em)" terms joined by '+'."""
    try:
        return laurent.LaurentPoly(*laurent.parse_terms(text, ("x",)))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_jet(args) -> dict:
    actions = [args.derive is not None, args.free_rank, args.cyclic is not None]
    if sum(actions) != 1:
        raise _UsageError("choose exactly one of --derive, --free-rank, --cyclic")
    if args.free_rank:
        if args.m is None or args.r is None:
            raise _UsageError("--free-rank needs --m and --r")
        return {
            "action": "free-rank",
            "m": args.m, "N": args.N, "r": args.r,
            "rank": jets.jet_free_rank(args.m, args.N, args.r),
        }
    elif args.derive is not None:
        poly = _parse_poly(args.derive)
        jet = jets.universal_derivation(poly, args.N)
        return {
            "action": "derive",
            "m": jet.m, "N": args.N,
            "jet": laurent.format_terms(jet.poly.terms, ("x", "dx"), jet.m),
        }
    else:
        try:
            coeffs = [laurent.parse_coefficient(c) for c in args.cyclic.split(",")]
        except ValueError as exc:
            raise _UsageError(f"{exc} in --cyclic") from None
        p = presented.UniPoly(coeffs)
        torsion = jets.cyclic_jet_invariants(p, args.N)
        return {
            "action": "cyclic",
            "N": args.N, "modulus": p,
            "invariants": torsion,
            "free_rank": 0,
            "torsion": True,
            "length": sum(d.degree() for d in torsion),
        }


def _cmd_induced_map(args) -> dict:
    op = _parse_operator(args.op)
    matrix, source, target = projective._induced_map(args.n, args.a, args.b, op, args.i)
    return {
        "n": args.n, "a": args.a, "b": args.b, "i": args.i,
        "source_dim": matrix.cols, "target_dim": matrix.rows,
        "source_basis": source, "target_basis": target,
        "matrix": matrix.to_rows(),
        "rank": matrix.rank(),
    }


def _cmd_block_op(args) -> dict:
    block = projective.block_operator(args.n, args.m, args.d, _parse_operator(args.op))
    report = block.verify()
    return {
        "n": args.n, "m": args.m, "d": args.d,
        "order": report.order,
        "report": {
            "preserves_second_summand": report.preserves_second_summand,
            "identity_on_sub": report.identity_on_sub,
            "identity_on_quotient": report.identity_on_quotient,
            "order_witness": report.order_witness,
            "ok": report.ok,
        },
    }


# ---- parser wiring -----------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="jetspace",
                     description="Exact differential-operator computations on "
                                 "projective space")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("dim-do", help="dimension of the global operator space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_dim_do)

    p = sub.add_parser("growth-table", help="dimension sweep with growth polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    common(p)
    p.set_defaults(func=_cmd_growth_table)

    p = sub.add_parser("cohomology", help="line bundle / symmetric tangent cohomology")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--i", type=int, default=None)
    group.add_argument("--j", type=int, default=None,
                       help="twist: report h0 of Sym^k T(j) instead")
    p.add_argument("--method", choices=("closed", "cech"), default=None,
                   help="route for --i (default: closed)")
    common(p)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("symbol", help="order-N symbol of an operator (matrix)")
    p.add_argument("--op", help="operator text: 'c * x^(..) d^(..) + ...'")
    p.add_argument("--matrix", help="JSON array of arrays of operator texts")
    p.add_argument("--N", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_symbol)

    p = sub.add_parser("elliptic-check", help="ellipticity of a symbol determinant")
    p.add_argument("--mode", choices=("algebraic", "real"), required=True)
    p.add_argument("--op")
    p.add_argument("--matrix")
    p.add_argument("--N", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_elliptic_check)

    p = sub.add_parser("jet", help="jet computations over affine rings")
    p.add_argument("--derive", help="polynomial text: 'c * x^(e0,..)' + ...")
    p.add_argument("--free-rank", action="store_true", dest="free_rank")
    p.add_argument("--cyclic", help="comma coefficients of p for Q[t]/(p)")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--N", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_jet)

    p = sub.add_parser("induced-map", help="matrix induced on H^0 or H^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--op", required=True)
    common(p)
    p.set_defaults(func=_cmd_induced_map)

    p = sub.add_parser("block-op", help="verify a unipotent block operator")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--op", required=True, help="the off-diagonal operator D12")
    common(p)
    p.set_defaults(func=_cmd_block_op)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # exact results such as C(199998, 99999) pass Python's limit on int <->
    # str digits, so it is lifted once around handling and rendering; the
    # options are parsed under it, and every literal laurent reads is capped
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        args = parser.parse_args(argv)
        if limit:
            sys.set_int_max_str_digits(0)
        report = args.func(args)
        if not isinstance(report, str):
            report = _json_text({"schema": SCHEMA, "command": args.command, **report})
        _emit(report, args.output)
        return 0
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 1
    except PreconditionError as exc:
        sys.stderr.write(f"precondition failed: {exc}\n")
        return 2
    except InconsistencyError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
