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
from fractions import Fraction

# Modules, not names: a module's body runs only when a subcommand first reads
# from it (see __init__), so each subcommand pays for the modules it uses.
from . import cohomology, growth, jets, laurent, presented, projective, symbols, weyl
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
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _unlimited_digits(fn, *args):
    """fn(*args) with Python's limit on int-to-str digits lifted: exact
    results such as C(199998, 99999) pass it.  Parsing input keeps it."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return fn(*args)
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return fn(*args)
    finally:
        set_limit(old)


def _frac_str(x) -> str:
    return str(Fraction(x))


def _parse_operator(args) -> list[list[weyl.WeylElement]]:
    """Either a single --op string or a --matrix JSON array of strings."""
    if getattr(args, "matrix", None):
        try:
            raw = json.loads(args.matrix)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"--matrix is not valid JSON: {exc}") from exc
        if (not isinstance(raw, list) or not raw
                or any(not isinstance(row, list) or len(row) != len(raw)
                       or not all(isinstance(cell, str) for cell in row) for row in raw)):
            raise _UsageError("--matrix must be a square JSON array of arrays of strings")
        try:
            return [[weyl.WeylElement.parse(cell) for cell in row] for row in raw]
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    if getattr(args, "op", None):
        try:
            return [[weyl.WeylElement.parse(args.op)]]
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    raise _UsageError("one of --op or --matrix is required")


# ---- subcommand handlers ----------------------------------------------


def _cmd_dim_do(args) -> dict:
    space = projective.global_do_dimension(args.n, args.a, args.b, args.N)
    return {
        "n": args.n, "a": args.a, "b": args.b, "N": args.N,
        "dim": space.dim, "box": space.box,
        "candidates": projective.candidate_count(args.n, args.a, args.b, args.N),
    }


def _cmd_growth_table(args) -> dict | str:
    nmax = growth.default_n_max(args.n) if args.nmax is None else args.nmax
    report = growth.verify_growth(args.n, args.a, args.b, nmax)
    return _unlimited_digits(_growth_report, args, nmax, report)


def _growth_report(args, nmax: int, report) -> dict | str:
    footer = {
        "M": report.table.threshold,
        "P_coeffs": [_frac_str(c) for c in report.polynomial.coeffs],
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
            "constant": _frac_str(report.polynomial.constant),
            "first_failure": report.first_failure,
            **footer,
        }
    buf = io.StringIO()
    buf.write("N,dim,delta,expected_delta,match\n")
    for r in report.table.rows:
        delta = "" if r.delta is None else str(r.delta)
        expected = "" if r.expected_delta is None else str(r.expected_delta)
        match = "" if r.match is None else ("true" if r.match else "false")
        buf.write(f"{r.order},{r.dim},{delta},{expected},{match}\n")
    buf.write(json.dumps(footer, sort_keys=True) + "\n")
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
            full = cohomology.line_cohomology(args.n, args.k)
            if not (0 <= args.i <= args.n):
                raise PreconditionError(f"i must lie in [0, {args.n}]")
            h = full.dims[args.i]
        return {
            "n": args.n, "k": args.k, "i": args.i,
            "h": h, "method": method,
        }
    else:
        full = cohomology.line_cohomology(args.n, args.k)
        return {
            "n": args.n, "k": args.k,
            "h": list(full.dims), "chi": full.chi,
        }


def _cmd_symbol(args) -> dict:
    ops = _parse_operator(args)
    sym = symbols.symbol_of(ops, args.N)
    return {
        "m": sym.m, "N": args.N, "size": sym.size,
        "entries": [[laurent.format_terms(p.terms, ("x", "s"), sym.m) for p in row]
                    for row in sym.entries],
        "constant_coefficient": sym.constant_coefficient,
        "torus_operator": symbols.torus_operator_check(ops),
    }


def _cmd_elliptic_check(args) -> dict:
    sym = symbols.symbol_of(_parse_operator(args), args.N)
    payload = {
        "mode": args.mode, "m": sym.m, "N": args.N,
    }
    if args.mode == "algebraic":
        res = symbols.elliptic_algebraic(sym)
        payload.update({
            "elliptic": res.elliptic,
            "witness": res.witness.as_strings() if res.witness else None,
            "witness_defining_poly": (list(res.witness.defining_poly)
                                      if res.witness and res.witness.defining_poly
                                      else None),
            "witness_real": res.witness.real if res.witness else None,
            "reason": res.reason,
        })
    else:
        res = symbols.elliptic_real(sym)
        payload.update({
            "verdict": res.verdict,
            "witness": res.witness.as_strings() if res.witness else None,
            "sign_points": ([[_frac_str(v) for v in pt] for pt in res.sign_points]
                            if res.sign_points else None),
            "reason": res.reason,
        })
    return payload


def _coefficient(text: str, where: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:
        raise _UsageError(f"bad coefficient {text!r} in {where}") from None
    except ZeroDivisionError:
        raise _UsageError(f"zero denominator in coefficient {text!r} in {where}") from None


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
        coeffs = [_coefficient(p, "--cyclic") for p in args.cyclic.split(",")]
        p = presented.UniPoly(coeffs)
        torsion = jets.cyclic_jet_invariants(p, args.N)
        return {
            "action": "cyclic",
            "N": args.N, "modulus": repr(p),
            "invariants": [repr(d) for d in torsion],
            "free_rank": 0,
            "torsion": True,
            "length": sum(d.degree() for d in torsion),
        }


def _cmd_induced_map(args) -> dict:
    op = _parse_operator(args)[0][0]
    matrix = projective.induced_cohomology_map(args.n, args.a, args.b, op, args.i)
    if args.i == 0:
        source = projective.h0_basis(args.n, args.a)
        target = projective.h0_basis(args.n, args.b)
    else:
        source = projective.hn_basis(args.n, args.a)
        target = projective.hn_basis(args.n, args.b)
    return {
        "n": args.n, "a": args.a, "b": args.b, "i": args.i,
        "source_dim": matrix.cols, "target_dim": matrix.rows,
        "source_basis": [list(e) for e in source],
        "target_basis": [list(e) for e in target],
        "matrix": [[_frac_str(c) for c in row] for row in matrix.to_rows()],
        "rank": matrix.rank(),
    }


def _cmd_block_op(args) -> dict:
    block = projective.block_operator(args.n, args.m, args.d, _parse_operator(args)[0][0])
    report = block.verify()
    return {
        "n": args.n, "m": args.m, "d": args.d,
        "order": report.order,
        "report": {
            "preserves_second_summand": report.preserves_second_summand,
            "identity_on_sub": report.identity_on_sub,
            "identity_on_quotient": report.identity_on_quotient,
            "order_witness": (list(report.order_witness)
                              if report.order_witness is not None else None),
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
    try:
        args = parser.parse_args(argv)
        report = args.func(args)
        if not isinstance(report, str):
            report = _unlimited_digits(
                _json_text, {"schema": SCHEMA, "command": args.command, **report})
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


if __name__ == "__main__":
    raise SystemExit(main())
