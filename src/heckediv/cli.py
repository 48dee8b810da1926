"""Command-line front-end with bit-exact JSON output.

Verbs: qexp, hecke-add, hecke-mult, algebra-mul, divisor, hecke-div, bko,
rohrlich, niebur, verify.  Exact verbs emit rationals as "num/den" strings
and never print floating point; numeric verbs embed their evaluation
parameters in the output so runs are reproducible.  Exit codes: 0 success
(all checks pass for `verify`), 1 computation error or failed check,
2 usage error (a malformed flag value, such as an unknown `--form` name).

The numeric `rohrlich` sum (s > 1) and `niebur` run in doubles: they
print at most 17 significant digits and the estimated truncation error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import algebra, curve, forms, niebur, operators, pairing, verify
from .errors import HeckeDivError
from .niebur import EvalParams


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _spectral_s(text: str, exact_one: bool = False) -> float:
    """s of a Poincare sum: finite and > 1, or exactly 1 where `exact_one`
    (the exact s = 1 slice of `rohrlich`)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > 1 or (exact_one and value == 1))):
        bound = ">= 1" if exact_one else "> 1"
        raise argparse.ArgumentTypeError(f"s must be a finite number {bound}: {text!r}")
    return value


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    # table: flat key/value or one line per report
    if isinstance(payload, list):
        for row in payload:
            status = "PASS" if row.get("passed") else "FAIL"
            tol = f" (tol {row['tolerance']})" if row.get("tolerance") else ""
            print(f"{status}  {row['name']}{tol}")
            if not row.get("passed"):
                print(f"      lhs: {row['lhs']}")
                print(f"      rhs: {row['rhs']}")
    elif isinstance(payload, dict):
        for k, v in payload.items():
            print(f"{k}: {json.dumps(v) if not isinstance(v, str) else v}")
    else:
        print(payload)


_HECKE_LABEL = re.compile(r"T(-?\d+)|T\(\s*(-?\d+)\s*(?:,\s*(-?\d+)\s*)?\)")


def _hecke_label(text: str) -> tuple[int, ...]:
    """(n,) or (a, d) of a Hecke element written Tn, T(n) or T(a,d); whether
    they label an element at the level is checked later, as a typed error."""
    match = _HECKE_LABEL.fullmatch(text.strip())
    if match is None:
        raise argparse.ArgumentTypeError(f"not a Hecke element Tn, T(n) or T(a,d): {text!r}")
    return tuple(int(g) for g in match.groups() if g is not None)


def _element(label: tuple[int, ...], N: int) -> algebra.AlgebraElement:
    return algebra.t_n(label[0], N) if len(label) == 1 else algebra.t_ad(*label, N)


def _upper_half_plane_point(text: str) -> complex:
    """'re,im' with finite re and im > 0."""
    try:
        x, y = map(float, text.split(","))
    except ValueError:
        x = y = math.nan
    if not (math.isfinite(x) and math.isfinite(y) and y > 0):
        raise argparse.ArgumentTypeError(f"tau must be 're,im' with finite re and im > 0: {text!r}")
    return complex(x, y)


def _attach_tau(argv: list[str]) -> list[str]:
    """`--tau -0.25,1` as `--tau=-0.25,1`: argparse reads a value that
    starts with '-' as an option unless it is a plain number."""
    out = []
    for arg in argv:
        if out and out[-1] == "--tau" and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _mpc_pair(value, digits: int) -> list[str]:
    # at a working precision of `digits`, so that an mpmath value keeps the
    # digits it is printed with (a double converts exactly from dps 15 up)
    import mpmath
    with mpmath.workdps(max(digits, 15)):
        z = mpmath.mpc(value)
        return [mpmath.nstr(mpmath.re(z), digits), mpmath.nstr(mpmath.im(z), digits)]


def build_parser() -> argparse.ArgumentParser:
    # --format is accepted both before and after the verb; the subparser
    # copy must not clobber a value given up front, hence SUPPRESS
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"),
                        default=argparse.SUPPRESS)
    ap = argparse.ArgumentParser(
        prog="heckediv",
        description="Exact Hecke operators, divisors on X_0(N), and the "
                    "divisor-sum verification suites.")
    ap.add_argument("--format", choices=("json", "table"), default="json")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("qexp", help="q-expansion of a registered form")
    p.add_argument("--form", required=True)
    p.add_argument("--prec", type=_positive_int, default=20)

    p = add_parser("hecke-add", help="additive Hecke image f|_k T(n)")
    p.add_argument("--form", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--level", type=_positive_int, default=1)
    p.add_argument("--prec", type=_positive_int, default=20)
    p.add_argument("--normalization", choices=("normalized", "classical"),
                   default="normalized")

    p = add_parser("hecke-mult", help="multiplicative Hecke image f|_* T(n)")
    p.add_argument("--form", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--level", type=_positive_int, default=1)
    p.add_argument("--prec", type=_positive_int, default=20)

    p = add_parser("algebra-mul", help="product in the Hecke algebra R_0(N)")
    p.add_argument("--N", type=_positive_int, required=True)
    p.add_argument("--u", type=_hecke_label, required=True)
    p.add_argument("--v", type=_hecke_label, required=True)

    p = add_parser("divisor", help="divisor of a form on X_0(level)")
    p.add_argument("--form", required=True)
    p.add_argument("--level", type=_positive_int, default=1)

    p = add_parser("hecke-div", help="T(n) applied to div(form)")
    p.add_argument("--form", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--level", type=_positive_int, default=1)

    p = add_parser("bko", help="(j_n, f)_BKO pairing, level 1")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--form", required=True)
    p.add_argument("--digits", type=_positive_int, default=30)

    p = add_parser("rohrlich", help="R_{N,m}(s; f): exact at s=1, numeric for s>1")
    p.add_argument("--N", type=_positive_int, default=1)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=lambda text: _spectral_s(text, exact_one=True),
                   default=1.0)
    p.add_argument("--form", required=True)
    p.add_argument("--C", type=_positive_int, default=300)
    p.add_argument("--digits", type=_positive_int, default=30)

    p = add_parser("niebur", help="Niebur-Poincare series value F_{N,-m}(tau, s)")
    p.add_argument("--N", type=_positive_int, default=1)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=_spectral_s, required=True)
    p.add_argument("--tau", type=_upper_half_plane_point, required=True,
                   help="complex point 're,im', im > 0")
    p.add_argument("--C", type=_positive_int, default=300)

    p = add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=verify.SUITES + ("all",))
    return ap


def _run(args) -> tuple[object, int]:
    expr = getattr(args, "expr", None)
    if args.verb == "qexp":
        return expr.qexp(args.prec).to_json(), 0

    if args.verb == "hecke-add":
        expr.check_level(args.level)
        k = expr.weight
        series = expr.qexp(max(args.prec * args.n + 8, 16))
        img = operators.hecke_additive_formula(series, k, args.n, args.normalization,
                                               args.level)
        # the formula's images live on grid 1
        return img.truncate(img.order + args.prec).to_json(), 0

    if args.verb == "hecke-mult":
        img = operators.hecke_multiplicative(expr, args.n, args.level,
                                             prec=args.prec)
        atom = img.atoms[0][0]
        payload = atom.series.to_json()
        payload["weight"] = img.weight
        payload["level"] = args.level
        return payload, 0

    if args.verb == "algebra-mul":
        u = _element(args.u, args.N)
        v = _element(args.v, args.N)
        return algebra.algebra_multiply(u, v).to_json(), 0

    if args.verb == "divisor":
        return curve.divisor_of_form(expr, args.level).to_json(), 0

    if args.verb == "hecke-div":
        D = curve.divisor_of_form(expr, args.level)
        return curve.hecke_divisor(args.n, D).to_json(), 0

    if args.verb == "bko":
        res = pairing.bko_pairing(args.n, expr, digits=args.digits)
        exact = pairing.r_at_s1(1, args.n, expr)
        return {"n": args.n, "form": args.form,
                "value": _mpc_pair(res.value, args.digits),
                "exact_s1": str(exact), "digits": args.digits}, 0

    if args.verb == "rohrlich":
        if args.s == 1.0:
            val = pairing.r_at_s1(args.N, args.m, expr)
            return {"N": args.N, "m": args.m, "s": "1", "exact": True,
                    "value": str(val)}, 0
        params = EvalParams(truncation=args.C, s=args.s)
        res = pairing.r_numeric(args.N, args.m, args.s, expr, params)
        return {"N": args.N, "m": args.m, "s": args.s, "exact": False,
                "value": _mpc_pair(res.value, min(args.digits, 17)),
                "error": f"{res.error_estimate:.6g}", "C": args.C}, 0

    if args.verb == "niebur":
        params = EvalParams(truncation=args.C, s=args.s)
        pv = niebur.niebur_value(args.N, args.m, args.tau, params)
        return {"value": _mpc_pair(pv.value, 17),
                "error": f"{pv.error_estimate:.6g}", "C": args.C}, 0

    if args.verb == "verify":
        names = verify.SUITES if args.suite == "all" else (args.suite,)
        reports = []
        for name in names:
            reports.extend(r.to_json() for r in verify.run_suite(name))
        code = 0 if all(r["passed"] for r in reports) else 1
        return reports, code

    raise ValueError(f"unhandled verb {args.verb}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_tau(sys.argv[1:] if argv is None else list(argv)))
    try:
        if hasattr(args, "form"):
            try:
                args.expr = forms.expression_by_name(args.form)
            except ValueError as exc:
                parser.error(f"argument --form: invalid form name {args.form!r}: {exc}")
        payload, code = _run(args)
    except HeckeDivError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args.format)
        return 1
    _emit(payload, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
