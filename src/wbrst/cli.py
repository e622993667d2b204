"""Command line front end.

Subcommand groups:

* ``qla``    -- quantum Lie algebra datasets: axiom suites and the
  ghost differential;
* ``cft``    -- operator product tables: validation, products, Jacobi,
  BRST currents, critical charges;
* ``oracle`` -- Fock-space mode crosscheck of the engine.

Exit codes: 0 all checks passed, 1 a check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .algebras import bundled_text
from .analysis import jacobi_check, validate_table
from .brst import (brst_w3, brst_w32, critical_charge, nilpotency,
                   solve_conventional, unconventional_terms)
from .errors import WbrstError
from .modes import crosscheck_bundle
from .omega import OmegaAlgebra, build_q, verify_nilpotent
from .parsing import (format_field_expr, format_monomial,
                      parse_algebra_file, parse_field_expr, parse_qla_file)
from .scalars import format_rational
from .tensors import (check_proof_identities, check_qla_axioms,
                      check_twist_axioms)


class InputError(WbrstError):
    pass


# what main reports as bad input (exit 2) rather than a failed check: every
# exception the package raises on purpose, and unreadable files or values
BAD_INPUT = (WbrstError, ValueError, OSError)


def _read_input(path, kind, a2=None) -> str:
    """Contents of a definition file: a filesystem path, or the name of a
    bundled table (with or without the extension).  ``a2 == "printed"``
    selects the as-printed w3 table and is bad input for any other."""
    stem = path[: -len(kind) - 1] if path.endswith("." + kind) else path
    if a2 == "printed":
        if stem != "w3" or os.path.exists(path):
            raise InputError("--a2 printed applies only to the bundled "
                             f"table w3, not {path}")
        stem = "w3_printed"
    elif os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    try:
        return bundled_text(stem, kind)
    except (FileNotFoundError, ModuleNotFoundError):
        raise InputError(f"no such file or bundled table: {path}") from None


def _load_algebra(path, a2=None, bindings=None):
    return parse_algebra_file(_read_input(path, "alg", a2=a2), bindings)


def _load_qla(path):
    return parse_qla_file(_read_input(path, "qla"))


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


# -- qla -------------------------------------------------------------------


def _axiom_payload(reports) -> dict:
    checks = {}
    for label, rep in reports:
        for name in sorted(rep.residuals):
            entry = {"pass": rep.passed(name)}
            if not entry["pass"]:
                entry["residual"] = [_residual_item(item)
                                     for item in rep.residuals[name][:4]]
            checks[f"{label}.{name}"] = entry
    return checks


def _residual_item(item):
    """JSON form of one residual entry: [[row multi-index, column
    multi-index], value] for a matrix entry, else the message."""
    from .scalars import RationalFunction
    *idx, last = item
    if isinstance(last, RationalFunction):
        return [idx, format_rational(last)]
    return [str(x) for x in item]


def cmd_qla_check(args) -> int:
    data, twist = _load_qla(args.file)
    reports = [
        ("axioms", check_qla_axioms(data)),
        ("twist", check_twist_axioms(data.sigma, twist, data.c)),
        ("proof", check_proof_identities(data.sigma, data.c, twist)),
    ]
    checks = _axiom_payload(reports)
    ok = all(e["pass"] for e in checks.values())
    payload = {"file": args.file, "ok": ok, "checks": checks}
    _emit(payload, args.json,
          [f"{name}: {'pass' if e['pass'] else 'FAIL'}"
           for name, e in checks.items()] + [f"result: {'pass' if ok else 'FAIL'}"])
    return 0 if ok else 1


def cmd_qla_brst(args) -> int:
    data, twist = _load_qla(args.file)
    alg = OmegaAlgebra(data, twist)
    q = build_q(alg)
    ok, residual = verify_nilpotent(alg)
    payload = {"file": args.file,
               "ghost_number": q.ghost_number(),
               "verdict": "nilpotent" if ok else "obstructed"}
    lines = [f"ghost number of Q: {q.ghost_number()}",
             f"Q^2: {'zero' if ok else 'NONZERO'}"]
    if not ok:
        payload["residual_sectors"] = sorted(
            "".join(w) for w in residual.terms)
        lines.append("residual sectors: "
                     + ", ".join(payload["residual_sectors"]))
    _emit(payload, args.json, lines)
    return 0 if ok else 1


# -- cft -------------------------------------------------------------------


def cmd_cft_validate(args) -> int:
    alg = _load_algebra(args.file, a2=args.a2)
    issues = validate_table(alg)
    payload = {"file": args.file, "algebra": alg.name,
               "ok": not issues, "issues": issues}
    _emit(payload, args.json,
          [f"table {alg.name}: "
           + ("consistent" if not issues else f"{len(issues)} issue(s)")]
          + [f"  {i}" for i in issues])
    return 0 if not issues else 1


def _bindings(pairs) -> dict:
    out = {}
    for item in pairs or ():
        name, _, value = item.partition("=")
        try:
            out[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"binding {item!r} is not an exact rational") from None
    return out


def cmd_cft_ope(args) -> int:
    binds = _bindings(args.set)
    alg = _load_algebra(args.file, bindings=binds)
    a = parse_field_expr(args.a, alg, bindings=binds)
    b = parse_field_expr(args.b, alg, bindings=binds)
    poles = alg.context().ope(a, b)
    payload = {"file": args.file, "a": args.a, "b": args.b,
               "poles": {str(n): format_field_expr(poles[n])
                         for n in sorted(poles, reverse=True)}}
    _emit(payload, args.json,
          [f"pole {n}: {format_field_expr(poles[n])}"
           for n in sorted(poles, reverse=True)] or ["regular product"])
    return 0


def cmd_cft_jacobi(args) -> int:
    alg = _load_algebra(args.file)
    a = parse_field_expr(args.a, alg)
    b = parse_field_expr(args.b, alg)
    c = parse_field_expr(args.c, alg)
    bad = jacobi_check(alg.context(), a, b, c)
    payload = {"file": args.file, "ok": not bad,
               "residuals": [{"p": p, "q": q, "value": format_field_expr(r)}
                             for p, q, r in bad]}
    _emit(payload, args.json,
          [f"jacobi: {'pass' if not bad else f'{len(bad)} residual(s)'}"]
          + [f"  ({p},{q}): {format_field_expr(r)}" for p, q, r in bad])
    return 0 if not bad else 1


def _rational(name, value) -> Fraction:
    """The value of option ``name``, read as ``--set name=value`` is."""
    return _bindings([f"{name}={value}"])[name]


def _build_current(args):
    """The current of ``cft brst``.  An option that does not apply to it
    is bad input: --g1, --g2 and --a2 on w32 (W3^(2) has no ghost
    parameters and no as-printed table), and --c with --symbolic-c."""
    if args.symbolic_c and args.c is not None:
        raise InputError("--c and --symbolic-c exclude each other")
    given = [f"--{name}" for name in ("g1", "g2", "a2")
             if getattr(args, name) is not None]
    if args.family == "w32" and given:
        raise InputError(f"w32 takes no {' or '.join(given)}")
    default_c = "100" if args.family == "w3" else "-2"
    c = None if args.symbolic_c else _rational(
        "c", default_c if args.c is None else args.c)
    if args.family == "w32":
        return brst_w32(c=c)
    g1, g2 = (None if v == "symbolic"
              else _rational(name, "0" if v is None else v)
              for name, v in (("g1", args.g1), ("g2", args.g2)))
    return brst_w3(g1, g2, c=c, a2_mode=(
        "as-printed" if args.a2 == "printed" else "exchange-consistent"))


def cmd_cft_brst(args) -> int:
    q = _build_current(args)
    rep = nilpotency(q)
    payload = rep.to_json()
    payload["family"] = args.family
    if args.symbolic_c:
        roots = critical_charge(q, "c")
        payload["critical_roots"] = (
            "all" if roots is None else [str(r) for r in sorted(roots)])
    extra = unconventional_terms(q)
    payload["unconventional_terms"] = [
        {"monomial": format_monomial(m), "coefficient": format_rational(v)}
        for m, v in extra]
    lines = [f"verdict: {payload['verdict']}"]
    if payload["verdict"] != "nilpotent":
        lines.append(f"obstruction: {payload['obstruction']}")
    if "critical_roots" in payload:
        lines.append(f"critical roots: {payload['critical_roots']}")
    for t in payload["unconventional_terms"]:
        lines.append(f"degree>3 term: {t['coefficient']} * {t['monomial']}")
    _emit(payload, args.json, lines)
    return 0 if rep.nilpotent else 1


def cmd_cft_critical(args) -> int:
    if args.family == "w3":
        q = brst_w3(0, 0, c=None)
    else:
        q = brst_w32(c=None)
    roots = critical_charge(q, "c")
    values = "all" if roots is None else [str(r) for r in sorted(roots)]
    payload = {"family": args.family, "roots": values}
    _emit(payload, args.json, [f"roots: {values}"])
    return 0 if (roots is None or roots) else 1


def cmd_cft_solve_conventional(args) -> int:
    g1, g2 = solve_conventional()
    payload = {"g1": str(g1), "g2": str(g2)}
    _emit(payload, args.json, [f"g1={g1} g2={g2}"])
    return 0


# -- oracle ----------------------------------------------------------------


def cmd_oracle_crosscheck(args) -> int:
    alg = _load_algebra(args.file)
    rep = crosscheck_bundle(alg, args.level)
    lines = []
    for s in rep["systems"]:
        lines.append(f"system ({s['b']}, {s['c']}) weight {s['weight']}: "
                     f"{s['states']} states, central charge {s['central_charge']}")
    bad = [e for e in rep["checks"] if not e["match"]]
    lines.append(f"checks: {len(rep['checks'])}, mismatches: {len(bad)}")
    for e in bad[:4]:
        lines.append(f"  {e}")
    _emit(rep, args.json, lines)
    return 0 if rep["ok"] else 1


# -- wiring ----------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wbrst",
        description="Exact checks for quantum Lie algebra differentials "
                    "and chiral operator product algebra.")
    sub = p.add_subparsers(dest="group", required=True)

    qla = sub.add_parser("qla", help="quantum Lie algebra datasets")
    qsub = qla.add_subparsers(dest="cmd", required=True)
    q1 = qsub.add_parser("check", help="run the axiom and proof suites")
    q1.add_argument("file")
    q1.set_defaults(fn=cmd_qla_check)
    q2 = qsub.add_parser("brst", help="build the differential and square it")
    q2.add_argument("file")
    q2.set_defaults(fn=cmd_qla_brst)

    cft = sub.add_parser("cft", help="operator product tables")
    csub = cft.add_subparsers(dest="cmd", required=True)
    c1 = csub.add_parser("validate", help="grading and exchange consistency")
    c1.add_argument("file")
    c1.add_argument("--a2", choices=("printed", "consistent"),
                    default="consistent")
    c1.set_defaults(fn=cmd_cft_validate)
    c2 = csub.add_parser("ope", help="singular product of two expressions")
    c2.add_argument("file")
    c2.add_argument("a")
    c2.add_argument("b")
    c2.add_argument("--set", action="append", metavar="NAME=VALUE")
    c2.set_defaults(fn=cmd_cft_ope)
    c3 = csub.add_parser("jacobi", help="pole-bracket Jacobi residuals")
    c3.add_argument("file")
    c3.add_argument("a")
    c3.add_argument("b")
    c3.add_argument("c")
    c3.set_defaults(fn=cmd_cft_jacobi)
    c4 = csub.add_parser("brst", help="nilpotency of a built-in current")
    c4.add_argument("family", choices=("w3", "w32"))
    # None marks an option not given: w32 rejects --g1, --g2 and --a2
    c4.add_argument("--g1", default=None, help="w3 only (default 0)")
    c4.add_argument("--g2", default=None, help="w3 only (default 0)")
    c4.add_argument("--c", default=None)
    c4.add_argument("--symbolic-c", action="store_true")
    c4.add_argument("--a2", choices=("printed", "consistent"), default=None,
                    help="w3 only (default consistent)")
    c4.set_defaults(fn=cmd_cft_brst)
    c5 = csub.add_parser("critical", help="central charges admitting "
                                          "a nilpotent charge")
    c5.add_argument("family", choices=("w3", "w32"))
    c5.set_defaults(fn=cmd_cft_critical)
    c6 = csub.add_parser("solve-conventional",
                         help="ghost parameters removing all degree>3 terms")
    c6.set_defaults(fn=cmd_cft_solve_conventional)

    orc = sub.add_parser("oracle", help="Fock-space mode crosscheck")
    osub = orc.add_subparsers(dest="cmd", required=True)
    o1 = osub.add_parser("crosscheck", help="engine vs mode matrices")
    o1.add_argument("file")
    o1.add_argument("--level", type=int, default=4)
    o1.set_defaults(fn=cmd_oracle_crosscheck)

    for spp in (q1, q2, c1, c2, c3, c4, c5, c6, o1):
        spp.add_argument("--json", action="store_true",
                         help="emit a JSON report")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except BAD_INPUT as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
