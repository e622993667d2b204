"""Command line front end.

Subcommand groups:

* ``qla``    -- quantum Lie algebra datasets: axiom suites and the
  ghost differential;
* ``cft``    -- operator product tables: validation, products, Jacobi,
  BRST currents, critical charges;
* ``oracle`` -- Fock-space mode crosscheck of the engine.

One table, ``COMMANDS``, drives both readers of a command line: ``_match``
reads a plain one without loading argparse, the argparse tree the rest.

Exit codes: 0 all checks passed, 1 a check failed, 2 bad input.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .algebras import bundled_text
from .analysis import jacobi_check, validate_table
from .brst import (CurrentFile, critical_charge, nilpotency,
                   solve_conventional, unconventional_terms)
from .errors import WbrstError
from .modes import crosscheck_bundle
from .omega import OmegaAlgebra, verify_nilpotent
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

# the bundled table --a2 printed reads in place of each one named here
_PRINTED = {"w3": "w3_printed"}


def _read_input(path, kind, a2=None) -> str:
    """Contents of a definition file: a filesystem path, or the name of a
    bundled table (with or without the extension).  ``a2`` given is bad
    input off the bundled tables of ``_PRINTED``; ``a2 == "printed"``
    renames such a table by it."""
    stem = path[: -len(kind) - 1] if path.endswith("." + kind) else path
    if a2 is not None:
        if stem not in _PRINTED or os.path.exists(path):
            raise InputError(f"--a2 {a2} applies only to the bundled "
                             f"table w3, not {path}")
        if a2 == "printed":
            stem = _PRINTED[stem]
    elif os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    try:
        return bundled_text(stem, kind)
    except FileNotFoundError:
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
    data = _load_qla(args.file)
    reports = [
        ("axioms", check_qla_axioms(data)),
        ("twist", check_twist_axioms(data)),
        ("proof", check_proof_identities(data)),
    ]
    checks = _axiom_payload(reports)
    ok = all(e["pass"] for e in checks.values())
    payload = {"file": args.file, "ok": ok, "checks": checks}
    _emit(payload, args.json,
          [f"{name}: {'pass' if e['pass'] else 'FAIL'}"
           for name, e in checks.items()] + [f"result: {'pass' if ok else 'FAIL'}"])
    return 0 if ok else 1


def cmd_qla_brst(args) -> int:
    alg = OmegaAlgebra(_load_qla(args.file))
    ok, residual = verify_nilpotent(alg)
    q = alg.q
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
        if name in out:
            raise InputError(f"binding of {name!r} given twice")
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
    """The current of ``cft brst``: --c, --g1 and --g2 bind the parameter
    of their name (``symbolic``, or --symbolic-c, leaves it unbound), the
    file's defaults the rest.  An option for a parameter no table has,
    --a2 off _PRINTED's tables, and --c with --symbolic-c are bad input."""
    if args.symbolic_c and args.c is not None:
        raise InputError("--c and --symbolic-c exclude each other")
    cur = CurrentFile(_read_input(args.file, "brst"),
                      _PRINTED if args.a2 == "printed" else None)
    given = {p: v for p, v in (("c", "symbolic" if args.symbolic_c
                                else args.c), ("g1", args.g1),
                               ("g2", args.g2)) if v is not None}
    wrong = ["--symbolic-c" if p == "c" and args.symbolic_c else f"--{p}"
             for p in given if p not in cur.params]
    if args.a2 is not None and cur.tables.keys().isdisjoint(_PRINTED):
        wrong.append("--a2")
    if wrong:
        raise InputError(f"{args.file} takes no {' or '.join(wrong)}")
    return cur.current({p: None if v == "symbolic" else _rational(p, v)
                        for p, v in given.items()})


def _roots(roots):
    """A ``critical_charge`` answer as printed."""
    return "all" if roots is None else [str(r) for r in sorted(roots)]


def cmd_cft_brst(args) -> int:
    q = _build_current(args)
    rep = nilpotency(q)
    payload = rep.to_json()
    payload["family"] = args.file
    if "c" in q.algebra.params:
        payload["critical_roots"] = _roots(critical_charge(q, "c"))
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
    q = CurrentFile(_read_input(args.file, "brst")).current({"c": None})
    values = _roots(critical_charge(q, "c"))
    payload = {"family": args.file, "roots": values}
    _emit(payload, args.json, [f"roots: {values}"])
    return 0 if values else 1


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


GROUPS = {"qla": "quantum Lie algebra datasets",
          "cft": "operator product tables",
          "oracle": "Fock-space mode crosscheck"}

_FILE = (("file", {}),)
_A2 = ("printed", "consistent")
_JSON = ("--json", {"action": "store_true", "help": "emit a JSON report"})

# (group, command) -> (help, handler, arguments), each argument a (name,
# add_argument keywords) pair; _parser and _match add _JSON to each
COMMANDS = {
    ("qla", "check"): ("run the axiom and proof suites", cmd_qla_check, _FILE),
    ("qla", "brst"): ("build the differential and square it", cmd_qla_brst,
                      _FILE),
    ("cft", "validate"): ("grading and exchange consistency", cmd_cft_validate,
                          _FILE + (("--a2", {"choices": _A2}),)),
    ("cft", "ope"): ("singular product of two expressions", cmd_cft_ope,
                     _FILE + (("a", {}), ("b", {}), ("--set", {
                         "action": "append", "metavar": "NAME=VALUE"}))),
    ("cft", "jacobi"): ("pole-bracket Jacobi residuals", cmd_cft_jacobi,
                        _FILE + (("a", {}), ("b", {}), ("c", {}))),
    # None marks an option not given, left to the current file's default
    ("cft", "brst"): ("nilpotency of a built-in current", cmd_cft_brst,
                      _FILE + (("--g1", {}), ("--g2", {}), ("--c", {}),
                               ("--symbolic-c", {"action": "store_true"}),
                               ("--a2", {"choices": _A2}))),
    ("cft", "critical"): ("central charges admitting a nilpotent charge",
                          cmd_cft_critical, _FILE),
    ("cft", "solve-conventional"): (
        "ghost parameters removing all degree>3 terms",
        cmd_cft_solve_conventional, ()),
    ("oracle", "crosscheck"): (
        "engine vs mode matrices", cmd_oracle_crosscheck,
        _FILE + (("--level", {"type": int, "default": 4}),)),
}


def _parser():
    """The argparse tree of every command, for what _match leaves."""
    import argparse
    p = argparse.ArgumentParser(prog="wbrst", description=(
        "Exact checks for quantum Lie algebra differentials "
        "and chiral operator product algebra."))
    sub = p.add_subparsers(dest="group", required=True)
    groups = {}
    p.commands = {}  # (group, command) -> its parser, for its usage errors
    for (group, name), (help_, fn, arguments) in COMMANDS.items():
        if group not in groups:
            groups[group] = sub.add_parser(group, help=GROUPS[group]) \
                .add_subparsers(dest="cmd", required=True)
        cmd = p.commands[group, name] = groups[group].add_parser(
            name, help=help_)
        for arg, kwargs in arguments + (_JSON,):
            cmd.add_argument(arg, **kwargs)
        cmd.set_defaults(fn=fn)
    return p


def _parsed(argv):
    """The namespace the argparse tree builds for ``argv``.  argparse
    drops a value that is exactly ``--`` and leaves [] in its place, or
    in an ``append`` list; that is its usage error for a missing value."""
    p = _parser()
    args = p.parse_args(argv)
    for name, _ in COMMANDS[args.group, args.cmd][2]:
        value = getattr(args, name.lstrip("-").replace("-", "_"))
        if value == [] or isinstance(value, list) and [] in value:
            p.commands[args.group, args.cmd].error(
                f"argument {name}: expected one argument")
    return args


def _match(argv):
    """The namespace the argparse tree builds for a plain ``argv``: group
    and command, then exact option names, each once unless it appends,
    valued as ``--opt=value`` or by a next token not starting with ``-``,
    and the positionals.  None for help, an abbreviation, ``--``, a value
    starting with ``-`` or ``=--`` and every error, which argparse reads."""
    entry = COMMANDS.get(tuple(argv[:2]))
    if entry is None:
        return None
    args = {"group": argv[0], "cmd": argv[1], "fn": entry[1]}
    options, positionals, given = {}, [], []
    for name, kwargs in entry[2] + (_JSON,):
        if name.startswith("-"):
            dest = name[2:].replace("-", "_")
            options[name] = dest, kwargs
            flag = kwargs.get("action") == "store_true"
            args[dest] = kwargs.get("default", False if flag else None)
        else:
            positionals.append((name, kwargs))
    tokens = iter(argv[2:])
    for token in tokens:
        if not token.startswith("-"):
            if not positionals:
                return None
            given.append((*positionals.pop(0), token))
            continue
        name, eq, text = token.partition("=")
        if name not in options:  # unknown, abbreviated or repeated
            return None
        dest, kwargs = options.pop(name)
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            args[dest] = True
            continue
        if kwargs.get("action") == "append":
            options[name] = dest, kwargs
        if not eq:
            text = next(tokens, "-")  # a missing value fails as "-"
            if text.startswith("-"):
                return None
        elif text == "--":  # argparse drops it and reads no value
            return None
        given.append((dest, kwargs, text))
    if positionals:
        return None
    try:
        for dest, kwargs, text in given:
            value = kwargs.get("type", str)(text)
            if value not in kwargs.get("choices", (value,)):
                return None
            args[dest] = value if kwargs.get("action") != "append" \
                else (args[dest] or []) + [value]
    except ValueError:
        return None
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    limit = sys.get_int_max_str_digits()
    # an exact checker reads and prints its values whole, however long;
    # the caller's limit is back when main returns or argparse exits
    sys.set_int_max_str_digits(0)
    # the collections a command triggers skip the heap that importing the
    # package left (mostly sympy's), and a forked child does not write to
    # its parent's pages walking it; a caller's own freeze is left alone
    froze = not gc.get_freeze_count()
    if froze:
        gc.freeze()
    try:
        args = _match(argv) or _parsed(argv)
        return args.fn(args)
    except BAD_INPUT as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if froze:
            gc.unfreeze()
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
