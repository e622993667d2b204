"""Parsers and printers for the textual formats.

Three layers share one tokenizer:

* coefficient expressions -- integers, fractions ``p/q``, parameter names,
  ``+ - * / ( )`` and ``^`` for powers; a division by a coefficient that
  is zero raises PoleError;
* field expressions -- ``one``, generator names, ``D(x)`` / ``Dk(x)``
  derivatives, right-nested normal products ``N(x,y)``, sums and scalar
  multiples;
* the algebra and QLA definition files.

Printing always emits the same grammar; parse(print(x)) is the identity.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import WbrstError
from .scalars import PoleError, RationalFunction, param_names


class ParseError(WbrstError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")


class _Tokens:
    """Tokens of one line; ``scope`` maps the parameter names a coefficient
    may use to their values."""

    def __init__(self, text, line, scope):
        self.items = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                break
            if m.group(1) is not None:
                self.items.append(("int", m.group(1), pos))
            elif m.group(2) is not None:
                self.items.append(("name", m.group(2), pos))
            else:
                ch = m.group(3)
                if not ch.isspace():
                    self.items.append(("op", ch, pos))
            pos = m.end()
        self.pos = 0
        self.line = line
        self.scope = scope

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return ("eof", "", -1)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"expected {value or kind}, got {tok[1]!r}",
                             self.line, tok[2])
        return tok

    def at_end(self):
        return self.pos >= len(self.items)


# -- coefficient grammar ---------------------------------------------------


def _coeff_expr(t: _Tokens) -> RationalFunction:
    x = _coeff_term(t)
    while t.peek()[:2] in (("op", "+"), ("op", "-")):
        op = t.next()[1]
        y = _coeff_term(t)
        x = x + y if op == "+" else x - y
    return x


def _coeff_term(t: _Tokens) -> RationalFunction:
    x = _coeff_factor(t)
    while t.peek()[:2] in (("op", "*"), ("op", "/")):
        op = t.next()[1]
        y = _coeff_factor(t)
        x = x * y if op == "*" else _divide(t, x, y)
    return x


def _divide(t: _Tokens, x, y) -> RationalFunction:
    if y.is_zero:
        loc = f" at line {t.line}" if t.line is not None else ""
        raise PoleError(f"coefficient divides by zero{loc}")
    return x / y


def _coeff_factor(t: _Tokens) -> RationalFunction:
    tok = t.peek()
    if tok[:2] == ("op", "-"):
        t.next()
        return -_coeff_factor(t)
    if tok[:2] == ("op", "+"):
        t.next()
        return _coeff_factor(t)
    x = _coeff_atom(t)
    if t.peek()[:2] == ("op", "^"):
        t.next()
        sign = 1
        if t.peek()[:2] == ("op", "-"):
            t.next()
            sign = -1
        n = int(t.expect("int")[1]) * sign
        if n >= 0:
            out = RationalFunction.const(1)
            for _ in range(n):
                out = out * x
            return out
        out = RationalFunction.const(1)
        for _ in range(-n):
            out = _divide(t, out, x)
        return out
    return x


def _coeff_atom(t: _Tokens) -> RationalFunction:
    tok = t.next()
    if tok[0] == "int":
        return RationalFunction.const(int(tok[1]))
    if tok[0] == "name":
        value = t.scope.get(tok[1])
        if value is None:
            raise ParseError(f"unknown parameter {tok[1]!r}", t.line, tok[2])
        return value
    if tok[:2] == ("op", "("):
        x = _coeff_expr(t)
        t.expect("op", ")")
        return x
    raise ParseError(f"unexpected token {tok[1]!r} in coefficient", t.line, tok[2])


def parse_coefficient(text: str, line=None, scope=None) -> RationalFunction:
    """Parse a coefficient; ``scope`` maps the parameter names it may use
    to their values, by default every session parameter, symbolic."""
    t = _Tokens(text, line, _param_scope(param_names()) if scope is None
                else scope)
    x = _coeff_expr(t)
    if not t.at_end():
        tok = t.peek()
        raise ParseError(f"trailing input {tok[1]!r} in coefficient", line, tok[2])
    return x


# -- field expression grammar ----------------------------------------------


def _field_expr(t: _Tokens, algebra, ctx=None):
    x = _field_term(t, algebra, ctx)
    while t.peek()[:2] in (("op", "+"), ("op", "-")):
        op = t.next()[1]
        y = _field_term(t, algebra, ctx)
        x = x + y if op == "+" else x - y
    return x


def _field_term(t: _Tokens, algebra, ctx=None):
    # scalar prefix: anything that parses as a coefficient followed by '*'
    save = t.pos
    try:
        coeff = _coeff_factor(t)
        is_scalar = True
    except ParseError:
        is_scalar = False
        t.pos = save
    if is_scalar:
        if t.peek()[:2] == ("op", "*"):
            t.next()
            rest = _field_term(t, algebra, ctx)
            return rest.scaled(coeff)
        t.pos = save
    return _field_atom(t, algebra, ctx)


def _field_atom(t: _Tokens, algebra, ctx=None):
    from .fields import FieldExpr
    if ctx is None:
        ctx = algebra.context()
    tok = t.next()
    if tok[:2] == ("op", "("):
        x = _field_expr(t, algebra, ctx)
        t.expect("op", ")")
        return x
    if tok[:2] == ("op", "-"):
        return -_field_atom(t, algebra, ctx)
    if tok[0] != "name":
        raise ParseError(f"unexpected token {tok[1]!r} in field expression",
                         t.line, tok[2])
    name = tok[1]
    if name == "one":
        return FieldExpr.unit(algebra)
    m = re.fullmatch(r"D(\d*)", name)
    if m and t.peek()[:2] == ("op", "("):
        k = int(m.group(1)) if m.group(1) else 1
        t.expect("op", "(")
        inner = _field_expr(t, algebra, ctx)
        t.expect("op", ")")
        out = inner
        for _ in range(k):
            out = ctx.derivative(out)
        return out
    if name == "N" and t.peek()[:2] == ("op", "("):
        t.expect("op", "(")
        left = _field_expr(t, algebra, ctx)
        t.expect("op", ",")
        right = _field_expr(t, algebra, ctx)
        t.expect("op", ")")
        return ctx.normal_product(left, right)
    if name in algebra.names:
        return FieldExpr.generator(algebra, name)
    raise ParseError(f"unknown field or parameter name {name!r}",
                     t.line, tok[2])


def _param_scope(params, bindings=None) -> dict:
    """Coefficient scope: each name in ``params`` symbolic, each bound
    name its exact value."""
    bound = {p: RationalFunction.const(v) for p, v in (bindings or {}).items()}
    return {**{p: RationalFunction.var(p) for p in params}, **bound}


def parse_field_expr(text: str, algebra, line=None, ctx=None, bindings=None):
    """Parse a field expression over ``algebra``.  Coefficients may use the
    algebra's parameters and the names of ``bindings``, the values bound
    when the table was loaded.  ``ctx`` may supply a scratch context so an
    algebra under construction is not frozen by the parse."""
    t = _Tokens(text, line, _param_scope(algebra.params, bindings))
    x = _field_expr(t, algebra, ctx)
    if not t.at_end():
        tok = t.peek()
        raise ParseError(f"trailing input {tok[1]!r} in field expression", line, tok[2])
    return x


def format_monomial(mono) -> str:
    """Right-nested N(...) form of a canonical monomial."""
    if not mono.factors:
        return "one"

    def factor_str(f):
        name, k = f
        if k == 0:
            return name
        if k == 1:
            return f"D({name})"
        return f"D{k}({name})"

    out = factor_str(mono.factors[-1])
    for f in reversed(mono.factors[:-1]):
        out = f"N({factor_str(f)},{out})"
    return out


def format_field_expr(expr) -> str:
    from .scalars import format_rational
    if expr.is_zero:
        return "0*one"
    parts = []
    for mono, coeff in expr.sorted_terms():
        cs = format_rational(coeff)
        if not re.fullmatch(r"\d+", cs):
            cs = f"({cs})"
        term = f"{cs}*{format_monomial(mono)}"
        if parts:
            parts.append(" + " + term)
        else:
            parts.append(term)
    return "".join(parts)


# -- algebra definition files ----------------------------------------------


def parse_algebra_file(text: str, bindings=None):
    """Build an OpeAlgebra from its definition-file form.

    Coefficients may name only the parameters the file declares with
    ``param``.  ``bindings`` maps declared parameters to exact rationals;
    a bound parameter is read as that constant while the file is parsed
    and is not a parameter of the result.  A coefficient whose
    denominator vanishes at the bound values raises PoleError.
    """
    from .fields import GeneratorDecl, OpeAlgebra

    bindings = bindings or {}
    name = None
    gens = []
    declared = []
    def_lines, ope_lines = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "algebra":
            name = rest
        elif head == "param":
            for pname in rest.split():
                m = _TOKEN_RE.fullmatch(pname)
                if m is None or m.group(2) is None:
                    raise ParseError(f"parameter name {pname!r} is not a "
                                     "name", lineno)
                if pname in declared:
                    raise ParseError(f"parameter {pname!r} declared twice",
                                     lineno)
                declared.append(pname)
        elif head == "field":
            gname, *items = rest.split() or [""]
            attrs = dict(item.partition("=")[::2] for item in items)
            parity = {"even": 0, "odd": 1}.get(attrs.get("parity", "even"))
            if not gname or "weight" not in attrs or parity is None:
                raise ParseError("expected field NAME weight=W "
                                 "[parity=even|odd] [ghost=G]", lineno)
            weight = _number(Fraction, attrs["weight"], "weight", lineno)
            ghost = _number(int, attrs.get("ghost", "0"), "ghost", lineno)
            gens.append(GeneratorDecl(gname, weight, parity, ghost))
        elif head == "def":
            def_lines.append((lineno, rest))
        elif head == "ope":
            ope_lines.append((lineno, rest))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if name is None:
        raise ParseError("missing 'algebra NAME' header", 1)
    for p in bindings:
        if p not in declared:
            raise ParseError(f"unknown parameter {p!r}; table parameters: "
                             f"{', '.join(declared) or 'none'}")
    params = tuple(p for p in declared if p not in bindings)
    algebra = OpeAlgebra(name, gens, params=params)
    try:
        _parse_table(algebra, def_lines, ope_lines, bindings)
    except PoleError as err:
        at = ", ".join(f"{p}={Fraction(v)}" for p, v in bindings.items())
        raise PoleError(f"{err} of table {name}" + (f" at {at}" if at else "")) \
            from None
    algebra.freeze()
    return algebra


def _parse_table(algebra, def_lines, ope_lines, bindings):
    """Read the ``def`` and ``ope`` lines of a definition file into
    ``algebra``."""
    from .engine import OpeContext

    scope = _param_scope(algebra.params, bindings)
    defs: dict[str, RationalFunction] = {}
    for lineno, rest in def_lines:
        dname, _, dexpr = rest.partition("=")
        defs[dname.strip()] = parse_coefficient(
            _substitute_defs(dexpr.strip(), defs), lineno, scope)
    scratch = OpeContext(algebra)
    for lineno, rest in ope_lines:
        headpart, _, body = rest.partition(":")
        pair = headpart.split()
        if len(pair) != 2:
            raise ParseError("ope line needs two field names", lineno)
        a, b = pair
        poles = {}
        body = body.strip()
        if body:
            for chunk in body.split(";"):
                n_str, _, expr_str = chunk.partition("->")
                n = _number(int, n_str.strip(), "pole order", lineno)
                expr_str = _substitute_defs(expr_str.strip(), defs)
                poles[n] = parse_field_expr(expr_str, algebra, lineno,
                                            ctx=scratch, bindings=bindings)
        algebra.set_ope(a, b, poles)


def _number(kind, text, what, lineno):
    """``kind(text)`` for int or Fraction, or a ParseError naming ``what``."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{what} {text!r} is not a number", lineno) from None


def _substitute_defs(expr: str, defs) -> str:
    # textual substitution of earlier `def` names, longest names first
    for dname in sorted(defs, key=len, reverse=True):
        from .scalars import format_rational
        expr = re.sub(rf"\b{re.escape(dname)}\b",
                      "(" + format_rational(defs[dname]) + ")", expr)
    return expr


def format_algebra_file(algebra) -> str:
    lines = [f"algebra {algebra.name}"]
    for p in algebra.params:
        lines.append(f"param {p}")
    for g in algebra.generators:
        parity = "odd" if g.parity else "even"
        lines.append(f"field {g.name} weight={g.weight} parity={parity} ghost={g.ghost}")
    for (a, b), poles in algebra.table_items():
        if not poles:
            lines.append(f"ope {a} {b} :")
            continue
        chunks = [f"{n} -> {format_field_expr(expr)}"
                  for n, expr in sorted(poles.items(), reverse=True)]
        lines.append(f"ope {a} {b} : " + " ; ".join(chunks))
    return "\n".join(lines) + "\n"


# -- QLA definition files --------------------------------------------------


def parse_qla_file(text: str):
    """Build (QlaData, TwistData) from a QLA definition file.

    Index convention in files is 1-based; ``sigma i j k l = coeff`` sets
    the entry with upper indices (k, l) and lower indices (i, j), and
    ``c i j k = coeff`` sets the structure constant with upper index k.
    The format declares no parameters, so a coefficient is a number.
    """
    from .tensors import (QlaData, Tensor, TwistData, lie_super_twist,
                          super_permutation, twist_from_phi)

    n = None
    parities = None
    sigma_entries = {}
    c_entries = {}
    phi_mode = None
    phi_entries = {}
    phi_line = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "dim":
            n = _number(int, " ".join(parts[1:]), "dim", lineno)
            if n < 1:
                raise ParseError("dim must be positive", lineno)
        elif head == "parities":
            mapping = {"e": 0, "even": 0, "o": 1, "odd": 1}
            if any(p not in mapping for p in parts[1:]):
                raise ParseError("parities are e, even, o or odd", lineno)
            parities = [mapping[p] for p in parts[1:]]
        elif (head in ("sigma", "c", "phi") and "=" in line
              and all(p.isdigit() for p in line.partition("=")[0].split()[1:])
              and len(line.partition("=")[0].split()) > 1):
            lhs, _, rhs = line.partition("=")
            lparts = lhs.split()
            idx = tuple(int(x) - 1 for x in lparts[1:])
            coeff = parse_coefficient(rhs.strip(), lineno, {})
            if head == "sigma":
                if len(idx) != 4:
                    raise ParseError("sigma needs 4 indices", lineno)
                i, j, k, l = idx
                sigma_entries[(k, l, i, j)] = coeff
            elif head == "c":
                if len(idx) != 3:
                    raise ParseError("c needs 3 indices", lineno)
                i, j, k = idx
                c_entries[(k, i, j)] = coeff
            else:
                if len(idx) != 4:
                    raise ParseError("phi needs 4 indices", lineno)
                i, j, k, l = idx
                phi_entries[(k, l, i, j)] = coeff
                phi_line = lineno
        elif head == "phi":
            phi_mode = " ".join(p for p in parts[1:] if p != "=")
            phi_line = lineno
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if n is None:
        raise ParseError("missing 'dim N'", 1)
    if parities is None:
        parities = [0] * n
    if len(parities) != n:
        raise ParseError("parities length does not match dim", 1)
    sigma = Tensor(4, n, sigma_entries)
    c = Tensor(3, n, c_entries)
    data = QlaData(n, tuple(parities), sigma, c)
    if phi_mode == "superperm":
        phi, _ = lie_super_twist(tuple(parities))
    elif phi_mode == "sigma":
        phi = sigma
    elif phi_mode == "explicit" or (phi_mode is None and phi_entries):
        phi = Tensor(4, n, phi_entries)
    elif phi_mode is None:
        phi = super_permutation(tuple(parities))
    else:
        raise ParseError(f"unknown phi mode {phi_mode!r}", phi_line)
    try:
        return data, twist_from_phi(phi)
    except ZeroDivisionError:
        raise ParseError("phi is singular", phi_line) from None
