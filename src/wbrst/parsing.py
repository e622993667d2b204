"""Parsers and printers for the textual formats.

One tokenizer and one expression grammar serve every format.  An
expression's value is a coefficient (an exact ``RationalFunction``) or a
field expression:

* coefficients -- integers, parameter names, ``+ - * / ( )`` and ``^``
  for integer powers; a division by a coefficient that is zero raises
  PoleError;
* field expressions -- ``one``, generator names, ``D(x)`` / ``Dk(x)``
  derivatives, right-nested normal products ``N(x,y)``, sums, and
  multiples ``k*x`` by a coefficient ``k`` on the left;
* the algebra and QLA definition files.

A name is looked up in one scope: ``D``/``Dk``/``N`` before "(", then the
parameters, bound values and ``def`` values, then ``one``, then the
generators.  Printing always emits the same grammar; parse(print(x)) is
the identity.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice, product
from math import comb

from .engine import OpeContext
from .errors import WbrstError
from .fields import FieldError, FieldExpr, GeneratorDecl, OpeAlgebra
from .scalars import RF_ONE, PoleError, RationalFunction, format_rational


class ParseError(WbrstError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")

# Deepest parenthesis nesting a line may have.  The parser recurses once per
# level, so a bound keeps deep input a ParseError, not a RecursionError.
MAX_NESTING = 64

# Largest power x^n a coefficient may write, in coefficient bits summed over
# its terms, bounded before it is computed: (c+1)^100000 would take gigabytes.
MAX_POWER_BITS = 1 << 23


class _Tokens:
    """Tokens of one line and the names its expressions may use: ``scope``
    maps each parameter, bound value and def to its coefficient, or is None
    to make every name a parameter; over an ``algebra`` the other names are
    fields, built in ``ctx``.  ``text`` starts at ``column`` of its line,
    and each token records the column of its first character; the end of
    input is at the column just past the text's last character."""

    def __init__(self, text, line, scope, algebra=None, ctx=None, column=0):
        self.items = []
        pos = depth = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                break
            at = column + m.start(m.lastindex)  # the token's own column
            if m.group(1) is not None:
                self.items.append(("int", m.group(1), at))
            elif m.group(2) is not None:
                self.items.append(("name", m.group(2), at))
            else:
                ch = m.group(3)
                if not ch.isspace():
                    self.items.append(("op", ch, at))
                depth += {"(": 1, ")": -1}.get(ch, 0)
                if depth > MAX_NESTING:
                    raise ParseError(f"parentheses nested deeper than "
                                     f"{MAX_NESTING} levels", line, at)
            pos = m.end()
        self.end = column + len(text.rstrip())
        self.pos = 0
        self.line = line
        self.scope = scope
        self.algebra = algebra
        self.ctx = ctx

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return ("eof", "", self.end)

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


# -- expression grammar ----------------------------------------------------
#
#   sum     -> product (("+" | "-") product)*
#   product -> signed (("*" | "/") signed)*
#   signed  -> ("+" | "-")* power
#   power   -> atom ("^" "-"? INT)?
#   atom    -> INT | "(" sum ")" | D(sum) | Dk(sum) | N(sum, sum) | NAME
#
# "+" and "-" join two values of one kind, "*" scales a coefficient or a
# field by the coefficient on its left, and "/" and "^" take coefficients.
# Runs of signs and of factors are loops, so their length costs no stack.


def _sum(t: _Tokens):
    x = _product(t)
    while t.peek()[:2] in (("op", "+"), ("op", "-")):
        tok = t.next()
        y = _product(t)
        if isinstance(x, FieldExpr) != isinstance(y, FieldExpr):
            raise ParseError(f"{tok[1]!r} joins a coefficient and a field",
                             t.line, tok[2])
        x = x + y if tok[1] == "+" else x - y
    return x


def _product(t: _Tokens):
    x = _signed(t)
    while t.peek()[:2] in (("op", "*"), ("op", "/")):
        tok = t.next()
        _kind(t, x, tok, "a coefficient on its left")
        y = _signed(t)
        if tok[1] == "/":
            x = _divide(t, x, _kind(t, y, tok, "a coefficient on its right"))
        else:
            x = y.scaled(x) if isinstance(y, FieldExpr) else x * y
    return x


def _signed(t: _Tokens):
    negate = False
    while t.peek()[:2] in (("op", "-"), ("op", "+")):
        negate ^= t.next()[1] == "-"
    x = _power(t)
    return -x if negate else x


def _power(t: _Tokens):
    x = _atom(t)
    if t.peek()[:2] != ("op", "^"):
        return x
    _kind(t, x, t.next(), "a coefficient on its left")
    negative = t.peek()[:2] == ("op", "-")
    if negative:
        t.next()
    tok = t.expect("int")
    n = int(tok[1])
    if _power_bits(x.num, n) + _power_bits(x.den, n) > MAX_POWER_BITS:
        raise ParseError(f"power ^{n} would exceed {MAX_POWER_BITS} "
                         "coefficient bits", t.line, tok[2])
    return _divide(t, RF_ONE, x ** n) if negative else x ** n


def _power_bits(p, n: int) -> int:
    """A bound on the coefficient bits of p^n: a polynomial p in k names of
    total degree d has at most C(d + k, k) terms, so p^n at most
    C(nd + k, k), each at most (C(d + k, k) max|coefficient of p|)^n."""
    k, d = p.ring.ngens, max(map(sum, p), default=0)
    b = max((abs(c).bit_length() for c in p.values()), default=0)
    return comb(n * d + k, k) * n * (b + comb(d + k, k).bit_length())


def _atom(t: _Tokens):
    tok = t.next()
    kind, name, column = tok
    if kind == "int":
        return RationalFunction.const(int(name))
    if tok[:2] == ("op", "("):
        x = _sum(t)
        t.expect("op", ")")
        return x
    if kind != "name":
        raise ParseError(f"unexpected token {name!r}", t.line, column)
    alg = t.algebra
    if alg is not None and t.peek()[:2] == ("op", "("):
        # D followed by no digit or by ASCII digits (a name is ASCII)
        deriv = name[:1] == "D" and (name == "D" or name[1:].isdigit())
        if deriv or name == "N":
            t.next()
            x = _kind(t, _sum(t), tok, "a field")
            if deriv:
                t.expect("op", ")")
                return t.ctx.derivative(x, int(name[1:] or 1))
            t.expect("op", ",")
            y = _kind(t, _sum(t), tok, "a field")
            t.expect("op", ")")
            return t.ctx.normal_product(x, y)
    if t.scope is None:
        return RationalFunction.var(name)
    value = t.scope.get(name)
    if value is not None:
        return value
    if alg is None:
        raise ParseError(f"unknown parameter {name!r}", t.line, column)
    if name == "one":
        return FieldExpr.unit(alg)
    if name in alg.names:
        return FieldExpr.generator(alg, name)
    raise ParseError(f"unknown field or parameter name {name!r}",
                     t.line, column)


def _kind(t: _Tokens, x, tok, wanted):
    """``x`` if it is the kind of value ``wanted``, else a ParseError that
    ``tok`` takes ``wanted``."""
    if isinstance(x, FieldExpr) != (wanted == "a field"):
        got = "a field" if isinstance(x, FieldExpr) else "a coefficient"
        raise ParseError(f"{tok[1]!r} takes {wanted}, not {got}",
                         t.line, tok[2])
    return x


def _divide(t: _Tokens, x, y) -> RationalFunction:
    if y.is_zero:
        loc = f" at line {t.line}" if t.line is not None else ""
        raise PoleError(f"coefficient divides by zero{loc}")
    return x / y


def _parse(text, line, scope, algebra=None, ctx=None, column=0):
    """The value of ``text``, read to its end: over an ``algebra`` a field
    expression, else a coefficient."""
    t = _Tokens(text, line, scope, algebra, ctx, column)
    x = _sum(t)
    if not t.at_end():
        tok = t.peek()
        raise ParseError(f"trailing input {tok[1]!r}", line, tok[2])
    if algebra is not None and not isinstance(x, FieldExpr):
        raise ParseError("a coefficient is not a field expression; "
                         "scale a field, as in 2*one", line)
    return x


def parse_coefficient(text: str, line=None, scope=None) -> RationalFunction:
    """Parse a coefficient; ``scope`` maps the parameter names it may use
    to their values.  Without a scope every name is a symbolic parameter."""
    return _parse(text, line, scope)


def _param_scope(params, bindings=None) -> dict:
    """Coefficient scope: each name in ``params`` symbolic, each bound
    name its exact value."""
    bound = {p: RationalFunction.const(v) for p, v in (bindings or {}).items()}
    return {**{p: RationalFunction.var(p) for p in params}, **bound}


def parse_field_expr(text: str, algebra, line=None, ctx=None, bindings=None,
                     column=0):
    """Parse a field expression over ``algebra``, ``text`` starting at
    ``column`` of its line.  Coefficients may use the algebra's parameters
    and the names of ``bindings``, the values bound when the table was
    loaded.  ``ctx`` may supply a scratch context so an algebra under
    construction is not frozen by the parse."""
    return _parse(text, line, _param_scope(algebra.params, bindings),
                  algebra, ctx or algebra.context(), column)


def format_monomial(mono) -> str:
    """Right-nested N(...) form of a canonical monomial."""
    if not mono:
        return "one"

    def factor_str(f):
        name, k = f
        if k == 0:
            return name
        if k == 1:
            return f"D({name})"
        return f"D{k}({name})"

    out = factor_str(mono[-1])
    for f in reversed(mono[:-1]):
        out = f"N({factor_str(f)},{out})"
    return out


def format_field_expr(expr) -> str:
    if expr.is_zero:
        return "0*one"
    parts = []
    for mono, coeff in expr.sorted_terms():
        cs = format_rational(coeff)
        if not cs.isdigit():
            cs = f"({cs})"
        parts.append(f"{cs}*{format_monomial(mono)}")
    return " + ".join(parts)


# -- definition files -------------------------------------------------------


def _directives(text):
    """(line number, directive, rest, the rest's column) of each line of a
    definition file with words left once its ``#`` comment is cut: the
    directive is the first word, the rest what follows it, unpadded."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        words = line.split(None, 1)
        if words:
            rest = words[1] if len(words) == 2 else ""
            yield lineno, words[0], rest, len(line) - len(rest)


def parse_algebra_file(text: str, bindings=None):
    """Build an OpeAlgebra from its definition-file form.

    Coefficients may name only the parameters the file declares with
    ``param``.  A ``def`` names a coefficient, which the ``ope`` lines and
    later defs use by its name.  Each name means one thing: a field may not
    be named ``one``, a parameter may not reuse the name of a field or
    ``one``, and a def may not reuse any of these or an earlier def's; the
    ``algebra`` line is given once.
    ``bindings`` maps declared parameters to exact rationals; a bound
    parameter is read as that constant while the file is parsed and is not
    a parameter of the result.  A coefficient whose denominator vanishes at
    the bound values raises PoleError.
    """
    bindings = bindings or {}
    name = None
    gens = []
    declared = []
    taken = {"one": "the unit"}  # what each name already means
    def_lines, ope_lines = [], []
    for lineno, head, rest, at in _directives(text):
        if head == "algebra":
            if name is not None:
                raise ParseError("algebra given twice", lineno)
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
                if pname in taken:
                    raise ParseError(f"parameter {pname!r} reuses the name "
                                     f"of {taken[pname]}", lineno)
                declared.append(pname)
        elif head == "field":
            gname, *items = rest.split() or [""]
            attrs = dict(item.partition("=")[::2] for item in items)
            parity = {"even": 0, "odd": 1}.get(attrs.get("parity", "even"))
            if not gname or "weight" not in attrs or parity is None:
                raise ParseError("expected field NAME weight=W "
                                 "[parity=even|odd] [ghost=G]", lineno)
            if gname == "one":
                raise ParseError("field 'one' reuses the name of the unit",
                                 lineno)
            if gname in declared:
                raise ParseError(f"parameter {gname!r} reuses the name of "
                                 "a field", lineno)
            weight = _number(Fraction, attrs["weight"], "weight", lineno)
            ghost = _number(int, attrs.get("ghost", "0"), "ghost", lineno)
            gens.append(GeneratorDecl(gname, weight, parity, ghost))
            taken[gname] = "a field"
        elif head == "def":
            def_lines.append((lineno, rest, at))
        elif head == "ope":
            ope_lines.append((lineno, rest, at))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if name is None:
        raise ParseError("missing 'algebra NAME' header", 1)
    taken.update(dict.fromkeys(declared, "a parameter"))
    for lineno, rest, _ in def_lines:
        dname = rest.partition("=")[0].strip()
        if dname in taken:
            raise ParseError(f"def {dname!r} reuses the name of "
                             + taken[dname], lineno)
        taken[dname] = "an earlier def"
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
    ``algebra``: each def's value joins the scope of the later defs and of
    every ope line.  Each line comes with the column where its ``rest``
    starts.  A pole is normal-ordered with the products stored so far, so
    a line that gives a product an earlier line (or its own) read is refused,
    and so is each line ``OpeAlgebra.set_ope`` refuses, at its number."""
    scope = _param_scope(algebra.params, bindings)
    for lineno, rest, at in def_lines:
        dname, _, dexpr = rest.partition("=")
        scope[dname.strip()] = _parse(dexpr, lineno, scope,
                                      column=at + len(dname) + 1)
    scratch = OpeContext(algebra)
    read, seen = {}, 0  # each generator pair: the first line that read it
    for lineno, rest, at in ope_lines:
        headpart, _, body = rest.partition(":")
        pair = headpart.split()
        if len(pair) != 2:
            raise ParseError("ope line needs two field names", lineno)
        a, b = pair
        poles = {}
        at += len(headpart) + 1
        for chunk in body.split(";") if body.strip() else ():
            n_str, _, expr_str = chunk.partition("->")
            n = _number(int, n_str.strip(), "pole order", lineno)
            poles[n] = _parse(expr_str, lineno, scope, algebra, scratch,
                              at + len(n_str) + 2)
            at += len(chunk) + 1
        # each product the scratch context computes is memoized, in order
        for m1, m2 in islice(scratch._ope_memo, seen, None):
            for f, g in product(m1, m2):
                read.setdefault(frozenset((f[0], g[0])), lineno)
        seen = len(scratch._ope_memo)
        if first := read.get(frozenset(pair)):
            raise ParseError(f"line {first} reads the product {a} {b} before "
                             "it is given", lineno)
        try:
            algebra.set_ope(a, b, poles)
        except FieldError as err:  # a name, pole order or pair it refuses
            raise ParseError(str(err), lineno) from None


def _number(kind, text, what, lineno):
    """``kind(text)`` for int or Fraction, or a ParseError naming ``what``."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{what} {text!r} is not a number", lineno) from None


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
    """Build a ``QlaData`` from a QLA definition file.

    Index convention in files is 1-based; ``sigma i j k l = coeff`` sets
    the entry with upper indices (k, l) and lower indices (i, j), and
    ``c i j k = coeff`` sets the structure constant with upper index k.
    The format declares no parameters, so a coefficient is a number.
    The twist is given once: by a ``phi = MODE`` line, by explicit
    ``phi i j k l`` entries, or by both with ``phi = explicit``.  Each
    ``dim`` and ``parities`` line, and each entry index, is given at most
    once.
    """
    from .tensors import (Mat, QlaData, flatten, lie_super_twist,
                          super_permutation)

    n = None
    parities = None
    ranks = {"sigma": 4, "c": 3, "phi": 4}
    entries = {}  # (head, 1-based indices) -> (lineno, coefficient)
    phi_mode = None
    phi_line = None  # the last line that gave phi, mode or entry
    for lineno, head, rest, at in _directives(text):
        parts = rest.split()
        lhs, eq, rhs = rest.partition("=")
        if head == "dim" and n is not None \
                or head == "parities" and parities is not None:
            raise ParseError(f"{head} given twice", lineno)
        if head == "dim":
            n = _number(int, " ".join(parts), "dim", lineno)
            if n < 1:
                raise ParseError("dim must be positive", lineno)
        elif head == "parities":
            mapping = {"e": 0, "even": 0, "o": 1, "odd": 1}
            if any(p not in mapping for p in parts):
                raise ParseError("parities are e, even, o or odd", lineno)
            parities = [mapping[p] for p in parts]
        elif head in ranks and eq and lhs.split() \
                and all(p.isdigit() for p in lhs.split()):
            idx = tuple(int(x) for x in lhs.split())
            if len(idx) != ranks[head]:
                raise ParseError(f"{head} needs {ranks[head]} indices", lineno)
            if head == "phi":
                if phi_mode not in (None, "explicit"):
                    raise ParseError("phi given twice", lineno)
                phi_line = lineno
            if (head, idx) in entries:
                raise ParseError(f"{head} " + " ".join(map(str, idx))
                                 + " given twice", lineno)
            entries[head, idx] = (lineno, _parse(rhs, lineno, {},
                                                 column=at + len(lhs) + 1))
        elif head == "phi":
            mode = " ".join(p for p in parts if p != "=")
            if mode not in ("superperm", "sigma", "explicit"):
                raise ParseError(f"unknown phi mode {mode!r}", lineno)
            if phi_mode is not None or (phi_line and mode != "explicit"):
                raise ParseError("phi given twice", lineno)
            phi_mode = mode
            phi_line = lineno
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if n is None:
        raise ParseError("missing 'dim N'", 1)
    if parities is None:
        parities = [0] * n
    if len(parities) != n:
        raise ParseError("parities length does not match dim", 1)
    # sigma and phi at [(i, j), (k, l)], C at [(i, j), k]
    mats = {"sigma": Mat(n * n, n * n), "c": Mat(n * n, n),
            "phi": Mat(n * n, n * n)}
    for (head, idx), (lineno, coeff) in entries.items():
        if not all(1 <= i <= n for i in idx):
            raise ParseError(f"index outside 1..{n} in {head} "
                             + " ".join(map(str, idx)), lineno)
        lower, upper = idx[:2], idx[2:]
        mats[head].set(flatten([i - 1 for i in lower], n),
                       flatten([i - 1 for i in upper], n), coeff)
    sigma = mats["sigma"]
    if phi_mode == "superperm":
        phi, _ = lie_super_twist(tuple(parities))
    elif phi_mode == "sigma":
        phi = sigma
    elif phi_line is not None:
        phi = mats["phi"]
    else:
        phi = super_permutation(tuple(parities))
    data = QlaData(n, tuple(parities), sigma, mats["c"], phi)
    try:
        data.phi_inverse  # solved once here and cached for every check
    except ZeroDivisionError:
        raise ParseError("phi is singular", phi_line) from None
    return data
