"""BRST currents, their nilpotency modulo total derivatives, critical
central charges, the conventional-form parameter point, and an
ansatz-based derivation of a current.

A current is a ``.brst`` file, read by ``CurrentFile``.  Nilpotency and
the critical charges read one normal form per current,
``BrstCurrent.reduction``: pole 1 of J(z)J(w) modulo total derivatives,
the obstruction, whose coefficients' common zero ``common_zeros`` solves
for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .algebras import bundle, bundled_text
from .analysis import derivative_system, weight_basis
from .errors import WbrstError
from .fields import FieldExpr, OpeAlgebra
from .linalg import normal_form, rref
from .parsing import (ParseError, _directives, _number, format_field_expr,
                      parse_algebra_file, parse_field_expr)
from .scalars import (PoleError, RF_ONE, RF_ZERO, common_zeros, _add_into,
                      _canonical)


class BrstError(WbrstError):
    pass


@dataclass(frozen=True)
class BrstCurrent:
    algebra: OpeAlgebra
    expr: FieldExpr

    def __post_init__(self):
        if self.expr.weight() != 1 or self.expr.ghost() != 1 \
                or self.expr.parity() != 1:
            raise BrstError("current must be odd with weight 1 and "
                            "ghost number +1")

    @property
    def context(self):
        return self.algebra.context()

    @cached_property
    def self_product(self) -> dict:
        """All poles of J(z) J(w), computed once per current; every reader
        shares the one dict, so none may write into it."""
        return self.context.ope(self.expr, self.expr)

    @cached_property
    def reduction(self):
        """(targets, rows, pole1, normal): the ``derivative_system`` of
        pole 1 of ``self_product`` on the weight-0, ghost-number-2, even
        slice, pole 1 as a vector over its targets, and the normal form of
        pole 1 modulo the rows, zero exactly when pole 1 is a total
        derivative.  Shared like ``self_product``: no reader may change it."""
        pole1 = self.self_product.get(1, FieldExpr.zero(self.algebra))
        _, targets, rows = derivative_system(self.context, 0, 0, 2,
                                             pole1.terms)
        pole1 = {targets[t]: v for t, v in pole1.terms.items()}
        normal = normal_form(*rref(rows, len(targets)), pole1)
        return list(targets), rows, pole1, normal


@dataclass
class NilpotencyReport:
    verdict: str                  # "nilpotent" or "obstructed"
    poles: dict                   # full self-product
    obstruction: FieldExpr        # first pole reduced modulo derivatives

    @property
    def nilpotent(self) -> bool:
        return self.verdict == "nilpotent"

    def to_json(self):
        return {
            "verdict": self.verdict,
            "obstruction": "0" if self.obstruction.is_zero
                           else format_field_expr(self.obstruction),
            "higher_poles": {
                str(n): format_field_expr(e)
                for n, e in sorted(self.poles.items()) if n >= 2},
        }


# -- current files ----------------------------------------------------------


def _table(name, lineno):
    """Text and declared parameters of the bundled table ``name``."""
    try:
        text = bundled_text(name, "alg")
    except FileNotFoundError:
        raise ParseError(f"unknown table {name!r}", lineno) from None
    return text, [p for _, head, rest, _ in _directives(text)
                  if head == "param" for p in rest.split()]


class CurrentFile:
    """A ``.brst`` file: ``tables NAME ...`` names the bundled tables of
    the current, ``default NAME=VALUE ...`` binds what the command line
    leaves unset, and ``term EXPR`` lines sum to the current.  ``params``
    are those its tables declare.  ``renames`` maps a table name to the
    bundled table read in its place."""

    def __init__(self, text, renames=None):
        self.tables, self.terms, self.defaults = None, [], {}
        for lineno, head, rest, at in _directives(text):
            if head == "tables" and self.tables is None:
                self.tables = {}
                for t in rest.split():
                    if t in self.tables:
                        raise ParseError(f"table {t!r} given twice", lineno)
                    self.tables[t] = _table((renames or {}).get(t, t), lineno)
                self.params = [*dict.fromkeys(
                    p for _, ps in self.tables.values() for p in ps)]
            elif head == "default" and self.tables:
                for name, _, value in (x.partition("=") for x in rest.split()):
                    if name not in self.params or name in self.defaults:
                        raise ParseError(f"default {name!r} is not a new "
                                         "parameter of the tables", lineno)
                    self.defaults[name] = _number(Fraction, value, name, lineno)
            elif head == "term":
                self.terms.append((lineno, rest, at))
            else:
                raise ParseError(f"unknown or misplaced directive {head!r}",
                                 lineno)
        if not self.tables:
            raise ParseError("missing 'tables NAME ...' line", 1)

    def current(self, values=()) -> BrstCurrent:
        """The current with each parameter bound to its value in
        ``values``, else to its default; None leaves it symbolic."""
        bound = {**self.defaults, **dict(values)}
        for p in bound:
            if p not in self.params:
                raise BrstError(f"no table of the current declares {p!r}")
        bound = {p: v for p, v in bound.items() if v is not None}
        alg = bundle("+".join(self.tables), *(parse_algebra_file(
            text, {p: bound[p] for p in ps if p in bound})
            for text, ps in self.tables.values()))
        expr = FieldExpr.zero(alg)
        for lineno, text, column in self.terms:
            expr = expr + parse_field_expr(text, alg, lineno, bindings=bound,
                                           column=column)
        return BrstCurrent(alg, expr)


def brst_w3(g1=0, g2=0, c=None) -> BrstCurrent:
    """The current of ``data/w3.brst``; None makes a parameter symbolic."""
    return CurrentFile(bundled_text("w3", "brst")).current(
        {"g1": g1, "g2": g2, "c": c})


def brst_w32(c=None) -> BrstCurrent:
    """The current of ``data/w32.brst``; None makes c symbolic."""
    return CurrentFile(bundled_text("w32", "brst")).current({"c": c})


# -- nilpotency -------------------------------------------------------------


def nilpotency(q: BrstCurrent) -> NilpotencyReport:
    """The charge squares to zero exactly when the first pole of the
    current's self-product is a total derivative; higher poles are
    reported but impose no condition on the charge."""
    targets, _, _, normal = q.reduction
    return NilpotencyReport("obstructed" if normal else "nilpotent",
                            q.self_product, FieldExpr(q.algebra, {
                                targets[t]: v for t, v in normal.items()}))


# -- critical charge --------------------------------------------------------


def critical_charge(q: BrstCurrent, param="c"):
    """{value} of the parameter where the charge becomes nilpotent: the common
    zero of the numerators of the obstruction's coefficients, re-checked there;
    set() when there is none or the check fails; None with no obstruction.
    Zeros not one rational value (several, irrational, or depending on other
    names) raise BrstError; no bundled current has them."""
    eqs = [{(): _canonical(o.num, o.num.ring.one)}
           for o in q.reduction[3].values()]
    outcome, point = common_zeros(eqs, 0, (param,))
    if outcome == "none":
        return set()
    if outcome == "family":
        return None
    if outcome != "point" or not point[param].is_constant:
        raise BrstError(f"the obstructions vanish at no single rational "
                        f"value of {param}")
    value = point[param].constant_value()
    return {value} if _verify_root(q.reduction, param, value) else set()


def _verify_root(reduction, param, value) -> bool:
    """Re-reduce pole 1 with the rows specialized at the value: the generic
    reduction misses a rank drop there, and a pole there, as of a
    denominator the coefficients' numerators cleared, rejects it."""
    targets, rows, pole1, _ = reduction
    at = {param: value}
    try:
        *rows, pole1 = [{j: v for j, a in row.items()
                         if (v := a.substitute(at))}
                        for row in (*rows, pole1)]
    except PoleError:
        return False
    return not normal_form(*rref(rows, len(targets)), pole1)


# -- conventional form ------------------------------------------------------


def unconventional_terms(q: BrstCurrent):
    """Terms of generator-degree at least four, in canonical order."""
    return [(m, v) for m, v in q.expr.sorted_terms() if len(m) >= 4]


def solve_conventional():
    """The unique ghost-sector parameters removing every term of
    generator-degree four or more from the spin-(2,3) current: the common
    zero of those terms' coefficients, polynomials in g1 and g2."""
    q = brst_w3(g1=None, g2=None, c=100)
    eqs = [{(): v} for _, v in unconventional_terms(q)]
    outcome, point = common_zeros(eqs, 0, ("g1", "g2"))
    if outcome == "none":
        raise BrstError("inconsistent system for the ghost parameters")
    if outcome != "point":
        raise BrstError("ghost parameters are not uniquely determined")
    return point["g1"].constant_value(), point["g2"].constant_value()


# -- ansatz derivation ------------------------------------------------------


@dataclass
class DeriveReport:
    message: str
    remaining: list = field(default_factory=list)  # free monomials of a family


def derive_brst(algebra: OpeAlgebra, leading, pinned=(), max_degree=None):
    """Reconstruct a nilpotent current from its leading terms.

    The ansatz runs over the weight-1, ghost-number-1, odd slice less its
    derivative directions (a current is defined modulo total
    derivatives); nilpotency gives quadratic equations in the ansatz
    coefficients.  ``max_degree`` keeps monomials of at most that many
    generator factors (a conventional current has 3); ``pinned``
    monomials are forced to zero.  Table parameters left symbolic stay in
    the coefficient field, so a result holds for their generic values.

    ``common_zeros`` solves the equations through their reduced
    lexicographic Gröbner basis.  A single rational point gives the
    current; a basis [1] means no current exists (for generic values of
    the symbolic table parameters); a family, which similarity
    transformations by ghost-number-zero charges can make, is reported
    with its free directions in ``DeriveReport.remaining``, and pinning
    them selects a point; any other basis is not a single rational point.
    Returns (BrstCurrent, None) on success, else (None, DeriveReport).

    The conditions take pole 1 of each unordered pair of members (leading
    and ansatz monomials) once, an off-diagonal pair weighted by 2.  For
    odd members, [m_j m_i]_1 - [m_i m_j]_1 is, by the exchange formula, a
    total derivative of a field in the weight-0, ghost-number-2, even
    slice, so both orders have the same normal form modulo total
    derivatives.
    """
    ctx = algebra.context()
    lead = [(m, RF_ONE) for m in leading] + [(m, RF_ZERO) for m in pinned]
    # gauge: the derivative maps the weight-0 slice into the weight-1
    # slice, its targets, and the pivots of its rows are the derivative
    # directions, which the ansatz leaves out
    _, index, rows = derivative_system(
        ctx, 0, 1, 1, weight_basis(algebra, 1, parity=1, ghost=1))
    basis = list(index)
    for m, _ in lead:
        if m not in index:
            raise BrstError(f"leading term {m.factors} is not in the "
                            "weight-1 slice")
    _, pivots = rref(rows, len(basis))
    lead_idx = {index[m] for m, _ in lead}
    if lead_idx & set(pivots):
        raise BrstError("a leading term is itself a total derivative "
                        "direction")
    ansatz = [i for i in range(len(basis))
              if i not in pivots and i not in lead_idx
              and (max_degree is None or len(basis[i]) <= max_degree)]

    members = [(m, coeff, None) for m, coeff in lead]
    members += [(basis[i], None, k) for k, i in enumerate(ansatz)]
    equations = _nilpotency_equations(ctx, members)

    outcome, found = common_zeros(equations, len(ansatz))
    if outcome == "none":
        none = ("no solution for generic values of "
                + ", ".join(algebra.params) if algebra.params
                else "no rational solution")
        return None, DeriveReport("nilpotency system has " + none)
    if outcome == "family":
        free = [basis[ansatz[k]] for k in found]
        return None, DeriveReport(
            "current is a family; free directions: "
            + ", ".join(str(m.factors) for m in free)
            + " (pin them to zero to select a point)", free)
    if outcome == "other":
        return None, DeriveReport("nilpotency system is not solved by a "
                                  "single rational point")
    terms = {}
    for m, coeff in lead:
        _add_into(terms, m, coeff)
    for k, i in enumerate(ansatz):
        _add_into(terms, basis[i], found[k])
    return BrstCurrent(algebra, FieldExpr(algebra, terms)), None


def _nilpotency_equations(ctx, members):
    """The conditions for the current sum of ``members`` to square to zero:
    the coefficients of the normal form of pole 1 of [J J] modulo the
    derivatives of the weight-0, ghost-number-2, even slice, one per
    target in ``mono_key`` order, from one ``rref`` and the normal form of
    pole 1 of each unordered member pair.  Each is a polynomial in the
    unknowns, {sorted tuple of unknown indices (multiplicity allowed):
    RationalFunction}; the zero ones are dropped."""
    pairs = []
    for i, (mi, _, _) in enumerate(members):
        for j in range(i, len(members)):
            if terms := ctx.ope_mono(mi, members[j][0]).get(1):
                pairs.append((i, j, terms))
    _, targets, rows = derivative_system(
        ctx, 0, 0, 2, {m for _, _, terms in pairs for m in terms})
    red, pivots = rref(rows, len(targets))
    equations = {}
    for i, j, terms in pairs:
        # the pair's monomial in the unknowns, and its known coefficients
        # (an off-diagonal pair twice)
        (_, ci, ki), (_, cj, kj) = members[i], members[j]
        key = tuple(sorted(k for k in (ki, kj) if k is not None))
        scale = RF_ONE if i == j else RF_ONE + RF_ONE
        for c in (ci, cj):
            if c is not None:
                scale = scale * c
        for t, val in normal_form(red, pivots, {
                targets[m]: v for m, v in terms.items()}).items():
            _add_into(equations.setdefault(t, {}), key, val * scale)
    return [eq for _, eq in sorted(equations.items()) if eq]
