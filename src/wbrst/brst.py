"""BRST currents, their nilpotency modulo total derivatives, critical
central charges, the conventional-form parameter point, and an
ansatz-based derivation of a current.

A current is a ``.brst`` file, read by ``CurrentFile``.  Nilpotency and
the critical charges read one row reduction per current,
``BrstCurrent.reduction``: its pivot rows give the derivative preimage of
pole 1 of J(z)J(w), its rows below the rank the obstructions, whose
common zero ``common_zeros`` solves for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .algebras import A2_MODES, bundle, bundled_text
from .analysis import derivative_system, weight_basis
from .errors import WbrstError
from .fields import FieldExpr, Monomial, OpeAlgebra
from .linalg import left_nullspace, rref, solve, solve_columns
from .parsing import (ParseError, _number, format_field_expr,
                      parse_algebra_file, parse_field_expr)
from .scalars import (PoleError, RF_ONE, RF_ZERO, RationalFunction,
                      common_zeros, _add_into, _canonical)


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
        """(basis, matrix, rhs, x, obstructions): the derivative system of
        the first pole of ``self_product`` on the weight-0, ghost-number-2,
        even slice, and its one ``solve_columns`` reduction.  Pole 1 is
        the derivative of sum_m x_m m exactly when there are no
        obstructions.  Built once per current and shared like
        ``self_product``, so no reader may change it."""
        pole1 = self.self_product.get(1, FieldExpr.zero(self.algebra))
        basis, targets, matrix = derivative_system(self.context, 0, 0, 2,
                                                   pole1.terms)
        rhs = {targets[t]: v for t, v in pole1.terms.items()}
        (x, obstructions), = solve_columns(matrix, [rhs])
        return basis, matrix, rhs, x, obstructions


@dataclass
class NilpotencyReport:
    verdict: str                  # "nilpotent" or "obstructed"
    poles: dict                   # full self-product
    obstruction: FieldExpr        # first pole reduced modulo derivatives
    preimage: FieldExpr | None    # derivative preimage when nilpotent

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
    return text, [p for line in text.splitlines()
                  if (w := line.split("#", 1)[0].split())[:1] == ["param"]
                  for p in w[1:]]


class CurrentFile:
    """A ``.brst`` file: ``tables NAME ...`` names the bundled tables of
    the current, ``default NAME=VALUE ...`` binds what the command line
    leaves unset, and ``term EXPR`` lines sum to the current.  ``params``
    are those its tables declare."""

    def __init__(self, text):
        self.tables, self.terms, self.defaults = None, [], {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            head, _, rest = raw.split("#", 1)[0].strip().partition(" ")
            if head == "tables" and self.tables is None:
                self.tables = {t: _table(t, lineno) for t in rest.split()}
                self.params = [*dict.fromkeys(
                    p for _, ps in self.tables.values() for p in ps)]
            elif head == "default" and self.tables:
                for name, _, value in (x.partition("=") for x in rest.split()):
                    if name not in self.params or name in self.defaults:
                        raise ParseError(f"default {name!r} is not a new "
                                         "parameter of the tables", lineno)
                    self.defaults[name] = _number(Fraction, value, name, lineno)
            elif head == "term":
                self.terms.append((lineno, rest))
            elif head:
                raise ParseError(f"unknown or misplaced directive {head!r}",
                                 lineno)
        if not self.tables:
            raise ParseError("missing 'tables NAME ...' line", 1)

    def current(self, values=(), printed=False) -> BrstCurrent:
        """The current with each parameter bound to its value in
        ``values``, else to its default; None leaves it symbolic.
        ``printed`` reads the bundled table w3, if any, as printed."""
        bound = {**self.defaults, **dict(values)}
        for p in bound:
            if p not in self.params:
                raise BrstError(f"no table of the current declares {p!r}")
        bound = {p: v for p, v in bound.items() if v is not None}
        alg = bundle("+".join(self.tables), *(parse_algebra_file(
            bundled_text("w3_printed", "alg") if printed and t == "w3"
            else text, {p: bound[p] for p in ps if p in bound})
            for t, (text, ps) in self.tables.items()))
        expr = FieldExpr.zero(alg)
        for lineno, text in self.terms:
            expr = expr + parse_field_expr(text, alg, lineno, bindings=bound)
        return BrstCurrent(alg, expr)


def brst_w3(g1=0, g2=0, c=None, a2_mode="exchange-consistent") -> BrstCurrent:
    """The current of ``data/w3.brst``; None makes a parameter symbolic."""
    if a2_mode not in A2_MODES:
        raise ValueError(f"a2_mode must be one of {A2_MODES}")
    return CurrentFile(bundled_text("w3", "brst")).current(
        {"g1": g1, "g2": g2, "c": c}, printed=a2_mode == "as-printed")


def brst_w32(c=None) -> BrstCurrent:
    """The current of ``data/w32.brst``; None makes c symbolic."""
    return CurrentFile(bundled_text("w32", "brst")).current({"c": c})


# -- nilpotency -------------------------------------------------------------


def nilpotency(q: BrstCurrent) -> NilpotencyReport:
    """The charge squares to zero exactly when the first pole of the
    current's self-product is a total derivative; higher poles are
    reported but impose no condition on the charge."""
    poles = q.self_product
    basis, _, _, x, obstructions = q.reduction
    best = FieldExpr(q.algebra, {basis[m]: v for m, v in x.items()})
    if not obstructions:
        return NilpotencyReport("nilpotent", poles,
                                FieldExpr.zero(q.algebra), best)
    residual = poles[1] - q.context.derivative(best)
    return NilpotencyReport("obstructed", poles, residual, None)


# -- critical charge --------------------------------------------------------


def critical_charge(q: BrstCurrent, param="c"):
    """{value} of the parameter at which the charge becomes nilpotent, the
    common zero of the obstructions' numerators, re-checked there; set()
    when there is none or the check fails; None with no obstructions.
    Zeros not one rational value (several, irrational, or depending on
    other names) raise BrstError; no bundled current has them."""
    _, matrix, rhs, _, obstructions = q.reduction
    eqs = [{(): _canonical(o.num, o.num.ring.one)} for o in obstructions]
    outcome, point = common_zeros(eqs, 0, (param,))
    if outcome == "none":
        return set()
    if outcome == "family":
        return None
    if outcome != "point" or not point[param].is_constant:
        raise BrstError(f"the obstructions vanish at no single rational "
                        f"value of {param}")
    value = point[param].constant_value()
    return {value} if _verify_root(matrix, rhs, param, value) else set()


def _verify_root(matrix, rhs, param, value) -> bool:
    """Re-check a value on the linear system specialized there: the generic
    reduction misses a rank drop at the value, and a pole there, as of a
    denominator the obstructions' numerators cleared, rejects it."""
    at = {param: value}
    try:
        m = [{j: v for j, a in row.items() if (v := a.substitute(at))}
             for row in (*matrix, rhs)]
    except PoleError:
        return False
    return solve(m[:-1], m[-1]) is not None


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
    slice, whose monomials are already derivative images: the cokernel is
    the same, and every cokernel vector annihilates it.
    """
    ctx = algebra.context()
    lead = []
    for item in leading:
        if isinstance(item, tuple) and isinstance(item[0], Monomial):
            lead.append((item[0], RationalFunction.const(Fraction(item[1]))))
        else:
            lead.append((item, RF_ONE))
    for m in pinned:
        lead.append((m, RF_ZERO))
    # gauge: remove the image of the derivative from the ansatz.  The
    # derivative maps the weight-0 slice into the weight-1 slice, and the
    # pivots of the images, taken as rows, are the derivative directions
    basis = weight_basis(algebra, 1, parity=1, ghost=1)
    index = {m: i for i, m in enumerate(basis)}
    for m, _ in lead:
        if m not in index:
            raise BrstError(f"leading term {m.factors} is not in the "
                            "weight-1 slice")
    images = [ctx.derivative(FieldExpr(algebra, {m: RF_ONE}))
              for m in weight_basis(algebra, 0, parity=1, ghost=1)]
    _, pivots = rref([{index[t]: v for t, v in im.terms.items()}
                      for im in images], len(basis))
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
    the cokernel of the derivative on the weight-0, ghost-number-2, even
    slice applied to the first pole of [J J].  Each condition is a
    polynomial in the unknowns, {sorted tuple of unknown indices
    (multiplicity allowed): RationalFunction}; the zero ones are dropped."""
    pairs = []
    monomials = set()
    for i, (mi, _, _) in enumerate(members):
        for j in range(i, len(members)):
            e = ctx.ope_mono(mi, members[j][0]).get(1)
            if e is not None:
                pairs.append((i, j, e))
                monomials.update(e.terms)
    exact2, targets, dmat = derivative_system(ctx, 0, 0, 2, monomials)
    cokernel = left_nullspace(dmat, len(targets), len(exact2))

    # target row -> [(cokernel index, nonzero weight)]: most pair
    # products miss most cokernel entries
    column = {}
    for yi, y in enumerate(cokernel):
        for t, w in y.items():
            column.setdefault(t, []).append((yi, w))
    equations = [{} for _ in cokernel]
    for i, j, e in pairs:
        vals = {}
        for mm, v in e.terms.items():
            for yi, w in column.get(targets[mm], ()):
                _add_into(vals, yi, w * v)
        ki, kj = members[i][2], members[j][2]
        for yi, val in vals.items():
            if i != j:
                val = val + val
            if ki is not None and kj is not None:
                key = tuple(sorted((ki, kj)))
            elif ki is not None or kj is not None:
                k = ki if ki is not None else kj
                val = val * (members[j][1] if ki is not None else members[i][1])
                key = (k,)
            else:
                val = val * members[i][1] * members[j][1]
                key = ()
            _add_into(equations[yi], key, val)
    return [eq for eq in equations if eq]
