"""BRST currents for the two quadratic W-algebras, nilpotency modulo
total derivatives, critical central charges, the conventional-form
parameter point, and an ansatz-based derivation of the currents.

Nilpotency and the critical charges read one row reduction per current,
``BrstCurrent.reduction``: its pivot rows give the derivative preimage of
pole 1 of J(z)J(w), and its rows below the rank the obstructions.  The
critical charge is the common zero of their numerators, which
``common_zeros`` solves for as it does the conventional point and the
derived current.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .algebras import bundle, w3, w32, w3_ghosts, w32_ghosts
from .analysis import derivative_system, weight_basis
from .errors import WbrstError
from .fields import FieldExpr, Monomial, OpeAlgebra
from .linalg import left_nullspace, rref, solve, solve_columns
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
        from .parsing import format_field_expr
        return {
            "verdict": self.verdict,
            "obstruction": "0" if self.obstruction.is_zero
                           else format_field_expr(self.obstruction),
            "higher_poles": {
                str(n): format_field_expr(e)
                for n, e in sorted(self.poles.items()) if n >= 2},
        }


def _coef(value, name):
    if value is None:
        return RationalFunction.var(name)
    return RationalFunction.const(Fraction(value))


def brst_w3(g1=0, g2=0, c=None, a2_mode="exchange-consistent") -> BrstCurrent:
    """The eight-term current for the spin-(2,3) algebra with the
    two-parameter ghost sector; g1 = g2 = 0 is the canonical form and
    None makes a parameter symbolic."""
    gv1, gv2 = _coef(g1, "g1"), _coef(g2, "g2")
    alg = bundle("w3_brst", w3(c, a2_mode), w3_ghosts(g1, g2))
    ctx = alg.context()
    g = lambda n: FieldExpr.generator(alg, n)
    d = ctx.derivative
    n2 = ctx.normal_product
    n3 = lambda x, y, z: n2(x, n2(y, z))
    t, w = g("T"), g("W")
    bt, ct, bw, cw = g("bT"), g("cT"), g("bW"), g("cW")
    gsum = gv1 + gv2
    q712 = RationalFunction.const(Fraction(17, 12))
    q54 = RationalFunction.const(Fraction(5, 4))
    half = RationalFunction.const(Fraction(1, 2))
    expr = (
        n2(ct, t) + n2(cw, w)
        - n3(bt, d(ct), ct)
        - n3(bt, d(cw, 3), cw).scaled(
            RationalFunction.const(Fraction(125, 1566)) + q712 * gsum)
        - n3(ct, bw, d(cw))
        - n3(d(bt), d(cw, 2), cw).scaled(
            RationalFunction.const(Fraction(25, 522)) + q54 * gsum)
        + n3(d(ct), bw, cw).scaled(2)
        - n2(t, n3(bt, d(cw), cw)).scaled(
            RationalFunction.const(Fraction(8, 261)) + half * gsum)
        - n2(d(bt), n3(bt, ct, n2(d(cw), cw))).scaled(gv1)
    )
    return BrstCurrent(alg, expr)


def brst_w32(c=None) -> BrstCurrent:
    """The nineteen-term cubic current for the weight-(2, 1, 3/2, 3/2)
    algebra with its fixed quadratic ghost sector."""
    alg = bundle("w32_brst", w32(c), w32_ghosts())
    ctx = alg.context()
    g = lambda n: FieldExpr.generator(alg, n)
    d = ctx.derivative
    n2 = ctx.normal_product
    n3 = lambda x, y, z: n2(x, n2(y, z))
    t, u, gp, gm = g("T"), g("U"), g("Gp"), g("Gm")
    bt, ct, bu, cu = g("bT"), g("cT"), g("bU"), g("cU")
    cp, bp, cm, bm = g("cp"), g("bp"), g("cm"), g("bm")
    h = Fraction(1, 2)
    expr = (
        n2(ct, t) + n2(cu, u) + n2(cp, gp) + n2(cm, gm)
        + n3(cu, bp, cp) - n3(cu, bm, cm)
        + n3(d(ct), bu, cu).scaled(h)
        + n3(ct, d(bu), cu).scaled(h)
        - n3(ct, bu, d(cu)).scaled(h)
        + n3(d(ct), bp, cp).scaled(Fraction(3, 4))
        + n3(ct, d(bp), cp).scaled(Fraction(1, 4))
        - n3(ct, bp, d(cp)).scaled(Fraction(3, 4))
        + n3(d(ct), bm, cm).scaled(Fraction(3, 4))
        + n3(ct, d(bm), cm).scaled(Fraction(1, 4))
        - n3(ct, bm, d(cm)).scaled(Fraction(3, 4))
        + n3(bu, cp, d(cm)).scaled(4)
        + n3(d(bu), cp, cm).scaled(3)
        + n3(bu, d(cp), cm).scaled(2)
        - n3(bt, d(ct), ct)
        - n3(bt, cp, cm).scaled(2)
    )
    return BrstCurrent(alg, expr)


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

    The ansatz runs over the weight-1, ghost-number-1, odd slice with
    derivative directions removed (the current is only defined modulo
    total derivatives); nilpotency modulo derivatives gives quadratic
    equations in the ansatz coefficients.  ``max_degree`` restricts the
    ansatz to monomials of at most that many generator factors (a
    conventional current has generator-degree 3).  ``pinned`` monomials
    are forced to zero.  Table parameters left symbolic stay in the
    coefficient field, so a result holds for their generic values.

    ``common_zeros`` solves the equations through their reduced
    lexicographic Gröbner basis, with four outcomes.  A single rational
    point gives the current.  A basis [1] means no current exists, for
    generic values of the table parameters left symbolic, if any.  A
    family, which similarity transformations by ghost-number-zero
    charges can make, is reported with its free directions in
    ``DeriveReport.remaining``; pinning them selects a point.  Any other
    basis is reported as not a single rational point.  Returns
    (BrstCurrent, None) on success, else (None, DeriveReport).

    The conditions take pole 1 of each unordered pair of members (leading
    and ansatz monomials) once, an off-diagonal pair weighted by 2.  For
    odd members, [m_j m_i]_1 - [m_i m_j]_1 is, by the exchange formula, a
    total derivative of a field in the weight-0, ghost-number-2, even
    slice.  Its monomials are among the derivative images already, so the
    cokernel is the same, and every cokernel vector annihilates it.
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
