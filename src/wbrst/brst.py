"""BRST currents for the two quadratic W-algebras, nilpotency modulo
total derivatives, critical central charges, the conventional-form
parameter point, and an ansatz-based derivation of the currents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .algebras import bundle, w3, w32, w3_ghosts, w32_ghosts
from .analysis import derivative_system, weight_basis
from .errors import WbrstError
from .fields import FieldExpr, Monomial, OpeAlgebra
from .linalg import left_nullspace, nullspace, rref, solve, solve_best
from .scalars import (PoleError, RF_ONE, RF_ZERO, RationalFunction,
                      rational_roots, _add_into)


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
    ctx = q.context
    poles = q.self_product
    pole1 = poles.get(1, FieldExpr.zero(q.algebra))
    basis, matrix, rhs = derivative_system(ctx, pole1)
    best = FieldExpr(q.algebra, dict(zip(
        basis, solve_best(matrix, rhs, RF_ZERO, RF_ONE))))
    residual = pole1 - ctx.derivative(best)
    if residual.is_zero:
        return NilpotencyReport("nilpotent", poles, residual, best)
    return NilpotencyReport("obstructed", poles, residual, None)


# -- critical charge --------------------------------------------------------


def critical_charge(q: BrstCurrent, param="c"):
    """Rational values of the parameter at which the charge becomes
    nilpotent: common rational roots of the obstruction numerators
    (verified by re-evaluation), excluding coefficient poles.

    Returns None when the obstruction vanishes identically (nilpotent
    for every value)."""
    ctx = q.context
    pole1 = q.self_product.get(1, FieldExpr.zero(q.algebra))
    if pole1.is_zero:
        return None
    basis, matrix, rhs = derivative_system(ctx, pole1)
    cokernel = left_nullspace(matrix, len(matrix), len(basis),
                              RF_ZERO, RF_ONE)
    obstructions = []
    for y in cokernel:
        o = _dot(y, rhs)
        if not o.is_zero:
            obstructions.append(o)
    if not obstructions:
        return None
    candidates = None
    for o in obstructions:
        roots = rational_roots(o, param)
        candidates = roots if candidates is None else candidates & roots
        if not candidates:
            return set()
    out = set()
    for r in sorted(candidates):
        if _verify_root(matrix, rhs, param, r):
            out.add(r)
    return out


def _dot(y, rhs):
    o = RF_ZERO
    for yi, ri in zip(y, rhs):
        if yi and ri:
            o = o + yi * ri
    return o


def _verify_root(matrix, rhs, param, value) -> bool:
    """Re-check candidate values on the specialized linear system; the
    generic-rank cokernel can miss conditions that appear at special
    parameter values."""
    try:
        m = [[a.substitute({param: value}) for a in row] for row in matrix]
        b = [a.substitute({param: value}) for a in rhs]
    except PoleError:
        return False
    return solve(m, b, RF_ZERO, RF_ONE) is not None


# -- conventional form ------------------------------------------------------


def unconventional_terms(q: BrstCurrent):
    """Terms of generator-degree at least four, in canonical order."""
    out = [(m, v) for m, v in q.expr.sorted_terms() if len(m.factors) >= 4]
    return out


def solve_conventional():
    """The unique ghost-sector parameters removing every term of
    generator-degree four or more from the spin-(2,3) current."""
    q = brst_w3(g1=None, g2=None, c=100)
    eqs = [v for _, v in unconventional_terms(q)]
    if not eqs:
        raise BrstError("nothing to solve: no higher-degree terms")
    g1, g2 = RationalFunction.var("g1"), RationalFunction.var("g2")
    rows, rhs = [], []
    for v in eqs:
        const = v.substitute({"g1": 0, "g2": 0})
        a1 = v.substitute({"g1": 1, "g2": 0}) - const
        a2 = v.substitute({"g1": 0, "g2": 1}) - const
        if not (const.is_constant and a1.is_constant and a2.is_constant):
            raise BrstError("coefficient depends on parameters other "
                            "than the ghost-sector ones")
        if v != const + a1 * g1 + a2 * g2:
            raise BrstError("system is not linear in the parameters")
        rows.append([a1.constant_value(), a2.constant_value()])
        rhs.append(-const.constant_value())
    x = solve(rows, rhs, Fraction(0), Fraction(1))
    if x is None:
        raise BrstError("inconsistent system for the ghost parameters")
    if nullspace(rows, 2, Fraction(0), Fraction(1)):
        raise BrstError("ghost parameters are not uniquely determined")
    return x[0], x[1]


# -- ansatz derivation ------------------------------------------------------


@dataclass
class DeriveReport:
    solved: dict = field(default_factory=dict)
    remaining: list = field(default_factory=list)
    message: str = ""


def derive_brst(algebra: OpeAlgebra, leading, pinned=(), max_degree=None):
    """Reconstruct a nilpotent current from its leading terms.

    The ansatz runs over the weight-1, ghost-number-1, odd slice with
    derivative directions removed (the current is only defined modulo
    total derivatives); nilpotency modulo derivatives gives quadratic
    equations solved by staged elimination of variables appearing
    linearly.  ``max_degree`` restricts the ansatz to monomials of at
    most that many generator factors (a conventional current has
    generator-degree 3).  ``pinned`` monomials are forced to zero;
    similarity transformations by ghost-number-zero charges can make a
    one-parameter family of nilpotent currents, and the report then
    names the free directions so the caller can pin them.  Returns
    (BrstCurrent, None) on success, else (None, DeriveReport).
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
    basis = weight_basis(algebra, 1, parity=1, ghost=1)
    index = {m: i for i, m in enumerate(basis)}
    for m, _ in lead:
        if m not in index:
            raise BrstError(f"leading term {m.factors} is not in the "
                            "weight-1 slice")
    # gauge: remove the image of the derivative from the ansatz
    exact = weight_basis(algebra, 0, parity=1, ghost=1)
    rows = []
    for m in exact:
        im = ctx.derivative(FieldExpr(algebra, {m: RF_ONE}))
        row = [RF_ZERO] * len(basis)
        for mm, v in im.terms.items():
            row[index[mm]] = v
        rows.append(row)
    _, pivots = rref(rows, len(basis))
    lead_idx = {index[m] for m, _ in lead}
    if lead_idx & set(pivots):
        raise BrstError("a leading term is itself a total derivative "
                        "direction")
    ansatz = [i for i in range(len(basis))
              if i not in pivots and i not in lead_idx
              and (max_degree is None or len(basis[i].factors) <= max_degree)]

    members = [(m, coeff, None) for m, coeff in lead]
    members += [(basis[i], None, k) for k, i in enumerate(ansatz)]

    # obstruction conditions: cokernel of the derivative on the
    # ghost-number-2 slice applied to the first pole of [J J]
    pair_vec = {}
    targets = set()
    for i, (mi, _, _) in enumerate(members):
        for j, (mj, _, _) in enumerate(members):
            e = ctx.ope_mono(mi, mj).get(1)
            if e is not None and not e.is_zero:
                pair_vec[(i, j)] = e
                targets.update(e.terms)
    exact2 = weight_basis(algebra, 0, parity=0, ghost=2)
    images2 = [ctx.derivative(FieldExpr(algebra, {m: RF_ONE}))
               for m in exact2]
    for im in images2:
        targets.update(im.terms)
    targets = sorted(targets, key=algebra.mono_key)
    dmat = [[im.coefficient(t) for im in images2] for t in targets]
    cokernel = left_nullspace(dmat, len(targets), len(exact2),
                              RF_ZERO, RF_ONE)

    # equations as polynomials in the unknowns: key = sorted tuple of
    # unknown indices (multiplicity allowed), value = rational function
    equations = []
    for y in cokernel:
        # the nonzero entries of y only: most pair products miss them
        y = {t: w for t, w in zip(targets, y) if w}
        eq = {}
        for (i, j), e in pair_vec.items():
            val = RF_ZERO
            for mm, v in e.terms.items():
                w = y.get(mm)
                if w is not None:
                    val = val + w * v
            if not val:
                continue
            ki = members[i][2]
            kj = members[j][2]
            if ki is not None and kj is not None:
                key = tuple(sorted((ki, kj)))
            elif ki is not None or kj is not None:
                k = ki if ki is not None else kj
                val = val * (members[j][1] if ki is not None else members[i][1])
                key = (k,)
            else:
                val = val * members[i][1] * members[j][1]
                key = ()
            _add_into(eq, key, val)
        if eq:
            equations.append(eq)

    nunknown = len(ansatz)
    solutions = _eliminate(equations, set(range(nunknown)))
    if not solutions:
        return None, DeriveReport(remaining=equations,
                                  message="nilpotency system has no "
                                          "rational solution")
    frees = [s for s in solutions if s[0] == "free"]
    if frees:
        names = sorted({basis[ansatz[k]].factors
                        for s in frees for k in s[1]})
        return None, DeriveReport(
            remaining=names,
            message="current is a family; free directions: "
                    + ", ".join(str(n) for n in names)
                    + " (pin them to zero to select a point)")
    stalled = [s for s in solutions if s[0] == "stalled"]
    if stalled:
        return None, DeriveReport(remaining=stalled[0][1],
                                  message="staged elimination stalled")
    if len(solutions) > 1:
        return None, DeriveReport(remaining=equations,
                                  message="current is not unique: "
                                          f"{len(solutions)} solutions")
    _, solved = solutions[0]
    terms = {}
    for m, coeff in lead:
        _add_into(terms, m, coeff)
    for k, i in enumerate(ansatz):
        _add_into(terms, basis[i], solved[k])
    return BrstCurrent(algebra, FieldExpr(algebra, terms)), None


# -- quadratic system elimination -------------------------------------------
#
# Equations are polynomials in the unknowns, stored as
# {sorted tuple of unknown indices: RationalFunction}.


def _p_scale(p, k):
    return {key: v * k for key, v in p.items()}


def _p_mul(p, q):
    out = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            _add_into(out, tuple(sorted(k1 + k2)), v1 * v2)
    return out


def _p_subst(p, k, value):
    """Substitute unknown k by the polynomial ``value``."""
    out = {}
    for key, v in p.items():
        newkey = tuple(x for x in key if x != k)
        term = {newkey: v}
        for _ in range(len(key) - len(newkey)):
            term = _p_mul(term, value)
        for tkey, tv in term.items():
            _add_into(out, tkey, tv)
    return out


def _unknowns_of(p):
    return {x for key in p for x in key}


def _eliminate(equations, remaining, depth=0):
    """All rational solutions of the quadratic system, found by repeated
    elimination of unknowns that occur linearly with a constant
    coefficient, branching over rational roots when only univariate
    higher-degree equations remain.  ``remaining`` is the set of
    unknown indices not yet fixed by an enclosing branch.

    Returns a list of entries: ("complete", {k: RationalFunction}),
    ("free", undetermined-index list) for a solution family, or
    ("stalled", remaining equations).
    """
    if depth > len(remaining) + 4:
        return [("stalled", equations)]
    eqs = [e for e in equations if e]
    if any(set(e) == {()} for e in eqs):
        return []
    assigns = {}          # k -> polynomial in later-solved unknowns
    order = []
    progress = True
    while progress and eqs:
        progress = False
        best = None
        for eq in eqs:
            # only eliminate with constant or linear values; substituting
            # quadratic expressions makes the system degree explode
            if max(len(key) for key in eq) > 1:
                continue
            for k in sorted(_unknowns_of(eq)):
                others = len(_unknowns_of(eq) - {k})
                if best is None or others < best[2]:
                    best = (eq, k, others)
            if best is not None and best[2] == 0:
                break
        if best is not None:
            eq, k, _ = best
            rest = {key: v for key, v in eq.items() if key != (k,)}
            value = _p_scale(rest, -RF_ONE / eq[(k,)])
            assigns[k] = value
            order.append(k)
            eqs = [e for e in (_p_subst(e, k, value) for e in eqs) if e]
            if any(set(e) == {()} for e in eqs):
                return []
            progress = True
    if not eqs:
        free = remaining - set(assigns)
        if free:
            # leftover directions satisfy every equation for any value;
            # the current is a family, not a point
            return [("free", sorted(free))]
        sol = _resolve(assigns, order, {})
        return [("complete", sol)] if sol is not None else []
    # branch on a univariate equation
    for eq in eqs:
        vs = _unknowns_of(eq)
        if len(vs) != 1:
            continue
        (k,) = vs
        x = RationalFunction.var("x")
        poly = RF_ZERO
        for key, v in eq.items():
            if not v.is_constant:
                break
            term = v
            for _ in key:
                term = term * x
            poly = poly + term
        else:
            roots = rational_roots(poly, "x")
            sols = []
            inner_remaining = remaining - set(assigns) - {k}
            for r in sorted(roots):
                sub = [_p_subst(e, k, {(): RationalFunction.const(r)})
                       for e in eqs]
                for branch in _eliminate(sub, inner_remaining, depth + 1):
                    if branch[0] == "complete":
                        branch[1][k] = RationalFunction.const(r)
                        full = _resolve(assigns, order, branch[1])
                        if full is not None:
                            sols.append(("complete", full))
                    else:
                        sols.append(branch)
            uniq = []
            for s in sols:
                if s not in uniq:
                    uniq.append(s)
            return uniq
    return [("stalled", eqs)]


def _resolve(assigns, order, known):
    """Back-substitute the elimination chain into explicit values."""
    values = dict(known)
    for k in reversed(order):
        p = assigns[k]
        for j in sorted(_unknowns_of(p)):
            if j not in values:
                return None
            p = _p_subst(p, j, {(): values[j]})
        bad = [key for key in p if key != ()]
        if bad:
            return None
        values[k] = p.get((), RF_ZERO)
    return values
