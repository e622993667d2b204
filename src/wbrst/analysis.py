"""Structural checks on operator product tables and expressions.

Graded bases, the derivative matrix of a slice (which the BRST checks
reduce as well), total-derivative tests, Jacobi identities, central
charge and primariness extraction, and maps between tables: a map of
the generators of one table to expressions of another, applied as a
homomorphism through normal products and derivatives, and checked pole
by pole on every generator pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .engine import OpeContext
from .errors import WbrstError
from .fields import FieldExpr, Monomial, OpeAlgebra
from .linalg import normal_form, rref
from .scalars import RF_ONE, RF_ZERO, RationalFunction


class AnalysisError(WbrstError):
    pass


def substitute_expr(expr: FieldExpr, bindings: dict) -> FieldExpr:
    return FieldExpr(expr.algebra,
                     {m: v.substitute(bindings) for m, v in expr.terms.items()})


# -- graded bases ----------------------------------------------------------


def weight_basis(algebra: OpeAlgebra, weight, parity=None, ghost=None):
    """All canonical monomials of the given total weight, optionally
    filtered by parity and ghost number, in ``mono_key`` order.

    The set is finite exactly when every generator admitting a factor of
    non-positive weight is odd (each such factor can then appear at most
    once); otherwise an AnalysisError is raised.  Weights are enumerated
    as integers in units of 1/den, den the least common denominator of the
    target and generator weights.
    """
    weight = Fraction(weight)
    gens = algebra.generators
    for g in gens:
        if g.weight <= 0 and not g.parity:
            raise AnalysisError(
                f"even generator {g.name!r} of non-positive weight makes "
                "the fixed-weight basis infinite")
    den = lcm(weight.denominator,
              *(Fraction(g.weight).denominator for g in gens))
    units = [int(g.weight * den) for g in gens]
    # factor kinds in factor_key order: (key, factor, weight in units,
    # parity, ghost number); the non-positive ones each appear at most once
    nonpos = [((i, d), (g.name, d), units[i] + d * den, g.parity, g.ghost)
              for i, g in enumerate(gens)
              for d in range(max(0, -units[i] // den + 1))]
    target = int(weight * den)
    rem_max = target - sum(k[2] for k in nonpos)
    pos = []
    for i, g in enumerate(gens):
        d = max(0, -units[i] // den + 1)
        while units[i] + d * den <= rem_max:
            pos.append(((i, d), (g.name, d), units[i] + d * den,
                        g.parity, g.ghost))
            d += 1

    results = []

    def pos_extend(start, rem, chosen, p, gh):
        if rem == 0:
            if (parity is None or p % 2 == parity) \
                    and (ghost is None or gh == ghost):
                results.append(sorted(chosen))
            return
        for j in range(start, len(pos)):
            kind = pos[j]
            if kind[2] <= rem:
                # an odd factor appears at most once
                pos_extend(j + 1 if kind[3] else j, rem - kind[2],
                           chosen + [kind], p + kind[3], gh + kind[4])

    for mask in range(1 << len(nonpos)):
        subset = [nonpos[i] for i in range(len(nonpos)) if mask >> i & 1]
        pos_extend(0, target - sum(k[2] for k in subset), subset,
                   sum(k[3] for k in subset), sum(k[4] for k in subset))
    # sorted by mono_key: the number of factors, then their keys
    results.sort(key=lambda kinds: (len(kinds), [k[0] for k in kinds]))
    return [Monomial(k[1] for k in kinds) for kinds in results]


# -- total derivatives -----------------------------------------------------


def derivative_system(ctx: OpeContext, weight, parity, ghost, extra):
    """(basis, targets, rows) of the derivative on one slice: basis is the
    ``weight_basis`` of the given weight, parity and ghost number, targets
    numbers the monomials of ``extra`` and of the derivatives of the basis
    in ``mono_key`` order, and rows[m] is the derivative of basis[m] as
    the sparse row {targets[t]: coefficient of t}.  Every derivative image
    the package reduces is built here; its normal form modulo these rows
    (``linalg.normal_form``) clears the targets in ``mono_key`` order."""
    alg = ctx.algebra
    basis = weight_basis(alg, weight, parity=parity, ghost=ghost)
    images = [ctx.derivative(FieldExpr(alg, {m: RF_ONE})) for m in basis]
    targets = set(extra).union(*(im.terms for im in images))
    targets = {t: i for i, t in enumerate(sorted(targets, key=alg.mono_key))}
    rows = [{targets[t]: v for t, v in im.terms.items()} for im in images]
    return basis, targets, rows


def is_total_derivative(ctx: OpeContext, expr: FieldExpr):
    """(True, preimage) when expr is the derivative of a field of one weight
    less with its parity and ghost number, else (False, None): the normal
    form of expr modulo the derivative rows, each with a unit block, is
    zero over the targets, and minus its unit block is the preimage."""
    if expr.is_zero:
        return True, expr
    w, p, g = expr.weight(), expr.parity(), expr.ghost()
    if w is None or p is None or g is None:
        raise AnalysisError("expression is not homogeneous")
    basis, targets, rows = derivative_system(ctx, w - 1, p, g, expr.terms)
    n = len(targets)
    red, pivots = rref([{**row, n + m: 1} for m, row in enumerate(rows)], n)
    rest = normal_form(red, pivots,
                       {targets[t]: v for t, v in expr.terms.items()})
    if any(j < n for j in rest):
        return False, None
    return True, FieldExpr(ctx.algebra,
                           {basis[j - n]: -v for j, v in rest.items()})


# -- identities ------------------------------------------------------------


def jacobi_check(ctx: OpeContext, a: FieldExpr, b: FieldExpr, c: FieldExpr):
    """Residuals (p, q, value) of the pole-bracket Jacobi identity, sorted
    by (p, q); empty list = pass, as for a zero argument."""
    if not (a.terms and b.terms and c.terms):
        return []
    pa, pb = a.parity(), b.parity()
    if pa is None or pb is None:
        raise AnalysisError("arguments must have definite parity")
    sign = -1 if pa and pb else 1
    ab, ac, bc = ctx.ope(a, b), ctx.ope(a, c), ctx.ope(b, c)
    # the pole pair (p, q) of [a [b c]_q]_p - sign [b [a c]_p]_q
    # - sum_l binom(p - 1, l - 1) [[a b]_l c]_(p+q-l)
    z = FieldExpr.zero(ctx.algebra)
    acc = {}
    for q, e in bc.items():
        for p, r in ctx.ope(a, e).items():
            acc[p, q] = acc.get((p, q), z) + r
    for p, e in ac.items():
        for q, r in ctx.ope(b, e).items():
            acc[p, q] = acc.get((p, q), z) - r.scaled(sign)
    for l, e in ab.items():
        for m, r in ctx.ope(e, c).items():
            for p in range(l, l + m):
                q = l + m - p
                acc[p, q] = acc.get((p, q), z) - r.scaled(comb(p - 1, l - 1))
    return [(p, q, r) for (p, q), r in sorted(acc.items()) if not r.is_zero]


def central_charge(ctx: OpeContext, t: FieldExpr) -> RationalFunction:
    """Twice the fourth-pole coefficient of the self-product of a
    stress tensor candidate."""
    poles = ctx.ope(t, t)
    for n in poles:
        if n > 4:
            raise AnalysisError(f"self-product has a pole of order {n} > 4")
    top = poles.get(4)
    if top is None:
        return RF_ZERO
    from .fields import UNIT
    if set(top.terms) != {UNIT}:
        raise AnalysisError("fourth pole is not proportional to the identity")
    return top.terms[UNIT] + top.terms[UNIT]


def primary_check(ctx: OpeContext, t: FieldExpr, x: FieldExpr, weight=None):
    """Is x primary of the given weight with respect to t?"""
    if weight is None:
        weight = x.weight()
    poles = ctx.ope(t, x)
    issues = []
    for n, e in poles.items():
        if n > 2:
            issues.append(f"pole {n} nonzero")
    if poles.get(2, FieldExpr.zero(ctx.algebra)) != x.scaled(weight):
        issues.append("second pole is not weight * field")
    if poles.get(1, FieldExpr.zero(ctx.algebra)) != ctx.derivative(x):
        issues.append("first pole is not the derivative")
    return not issues, issues


# -- table validation ------------------------------------------------------


def validate_table(algebra: OpeAlgebra):
    """Grading and self-pair exchange consistency of the stored table.

    Returns a list of human-readable issues; an empty list means the
    table is consistent.
    """
    issues = []
    ctx = algebra.context()
    for (a, b), poles in algebra.table_items():
        da, db = algebra.decl(a), algebra.decl(b)
        for n, expr in poles.items():
            want_w = da.weight + db.weight - n
            want_p = (da.parity + db.parity) % 2
            want_g = da.ghost + db.ghost
            for m in expr.terms:
                if algebra.mono_weight(m) != want_w:
                    issues.append(
                        f"ope {a} {b} pole {n}: weight of {m.factors} is "
                        f"{algebra.mono_weight(m)}, expected {want_w}")
                if algebra.mono_parity(m) != want_p:
                    issues.append(f"ope {a} {b} pole {n}: parity mismatch")
                if algebra.mono_ghost(m) != want_g:
                    issues.append(f"ope {a} {b} pole {n}: ghost number mismatch")
        if a == b:
            flipped = ctx._flip(poles, da.parity, da.parity)
            keys = set(poles) | set(flipped)
            z = FieldExpr.zero(algebra)
            for n in sorted(keys):
                diff = poles.get(n, z) - flipped.get(n, z)
                if not diff.is_zero:
                    issues.append(
                        f"ope {a} {a} pole {n}: not self-exchange consistent, "
                        f"residual {diff!r}")
    return issues


# -- maps between tables ---------------------------------------------------


def apply_map(ctx: OpeContext, rho: dict, expr: FieldExpr) -> FieldExpr:
    """rho(expr) in the algebra of ctx, for rho a map from generator names
    to expressions of that algebra, applied as a homomorphism: each
    monomial N(d^k1 f1, N(d^k2 f2, ...)) of expr becomes
    N(d^k1 rho(f1), N(d^k2 rho(f2), ...)), its coefficient kept."""
    alg = ctx.algebra
    out = FieldExpr.zero(alg)
    for m, v in expr.terms.items():
        image = FieldExpr.unit(alg)
        for name, k in reversed(m):
            image = ctx.normal_product(ctx.derivative(rho[name], k), image)
        out = out + image.scaled(v)
    return out


def check_homomorphism(source: OpeAlgebra, ctx: OpeContext, rho: dict):
    """Whether rho, a map from every generator of source to an expression
    of the algebra of ctx, preserves operator products: for every ordered
    generator pair (a, b) and pole n, [rho(a) rho(b)]_n equals
    rho([a b]_n).  Returns (ok, issues)."""
    if set(rho) != set(source.names):
        raise AnalysisError("the map must send each generator of "
                            f"{source.name} to one expression")
    if any(e.algebra is not ctx.algebra for e in rho.values()):
        raise AnalysisError("the map's images must be expressions of "
                            f"{ctx.algebra.name}")
    src = source.context()
    z = FieldExpr.zero(ctx.algebra)
    issues = []
    for a in source.names:
        for b in source.names:
            got = ctx.ope(rho[a], rho[b])
            want = {n: apply_map(ctx, rho, e) for n, e in src.ope(
                FieldExpr.generator(source, a),
                FieldExpr.generator(source, b)).items()}
            for n in sorted(set(got) | set(want), reverse=True):
                if not (got.get(n, z) - want.get(n, z)).is_zero:
                    issues.append(f"ope {a} {b} pole {n} breaks the map")
    return not issues, issues
