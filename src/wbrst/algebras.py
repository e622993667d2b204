"""Ready-made operator product tables: the spin-3 extension of the
Virasoro algebra, its quasi-superconformal cousin with two weight-3/2
bosonic currents, their (possibly non-canonical) ghost sectors, and the
checks relating the two ghost systems.

The tables themselves are the bundled definition files ``data/*.alg``;
the builders here load them with the requested parameter values bound.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .analysis import substitute_expr
from .engine import OpeContext
from .fields import FieldExpr, Monomial, OpeAlgebra
from .parsing import parse_algebra_file
from .scalars import RationalFunction as RF

A2_MODES = ("exchange-consistent", "as-printed")


def bundled_text(stem: str, kind: str) -> str:
    """Contents of the bundled definition file ``data/STEM.KIND``."""
    path = os.path.join(os.path.dirname(__file__), "data", f"{stem}.{kind}")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_bundled(stem: str, **values) -> OpeAlgebra:
    """The bundled table ``data/STEM.alg`` with each parameter given a
    value bound to it; a parameter given None stays symbolic."""
    bindings = {p: v for p, v in values.items() if v is not None}
    return parse_algebra_file(bundled_text(stem, "alg"), bindings)


def _gen(alg, name):
    return FieldExpr.generator(alg, name)


def rebase_expr(expr: FieldExpr, algebra: OpeAlgebra) -> FieldExpr:
    """The same linear combination of monomials read in another algebra."""
    out = {}
    for m, v in expr.terms.items():
        for name, _ in m.factors:
            algebra.decl(name)
        out[Monomial(m.factors)] = v
    return FieldExpr(algebra, out)


# -- matter algebras -------------------------------------------------------


def w3(c=None, a2_mode="exchange-consistent") -> OpeAlgebra:
    """Virasoro plus a weight-3 primary current, with the first-pole
    self-product coefficient a2 chosen by ``a2_mode``.

    The printed sources give a2 = (2/9) a1; that value is not consistent
    with the exchange property of the self-product and is kept only as
    the "as-printed" variant (validate_table flags it).  The consistent
    value is a2 = a1/2 - 1/12.
    """
    if a2_mode not in A2_MODES:
        raise ValueError(f"a2_mode must be one of {A2_MODES}")
    return load_bundled("w3" if a2_mode == "exchange-consistent"
                        else "w3_printed", c=c)


def w32(c=None) -> OpeAlgebra:
    """Four bosonic currents of weights 2, 1, 3/2, 3/2 with quadratic
    terms in the product of the two weight-3/2 currents."""
    return load_bundled("w32", c=c)


# -- ghost sectors ---------------------------------------------------------


def w3_ghosts(g1=None, g2=None) -> OpeAlgebra:
    """The two-parameter quadratic ghost sector for the spin-(2,3) pair.
    Symbolic parameters by default; g1 = g2 = 0 is the canonical sector."""
    return load_bundled("w3_ghosts", g1=g1, g2=g2)


def w32_ghosts(modified=True) -> OpeAlgebra:
    """The fermionic ghost sector for the weight-(2, 1, 3/2, 3/2)
    algebra: the fixed quadratic one, or the canonical one."""
    return load_bundled("w32_ghosts" if modified else "w32_ghosts_free")


# -- combined algebras -----------------------------------------------------


def bundle(name, *parts) -> OpeAlgebra:
    """Disjoint union of tables; unset cross pairs are regular."""
    gens = []
    params = []
    for part in parts:
        gens.extend(part.generators)
        for p in part.params:
            if p not in params:
                params.append(p)
    alg = OpeAlgebra(name, gens, params=tuple(params))
    for part in parts:
        for (a, b), poles in part.table_items():
            alg.set_ope(a, b, {n: rebase_expr(e, alg)
                               for n, e in poles.items()})
    return alg.freeze()


# -- ghost stress tensor and the two-sector correspondence ----------------


def ghost_stress(ctx: OpeContext, pairs, fields=None) -> FieldExpr:
    """sum over (b, c) pairs of (1 - w_b) (db c) - w_b (b dc), the stress
    tensor making c and b primary of weights 1 - w_b and w_b."""
    alg = ctx.algebra
    fields = fields or {}
    out = FieldExpr.zero(alg)
    for bname, cname in pairs:
        lam = alg.decl(bname).weight
        b = fields.get(bname, _gen(alg, bname))
        c = fields.get(cname, _gen(alg, cname))
        out = out + ctx.normal_product(ctx.derivative(b), c).scaled(
            RF.const(1 - lam))
        out = out - ctx.normal_product(b, ctx.derivative(c)).scaled(
            RF.const(lam))
    return out


def ghost_stress_w3(ctx: OpeContext, fields=None) -> FieldExpr:
    return ghost_stress(ctx, (("bT", "cT"), ("bW", "cW")), fields)


def _compare_to_table(ctx, fields, reference: OpeAlgebra, label):
    """Operator products of the composite ``fields`` against the table of
    ``reference`` evaluated on its own generators."""
    issues = []
    ref_ctx = reference.context()
    names = list(fields)
    z = FieldExpr.zero(ctx.algebra)
    for x in names:
        for y in names:
            got = ctx.ope(fields[x], fields[y])
            want = {n: rebase_expr(e, ctx.algebra) for n, e in ref_ctx.ope(
                _gen(reference, x), _gen(reference, y)).items()}
            for n in sorted(set(got) | set(want), reverse=True):
                if not (got.get(n, z) - want.get(n, z)).is_zero:
                    issues.append(f"{label}: ope {x} {y} pole {n} mismatch")
    return issues


def verify_ghost_transform_w3():
    """The inverse ghost map: composites in the two-parameter sector that
    obey the canonical contractions, plus invariance of the ghost stress
    tensor when g1 = 0.  Returns (ok, issues)."""
    tilde = w3_ghosts()
    ctx = tilde.context()
    g1, g2 = RF.var("g1"), RF.var("g2")
    bt, ct = _gen(tilde, "bT"), _gen(tilde, "cT")
    bw, cw = _gen(tilde, "bW"), _gen(tilde, "cW")
    half = RF.const(Fraction(1, 2))
    fields = {
        "bT": bt,
        "cT": ct - ctx.normal_product(
            bt, ctx.normal_product(ctx.derivative(cw), cw)).scaled(
                (g1 + g2) * half),
        "bW": bw - ctx.normal_product(
            ctx.derivative(bt), ctx.normal_product(bt, cw)).scaled(
                (g1 - g2) * half),
        "cW": cw,
    }
    issues = _compare_to_table(ctx, fields, w3_ghosts(0, 0),
                               "canonical composite")
    t_tilde = ghost_stress_w3(ctx)
    t_composite = ghost_stress_w3(ctx, fields)
    diff = substitute_expr(t_composite - t_tilde, {"g1": 0})
    if not diff.is_zero:
        issues.append("ghost stress tensor changes at g1 = 0")
    return not issues, issues


def verify_ghost_transform_w32():
    """Composites in the canonical fermionic sector reproducing the fixed
    quadratic ghost table.  Returns (ok, issues)."""
    canon = w32_ghosts(modified=False)
    ctx = canon.context()
    ct, bu = _gen(canon, "cT"), _gen(canon, "bU")
    cp, cm = _gen(canon, "cp"), _gen(canon, "cm")
    fields = {name: _gen(canon, name)
              for name in ("cT", "bU", "cp", "bp", "cm", "bm")}
    fields["bT"] = _gen(canon, "bT") - ctx.normal_product(
        ct, ctx.normal_product(ctx.derivative(bu), bu)).scaled(2)
    fields["cU"] = _gen(canon, "cU") - ctx.normal_product(
        bu, ctx.normal_product(cp, cm)).scaled(4)
    issues = _compare_to_table(ctx, fields, w32_ghosts(modified=True),
                               "quadratic composite")
    return not issues, issues
