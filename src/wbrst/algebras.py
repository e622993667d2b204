"""Ready-made operator product tables: the spin-3 extension of the
Virasoro algebra, its quasi-superconformal cousin with two weight-3/2
bosonic currents, their (possibly non-canonical) ghost sectors, and the
maps relating the two ghost systems of each family.

The tables are the bundled files ``data/*.alg``, which the builders
here load with the requested parameter values bound.  A ghost map sends
each generator of one sector to an expression, written as text, in the
other, and ``analysis.check_homomorphism`` checks it on every pole of
every generator pair.
"""

from __future__ import annotations

import os

from .analysis import apply_map, check_homomorphism, substitute_expr
from .engine import OpeContext
from .fields import FieldExpr, OpeAlgebra
from .parsing import parse_algebra_file, parse_field_expr


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


# -- matter algebras -------------------------------------------------------


def w3(c=None) -> OpeAlgebra:
    """Virasoro plus a weight-3 primary current, with the first-pole
    self-product coefficient a2 = a1/2 - 1/12 that the exchange property
    of the self-product requires.  The printed sources give a2 = (2/9) a1
    instead; that table is bundled apart (validate_table flags it).
    """
    return load_bundled("w3", c=c)


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
    # the parts' generators are disjoint and keep their order, so a
    # canonical monomial of a part is canonical in the union
    for part in parts:
        for (a, b), poles in part.table_items():
            alg.set_ope(a, b, {n: FieldExpr(alg, e.terms)
                               for n, e in poles.items()})
    return alg.freeze()


# -- ghost stress tensor and the two-sector correspondences --------------


def ghost_stress(ctx: OpeContext, pairs) -> FieldExpr:
    """sum over (b, c) pairs of (1 - w_b) (db c) - w_b (b dc), the stress
    tensor making c and b primary of weights 1 - w_b and w_b."""
    alg = ctx.algebra
    out = FieldExpr.zero(alg)
    for bname, cname in pairs:
        lam = alg.decl(bname).weight
        b, c = (FieldExpr.generator(alg, n) for n in (bname, cname))
        out = out + ctx.normal_product(ctx.derivative(b), c).scaled(1 - lam) \
            - ctx.normal_product(b, ctx.derivative(c)).scaled(lam)
    return out


def ghost_stress_w3(ctx: OpeContext) -> FieldExpr:
    return ghost_stress(ctx, (("bT", "cT"), ("bW", "cW")))


def _ghost_map(source, target, images):
    """(source, target context, rho): rho reads the image of each
    generator of ``source``, its text in ``images`` or its name, over
    ``target``."""
    return source, target.context(), {
        n: parse_field_expr(images.get(n, n), target) for n in source.names}


def w3_ghost_map():
    """The canonical sector ``w3_ghosts(0, 0)`` as composites in the
    two-parameter one: rho fixes bT and cW, and moves cT and bW.
    Returns (source algebra, target context, rho)."""
    return _ghost_map(w3_ghosts(0, 0), w3_ghosts(), {
        "cT": "cT - (g1+g2)/2*N(bT,N(D(cW),cW))",
        "bW": "bW - (g1-g2)/2*N(D(bT),N(bT,cW))"})


def w32_ghost_map():
    """The fixed quadratic fermionic sector as composites in the canonical
    one: rho fixes every generator but bT and cU.
    Returns (source algebra, target context, rho)."""
    return _ghost_map(w32_ghosts(modified=True), w32_ghosts(modified=False),
                      {"bT": "bT - 2*N(cT,N(D(bU),bU))",
                       "cU": "cU - 4*N(bU,N(cp,cm))"})


def verify_ghost_transform_w3():
    """The map of ``w3_ghost_map`` preserves operator products, and at
    g1 = 0 it fixes the ghost stress tensor.  Returns (ok, issues)."""
    canon, ctx, rho = w3_ghost_map()
    ok, issues = check_homomorphism(canon, ctx, rho)
    diff = substitute_expr(apply_map(ctx, rho, ghost_stress_w3(
        canon.context())) - ghost_stress_w3(ctx), {"g1": 0})
    if not diff.is_zero:
        issues.append("ghost stress tensor changes at g1 = 0")
    return not issues, issues


def verify_ghost_transform_w32():
    """The map of ``w32_ghost_map`` preserves operator products.
    Returns (ok, issues)."""
    return check_homomorphism(*w32_ghost_map())
