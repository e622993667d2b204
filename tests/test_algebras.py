"""Bundled operator product tables: consistency, Jacobi identities,
sign automorphisms, and the ghost-sector maps."""

from fractions import Fraction

import pytest

from wbrst.algebras import (bundle, ghost_stress, ghost_stress_w3,
                            load_bundled, verify_ghost_transform_w3,
                            verify_ghost_transform_w32, w3, w32, w32_ghost_map,
                            w32_ghosts, w3_ghost_map, w3_ghosts)
from wbrst.analysis import (AnalysisError, apply_map, central_charge,
                            check_homomorphism, jacobi_check, primary_check,
                            validate_table)
from wbrst.engine import OpeContext
from wbrst.fields import FieldExpr, GeneratorDecl, OpeAlgebra
from wbrst.parsing import format_field_expr
from wbrst.scalars import RationalFunction as RF


def _gen(alg, name):
    return FieldExpr.generator(alg, name)


@pytest.mark.parametrize("make", [
    lambda: w3(),
    lambda: w3(c=100),
    lambda: w32(),
    lambda: w32(c=-2),
    lambda: w3_ghosts(),
    lambda: w3_ghosts(0, 0),
    lambda: w32_ghosts(modified=True),
    lambda: w32_ghosts(modified=False),
    lambda: bundle("w3_brst", w3(), w3_ghosts()),
])
def test_bundled_tables_validate(make):
    assert validate_table(make()) == []


def test_as_printed_variant_is_flagged():
    issues = validate_table(load_bundled("w3_printed"))
    assert issues
    assert all("W W pole 1" in s for s in issues)
    assert "not self-exchange consistent" in issues[0]


def test_as_printed_deviation_is_a_third_derivative():
    # the two a2 conventions differ in the first self-product pole by
    # (16 / (30c + 132)) * T'''
    good = w3()
    bad = load_bundled("w3_printed")
    pole_good = good.table_entry("W", "W")[0][1]
    pole_bad = bad.table_entry("W", "W")[0][1]
    ctx = good.context()
    d3t = ctx.derivative(_gen(good, "T"), 3)
    coeff = RF.const(16) / (RF.const(30) * RF.var("c") + RF.const(132))
    # both tables declare the same generators in the same order, so the
    # terms of one are canonical in the other
    got = FieldExpr(good, pole_bad.terms) - pole_good
    assert got == d3t.scaled(-coeff) or got == d3t.scaled(coeff)


@pytest.mark.parametrize("names", [("T", "T", "T"), ("T", "T", "W"),
                                   ("T", "W", "W")])
def test_jacobi_symbolic_w3(names):
    alg = w3()
    ctx = alg.context()
    a, b, c = (_gen(alg, n) for n in names)
    assert jacobi_check(ctx, a, b, c) == []


def test_jacobi_www_numeric():
    alg = w3(c=100)
    ctx = alg.context()
    w = _gen(alg, "W")
    assert jacobi_check(ctx, w, w, w) == []


@pytest.mark.parametrize("names", [("T", "T", "Gp"), ("U", "Gp", "Gm"),
                                   ("T", "Gp", "Gm")])
def test_jacobi_symbolic_w32(names):
    alg = w32()
    ctx = alg.context()
    a, b, c = (_gen(alg, n) for n in names)
    assert jacobi_check(ctx, a, b, c) == []


def test_jacobi_detects_mutated_coefficient():
    # a Virasoro table with the wrong second pole fails the identity
    alg = OpeAlgebra("bad_virasoro", [GeneratorDecl("T", Fraction(2))])
    t = _gen(alg, "T")
    sc = OpeContext(alg)
    alg.set_ope("T", "T", {4: FieldExpr.unit(alg).scaled(Fraction(1, 2)),
                           2: t.scaled(3), 1: sc.derivative(t)})
    alg.freeze()
    ctx = alg.context()
    assert [(p, q, format_field_expr(r))
            for p, q, r in jacobi_check(ctx, t, t, t)] == [
        (2, 1, "(-1)*D(T)"), (2, 2, "(-3)*T"), (2, 4, "(-1)*one"),
        (3, 1, "(-6)*T"), (3, 3, "(-1)*one"), (4, 2, "(-1)*one"),
        (5, 1, "(-2)*one")]


def test_jacobi_residuals_of_the_as_printed_table():
    # the as-printed first pole of [W W] breaks the identity: every
    # residual, sorted by (p, q)
    alg = load_bundled("w3_printed", c=100)
    w, t = _gen(alg, "W"), _gen(alg, "T")
    got = [(p, q, format_field_expr(r))
           for p, q, r in jacobi_check(alg.context(), w, w, t)]
    assert got == [
        (1, 2, "(4/783)*D3(T)"), (1, 4, "(8/261)*D(T)"),
        (1, 5, "(64/261)*T"), (1, 7, "(8000/261)*one"),
        (2, 1, "(-4/783)*D3(T)"), (2, 3, "(8/261)*D(T)"),
        (2, 4, "(64/261)*T"), (2, 6, "(8000/261)*one"),
        (3, 2, "(8/261)*D(T)"), (3, 3, "(64/261)*T"),
        (3, 5, "(8000/261)*one"), (4, 1, "(8/261)*D(T)"),
        (4, 2, "(64/261)*T"), (4, 4, "(8000/261)*one"),
        (5, 1, "(64/261)*T"), (5, 3, "(8000/261)*one"),
        (6, 2, "(8000/261)*one"), (7, 1, "(8000/261)*one")]


def test_ghost_stress_central_charges():
    # weight-(2,3) pair: -26 + -74 = -100; fermionic quadruple for the
    # weight-(2,1,3/2,3/2) algebra: -26 - 2 - 2*11 = -50
    alg = w3_ghosts(0, 0)
    ctx = alg.context()
    t = ghost_stress_w3(ctx)
    assert central_charge(ctx, t) == RF.const(-100)
    alg2 = w32_ghosts(modified=False)
    ctx2 = alg2.context()
    t2 = ghost_stress(ctx2, (("bT", "cT"), ("bU", "cU"),
                             ("bp", "cp"), ("bm", "cm")))
    assert central_charge(ctx2, t2) == RF.const(-50)


def test_ghost_fields_are_primary():
    alg = w3_ghosts(0, 0)
    ctx = alg.context()
    t = ghost_stress_w3(ctx)
    for name, wt in (("bT", 2), ("cT", -1), ("bW", 3), ("cW", -2)):
        ok, issues = primary_check(ctx, t, _gen(alg, name), wt)
        assert ok, (name, issues)


def test_matter_central_charges():
    for make, expect in ((w3, "c"), (w32, None)):
        alg = make()
        ctx = alg.context()
        got = central_charge(ctx, _gen(alg, "T"))
        if expect == "c":
            assert got == RF.var("c")
        else:
            c = RF.var("c")
            assert got == c * (RF.const(7) - RF.const(9) * c) / (RF.const(1) + c)


def _sign_map(alg, signs):
    return {n: _gen(alg, n).scaled(signs.get(n, 1)) for n in alg.names}


def test_sign_automorphism_w3():
    alg = w3()
    ctx = alg.context()
    rho = _sign_map(alg, {"W": -1})
    ok, issues = check_homomorphism(alg, ctx, rho)
    assert ok, issues
    # [T W]_2 = 3W is read through the map, not copied: the copy would
    # break the automorphism
    pole2 = ctx.ope(_gen(alg, "T"), _gen(alg, "W"))[2]
    mapped = apply_map(ctx, rho, pole2)
    assert mapped == -pole2 and mapped != pole2
    ok, issues = check_homomorphism(alg, ctx, _sign_map(alg, {"T": -1}))
    assert not ok


def test_sign_automorphism_w32():
    # Gp -> -Gp, Gm -> -Gm preserves the table
    alg = w32()
    ctx = alg.context()
    ok, issues = check_homomorphism(
        alg, ctx, _sign_map(alg, {"Gp": -1, "Gm": -1}))
    assert ok, issues
    ok, _ = check_homomorphism(alg, ctx, _sign_map(alg, {"Gp": -1}))
    assert not ok


def test_homomorphism_check_rejects_partial_maps():
    alg = w3()
    rho = _sign_map(alg, {})
    del rho["W"]
    with pytest.raises(AnalysisError):
        check_homomorphism(alg, alg.context(), rho)
    other = w3(c=100)
    with pytest.raises(AnalysisError):
        check_homomorphism(alg, alg.context(), _sign_map(other, {}))


def test_ghost_transform_w3():
    ok, issues = verify_ghost_transform_w3()
    assert ok, issues


def test_ghost_transform_w32():
    ok, issues = verify_ghost_transform_w32()
    assert ok, issues


def _composite_mutations():
    """(label, source, context, rho) with the factor of one composite term
    of a ghost map, (g1 + g2)/2, (g1 - g2)/2, 2 or 4, raised by 1."""
    canon, ctx, rho = w3_ghost_map()
    bt, cw = rho["bT"], rho["cW"]
    n, d = ctx.normal_product, ctx.derivative
    yield "w3 cT", canon, ctx, {**rho, "cT": rho["cT"] - n(bt, n(d(cw), cw))}
    yield "w3 bW", canon, ctx, {**rho, "bW": rho["bW"] - n(d(bt), n(bt, cw))}
    mod, ctx, rho = w32_ghost_map()
    ct, bu = rho["cT"], rho["bU"]
    n, d = ctx.normal_product, ctx.derivative
    yield "w32 bT", mod, ctx, {**rho, "bT": rho["bT"] - n(ct, n(d(bu), bu))}
    yield "w32 cU", mod, ctx, {
        **rho, "cU": rho["cU"] - n(bu, n(rho["cp"], rho["cm"]))}


def test_ghost_map_mutations_are_reported():
    for label, source, ctx, rho in _composite_mutations():
        ok, issues = check_homomorphism(source, ctx, rho)
        assert not ok and issues, label


def test_ghost_map_images_the_canonical_stress_tensor():
    # rho of the canonical ghost stress tensor is the same combination of
    # the composites, built in the target sector
    canon, ctx, rho = w3_ghost_map()
    got = apply_map(ctx, rho, ghost_stress_w3(canon.context()))
    want = FieldExpr.zero(ctx.algebra)
    for b, c in (("bT", "cT"), ("bW", "cW")):
        lam = canon.decl(b).weight
        want = (want + ctx.normal_product(ctx.derivative(rho[b]), rho[c])
                .scaled(1 - lam)
                - ctx.normal_product(rho[b], ctx.derivative(rho[c]))
                .scaled(lam))
    assert got == want


def test_bundle_cross_pairs_regular():
    alg = bundle("w3_brst", w3(), w3_ghosts(0, 0))
    ctx = alg.context()
    assert ctx.ope(_gen(alg, "T"), _gen(alg, "bW")) == {}
    assert ctx.ope(_gen(alg, "W"), _gen(alg, "cT")) == {}


def test_bundle_rejects_name_collisions():
    from wbrst.fields import FieldError
    with pytest.raises((FieldError, ValueError)):
        bundle("twice", w3(), w3(c=100))
