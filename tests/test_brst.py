"""BRST currents: nilpotency, critical central charges, the conventional
ghost-sector point, and ansatz reconstruction."""

from fractions import Fraction

import pytest

from wbrst.algebras import bundle, ghost_stress, ghost_stress_w3, w3_ghosts
from wbrst.analysis import central_charge, primary_check, weight_basis
from wbrst.brst import (BrstCurrent, BrstError, brst_w3, brst_w32,
                        critical_charge, derive_brst, nilpotency,
                        solve_conventional, unconventional_terms)
from wbrst.engine import OpeContext
from wbrst.fields import FieldExpr, GeneratorDecl, Monomial, OpeAlgebra
from wbrst.scalars import RF_ONE, RationalFunction as RF


def test_w3_nilpotent_at_100():
    rep = nilpotency(brst_w3(0, 0, c=100))
    assert rep.nilpotent
    assert rep.obstruction.is_zero


def test_w3_obstructed_away_from_100():
    rep = nilpotency(brst_w3(0, 0, c=50))
    assert not rep.nilpotent
    assert not rep.obstruction.is_zero


def test_w32_nilpotent_at_minus_2():
    rep = nilpotency(brst_w32(c=-2))
    assert rep.nilpotent


def test_w32_obstructed_away_from_minus_2():
    rep = nilpotency(brst_w32(c=3))
    assert not rep.nilpotent


def test_w3_critical_charge():
    assert critical_charge(brst_w3(0, 0, c=None)) == {Fraction(100)}


def test_w32_critical_charge():
    assert critical_charge(brst_w32(c=None)) == {Fraction(-2)}


def test_w3_nilpotent_for_all_ghost_parameters():
    # at c = 100 the two-parameter family is nilpotent identically in
    # (g1, g2)
    rep = nilpotency(brst_w3(None, None, c=100))
    assert rep.nilpotent


def test_critical_charge_invariant_under_total_derivative():
    q = brst_w3(0, 0, c=None)
    ctx = q.context
    slice0 = weight_basis(q.algebra, 0, parity=1, ghost=1)
    assert slice0
    extra = ctx.derivative(FieldExpr(q.algebra, {slice0[0]: RF_ONE})).scaled(7)
    shifted = BrstCurrent(q.algebra, q.expr + extra)
    assert critical_charge(shifted) == {Fraction(100)}
    at100 = brst_w3(0, 0, c=100)
    extra100 = at100.context.derivative(
        FieldExpr(at100.algebra,
                  {Monomial(slice0[0].factors): RF_ONE})).scaled(7)
    assert nilpotency(BrstCurrent(at100.algebra,
                                  at100.expr + extra100)).nilpotent


def test_mutated_current_has_no_critical_charge():
    # halving one cubic ghost coefficient destroys nilpotency for every c
    q = brst_w3(0, 0, c=None)
    ctx = q.context
    g = lambda n: FieldExpr.generator(q.algebra, n)
    delta = ctx.normal_product(
        g("bT"), ctx.normal_product(ctx.derivative(g("cT")), g("cT"))).scaled(
            Fraction(1, 2))
    assert critical_charge(BrstCurrent(q.algebra, q.expr + delta)) == set()


def test_solve_conventional_point():
    assert solve_conventional() == (Fraction(0), Fraction(-16, 261))


def test_conventional_current_is_cubic_and_nilpotent():
    q = brst_w3(0, Fraction(-16, 261), c=100)
    assert unconventional_terms(q) == []
    assert max(len(m.factors) for m, _ in q.expr.sorted_terms()) == 3
    assert nilpotency(q).nilpotent


def test_canonical_point_has_quartic_terms():
    q = brst_w3(0, 0, c=100)
    assert unconventional_terms(q) != []


def test_total_stress_is_centreless_at_100():
    q = brst_w3(0, 0, c=100)
    ctx = q.context
    t_total = (FieldExpr.generator(q.algebra, "T") + ghost_stress_w3(ctx))
    assert central_charge(ctx, t_total) == RF.const(0)


def test_w32_total_stress_is_centreless_at_minus_2():
    q = brst_w32(c=-2)
    ctx = q.context
    t_total = FieldExpr.generator(q.algebra, "T") + ghost_stress(
        ctx, (("bT", "cT"), ("bU", "cU"), ("bp", "cp"), ("bm", "cm")))
    assert central_charge(ctx, t_total) == RF.const(0)


def test_primary_weights_under_total_stress():
    q = brst_w3(0, 0, c=100)
    ctx = q.context
    t_total = (FieldExpr.generator(q.algebra, "T") + ghost_stress_w3(ctx))
    for name, wt in (("cT", -1), ("bT", 2), ("cW", -2), ("bW", 3), ("W", 3)):
        ok, issues = primary_check(
            ctx, t_total, FieldExpr.generator(q.algebra, name), wt)
        assert ok, (name, issues)


def test_current_grading():
    for q in (brst_w3(0, 0, c=100), brst_w32(c=-2)):
        assert q.expr.weight() == 1
        assert q.expr.ghost() == 1
        assert q.expr.parity() == 1


def test_brst_current_rejects_bad_grading():
    q = brst_w3(0, 0, c=100)
    bad = FieldExpr.generator(q.algebra, "T")
    with pytest.raises(BrstError):
        BrstCurrent(q.algebra, bad)


def test_derive_virasoro_toy():
    # one Virasoro current plus a weight-2 ghost pair: the ansatz recovers
    # the standard current with the (bT, cT', cT) term at the critical
    # value of the central term
    alg = bundle("virasoro_brst", _virasoro(26), w3_only_ghosts())
    ctx = alg.context()
    t = FieldExpr.generator(alg, "T")
    ct = FieldExpr.generator(alg, "cT")
    lead = Monomial(_sorted_factors(alg, (("cT", 0), ("T", 0))))
    q, rep = derive_brst(alg, [lead])
    assert q is not None, rep and rep.message
    # canonical order inside the monomial is (bT, cT, cT'); relative to
    # the textbook writing (bT cT' cT) the odd swap flips the sign to +1
    cubic = Monomial(_sorted_factors(alg, (("bT", 0), ("cT", 1), ("cT", 0))))
    assert q.expr.coefficient(cubic) == RF.const(1)
    assert nilpotency(q).nilpotent


def test_derive_virasoro_toy_fails_off_critical():
    alg = bundle("virasoro_brst_25", _virasoro(25), w3_only_ghosts())
    lead = Monomial(_sorted_factors(alg, (("cT", 0), ("T", 0))))
    q, rep = derive_brst(alg, [lead])
    assert q is None
    assert rep.message


def _sorted_factors(alg, factors):
    return tuple(sorted(factors, key=alg.factor_key))


def _virasoro(c):
    alg = OpeAlgebra("virasoro", [GeneratorDecl("T", Fraction(2))])
    t = FieldExpr.generator(alg, "T")
    sc = OpeContext(alg)
    alg.set_ope("T", "T", {4: FieldExpr.unit(alg).scaled(Fraction(c, 2)),
                           2: t.scaled(2), 1: sc.derivative(t)})
    return alg.freeze()


def w3_only_ghosts():
    alg = OpeAlgebra("t_ghosts", [
        GeneratorDecl("bT", Fraction(2), 1, -1),
        GeneratorDecl("cT", Fraction(-1), 1, 1),
    ])
    alg.set_ope("bT", "cT", {1: FieldExpr.unit(alg)})
    return alg.freeze()


# sizes recorded from the enumeration on exact Fraction weights
@pytest.mark.parametrize("family, weight, parity, ghost, size", [
    ("w3", 1, 1, 1, 26), ("w3", 0, 1, 1, 10), ("w3", 0, 0, 2, 32),
    ("w3", 1, 0, 2, 76), ("w32", 1, 1, 1, 62), ("w32", 1, 0, 2, 160),
    ("w32", Fraction(1, 2), 1, 1, 26), ("w32", Fraction(3, 2), 1, 1, 134),
    ("w32", Fraction(-1, 2), 1, 1, 4), ("w32", Fraction(5, 2), None, 0, 160),
    ("w3", 2, None, None, 1372), ("w3", Fraction(1, 2), None, None, 0),
])
def test_weight_basis_sizes(family, weight, parity, ghost, size):
    alg = (brst_w3(0, 0, c=100) if family == "w3" else brst_w32(c=-2)).algebra
    basis = weight_basis(alg, weight, parity=parity, ghost=ghost)
    assert len(basis) == size
    assert len(set(basis)) == size
    assert basis == sorted(basis, key=alg.mono_key)
    for m in basis:
        assert alg.mono_weight(m) == weight
        assert parity is None or alg.mono_parity(m) == parity
        assert ghost is None or alg.mono_ghost(m) == ghost


def test_weight_basis_lists():
    w3_alg = brst_w3(0, 0, c=100).algebra
    assert [m.factors for m in weight_basis(w3_alg, 0, parity=1, ghost=1)] == [
        (("cT", 1),), (("cW", 2),), (("T", 0), ("cW", 0)),
        (("bT", 0), ("cT", 0), ("cW", 1)), (("bT", 0), ("cT", 1), ("cW", 0)),
        (("bT", 0), ("cW", 0), ("cW", 2)), (("bT", 1), ("cT", 0), ("cW", 0)),
        (("bT", 1), ("cW", 0), ("cW", 1)), (("cT", 0), ("bW", 0), ("cW", 0)),
        (("bW", 0), ("cW", 0), ("cW", 1))]
    w32_alg = brst_w32(c=-2).algebra
    assert [m.factors for m in weight_basis(
        w32_alg, Fraction(-1, 2), parity=1, ghost=1)] == [
        (("cp", 0),), (("cm", 0),), (("cT", 0), ("bU", 0), ("cp", 0)),
        (("cT", 0), ("bU", 0), ("cm", 0))]
