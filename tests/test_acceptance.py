"""Acceptance gate: the end-to-end results this package exists to
certify, each checked with exact arithmetic and no tolerances."""

import itertools
from fractions import Fraction

import pytest

from conftest import QLA_FILES, load_alg, load_qla, qla_mutations
from wbrst.algebras import (bundle, load_bundled, verify_ghost_transform_w3,
                            verify_ghost_transform_w32, w3, w32, w32_ghosts,
                            w3_ghosts)
from wbrst.analysis import (central_charge, is_total_derivative, jacobi_check,
                            primary_check, validate_table)
from wbrst.brst import (brst_w3, brst_w32, critical_charge, derive_brst,
                        nilpotency, solve_conventional, unconventional_terms)
from wbrst.fields import FieldExpr, Monomial, UNIT
from wbrst.modes import crosscheck_bundle
from wbrst.omega import OmegaAlgebra, OmegaError, verify_nilpotent
from wbrst.scalars import RationalFunction as RF
from wbrst.tensors import (check_proof_identities, check_qla_axioms,
                           check_twist_axioms)


def _gen(alg, name):
    return FieldExpr.generator(alg, name)


def test_w3_current_nilpotent_only_at_100():
    assert nilpotency(brst_w3(0, 0, c=100)).nilpotent
    rep = nilpotency(brst_w3(0, 0, c=26))
    assert not rep.nilpotent
    assert not rep.obstruction.is_zero


def test_critical_central_charges():
    assert critical_charge(brst_w3(0, 0, c=None), "c") == {Fraction(100)}
    assert critical_charge(brst_w32(c=None), "c") == {Fraction(-2)}
    # the matter stress tensor of the second family has Virasoro central
    # charge 50 at c = -2 (fourth-pole coefficient 25)
    alg = w32(c=-2)
    ctx = alg.context()
    assert central_charge(ctx, _gen(alg, "T")) == RF.const(50)
    assert ctx.ope(_gen(alg, "T"), _gen(alg, "T"))[4].terms[UNIT] == RF.const(25)


def test_nilpotent_for_all_ghost_parameters():
    rep = nilpotency(brst_w3(None, None, c=100))
    assert rep.nilpotent
    assert rep.obstruction.is_zero


def test_unique_conventional_ghost_point():
    assert solve_conventional() == (Fraction(0), Fraction(-16, 261))
    q = brst_w3(0, Fraction(-16, 261), c=100)
    assert unconventional_terms(q) == []
    assert nilpotency(q).nilpotent


def test_ghost_sector_transforms():
    ok, issues = verify_ghost_transform_w3()
    assert ok, issues
    ok, issues = verify_ghost_transform_w32()
    assert ok, issues


def test_table_validation_and_jacobi():
    assert validate_table(w3()) == []
    printed = validate_table(load_bundled("w3_printed"))
    assert printed and all("W W pole 1" in s for s in printed)
    # consistent a2 equals (c - 10) / (3 (22 + 5c))
    c = RF.var("c")
    a1 = (RF.const(3) * c - RF.const(6)) / (RF.const(44) + RF.const(10) * c)
    assert (a1 / RF.const(2) - RF.const(Fraction(1, 12))
            == (c - RF.const(10)) / (RF.const(3) * (RF.const(22)
                                                    + RF.const(5) * c)))
    for alg in (w3(), w32(), w3_ghosts(), w32_ghosts(modified=True)):
        ctx = alg.context()
        gens = [_gen(alg, g.name) for g in alg.generators]
        for a, b, cc in itertools.combinations_with_replacement(gens, 3):
            if alg.name.startswith("w3") and "ghosts" not in alg.name \
                    and (a.weight() + b.weight() + cc.weight()) > 7:
                continue  # the spin-3 triple is covered at numeric c below
            assert jacobi_check(ctx, a, b, cc) == [], (alg.name,)
    w = _gen(w3(c=100), "W")
    assert jacobi_check(w.algebra.context(), w, w, w) == []
    # a single mutated coefficient breaks the identity
    from wbrst.engine import OpeContext
    from wbrst.fields import GeneratorDecl, OpeAlgebra
    bad = OpeAlgebra("bad", [GeneratorDecl("T", Fraction(2))])
    t = _gen(bad, "T")
    sc = OpeContext(bad)
    bad.set_ope("T", "T", {4: FieldExpr.unit(bad).scaled(50),
                           2: t.scaled(3), 1: sc.derivative(t)})
    bad.freeze()
    assert jacobi_check(bad.context(), t, t, t) != []


def test_total_stress_tensor():
    from wbrst.algebras import ghost_stress_w3
    q = brst_w3(0, 0, c=100)
    ctx = q.context
    t_total = _gen(q.algebra, "T") + ghost_stress_w3(ctx)
    assert central_charge(ctx, t_total) == RF.const(0)
    for name, wt in (("cT", -1), ("bT", 2), ("cW", -2), ("bW", 3), ("W", 3)):
        ok, issues = primary_check(ctx, t_total, _gen(q.algebra, name), wt)
        assert ok, (name, issues)


@pytest.mark.parametrize("name", QLA_FILES)
def test_qla_datasets_pass_all_checks(name):
    d = load_qla(name)
    assert check_qla_axioms(d).all_pass
    assert check_twist_axioms(d).all_pass
    assert check_proof_identities(d).all_pass
    ok, residual = verify_nilpotent(OmegaAlgebra(d))
    assert ok, residual


@pytest.mark.parametrize("name", QLA_FILES)
def test_every_qla_mutation_caught(name):
    def caught(d2):
        if not check_qla_axioms(d2).all_pass:
            return True
        if not check_twist_axioms(d2).all_pass:
            return True
        if not check_proof_identities(d2).all_pass:
            return True
        try:
            ok, _ = verify_nilpotent(OmegaAlgebra(d2))
        except OmegaError:
            return True
        return not ok

    missed = [(kind, idx) for kind, idx, d2 in qla_mutations(load_qla(name))
              if not caught(d2)]
    assert missed == []


@pytest.mark.parametrize("name,expect", [
    ("w3_ghosts_free.alg", {("bT", -26), ("bW", -74)}),
    ("w32_ghosts_free.alg", {("bT", -26), ("bU", -2),
                             ("bp", -11), ("bm", -11)}),
])
def test_mode_oracle_level_6(name, expect):
    alg = load_alg(name)
    rep = crosscheck_bundle(alg, 6)
    assert rep["ok"], [e for e in rep["checks"] if not e.get("match")]
    charges = {(s["b"], int(Fraction(s["central_charge"])))
               for s in rep["systems"]}
    assert charges == expect
    total = sum(c for _, c in charges)
    assert total == (-100 if name.startswith("w3_") else -50)


def _mono(alg, *factors):
    return Monomial(tuple(sorted(factors, key=alg.factor_key)))


def test_derive_w3_current():
    alg = bundle("w3_brst", w3(100), w3_ghosts(0, 0))
    lead = [_mono(alg, ("T", 0), ("cT", 0)), _mono(alg, ("W", 0), ("cW", 0))]
    # without a pin, similarity transformations make a family of currents;
    # pinning the free direction it names, or the (T' cW) direction,
    # selects a point
    q0, rep = derive_brst(alg, lead)
    assert q0 is None and rep.message
    q0, _ = derive_brst(alg, lead, pinned=rep.remaining)
    assert q0 is not None and nilpotency(q0).nilpotent
    pin = [_mono(alg, ("T", 1), ("cW", 0))]
    q, rep = derive_brst(alg, lead, pinned=pin)
    assert q is not None, rep and rep.message
    assert nilpotency(q).nilpotent
    # brst_w3 builds the same union, so its terms are canonical in alg
    ref = brst_w3(0, 0, c=100)
    ok, _ = is_total_derivative(alg.context(),
                                q.expr - FieldExpr(alg, ref.expr.terms))
    assert ok


def test_derive_w3_current_a2_presets():
    # the two a2 conventions differ only in a total-derivative term of the
    # spin-3 self-product, so the derived currents must agree coefficient
    # by coefficient; any a2-sensitive discrepancy would show up here
    coeffs = {}
    for mode, stem in (("exchange-consistent", "w3"),
                       ("as-printed", "w3_printed")):
        alg = bundle(f"w3_brst_{mode}", load_bundled(stem, c=100),
                     w3_ghosts(0, 0))
        lead = [_mono(alg, ("T", 0), ("cT", 0)),
                _mono(alg, ("W", 0), ("cW", 0))]
        pin = [_mono(alg, ("T", 1), ("cW", 0))]
        q, rep = derive_brst(alg, lead, pinned=pin)
        assert q is not None, (mode, rep and rep.message)
        assert nilpotency(q).nilpotent, mode
        coeffs[mode] = {m.factors: v for m, v in q.expr.sorted_terms()}
    assert coeffs["exchange-consistent"] == coeffs["as-printed"]


def test_derive_w3_current2():
    alg = bundle("w32_brst", w32(-2), w32_ghosts(modified=True))
    lead = [_mono(alg, ("T", 0), ("cT", 0)), _mono(alg, ("U", 0), ("cU", 0)),
            _mono(alg, ("Gp", 0), ("cp", 0)), _mono(alg, ("Gm", 0), ("cm", 0))]
    pin = [_mono(alg, ("U", 1), ("cT", 0)), _mono(alg, ("Gp", 0), ("cm", 0)),
           _mono(alg, ("Gm", 0), ("cp", 0))]
    q, rep = derive_brst(alg, lead, pinned=pin, max_degree=3)
    assert q is not None, rep and rep.message
    assert nilpotency(q).nilpotent
    ref = brst_w32(c=-2)
    ok, _ = is_total_derivative(alg.context(),
                                q.expr - FieldExpr(alg, ref.expr.terms))
    assert ok
