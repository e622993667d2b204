"""Mode-level oracle: Laurent-mode matrices on finite Fock slices and
operator products reconstructed from commutators alone."""

from fractions import Fraction

import pytest

from wbrst.algebras import ghost_stress, w32_ghosts, w3_ghosts
from wbrst.fields import FieldExpr, Monomial
from wbrst.modes import (BcSystem, FockSlice, ModeError, ModeMatrix,
                         crosscheck, crosscheck_bundle, field_modes,
                         ope_from_modes, ope_poles_from_modes,
                         stress_central_charge, systems_from_algebra)
from wbrst.scalars import RF_ONE


SYS2 = BcSystem("b", "c", Fraction(2))
SYS3 = BcSystem("bW", "cW", Fraction(3))


def _mono(name, d=0):
    return Monomial(((name, d),))


def _identity(slc):
    return ModeMatrix(Fraction(0), {s: {s: Fraction(1)} for s in slc.basis})


def test_anticommutator_is_delta():
    # {b_m, c_n} = delta_{m+n,0}: the first pole of the contraction is
    # the unit and all higher poles vanish
    slc = FockSlice([SYS2], 3)
    poles = ope_poles_from_modes(_mono("b"), _mono("c"), 0, slc, max_pole=4)
    assert poles[1] == _identity(slc)
    for n in range(2, 5):
        assert poles[n].is_zero, n


def test_nonzero_total_mode():
    slc = FockSlice([SYS2], 3)
    poles = ope_poles_from_modes(_mono("b"), _mono("c"), 1, slc, max_pole=4)
    # mode 1 of the unit annihilates every state
    assert poles[1].is_zero


def test_vacuum_annihilation():
    # on the invariant vacuum, b_m |0> = 0 for m > -2 and c_m |0> = 0
    # for m > 1
    slc = FockSlice([SYS2], 4)
    vac = ()
    for m in range(-1, 4):
        assert field_modes(_mono("b"), m, slc).columns[vac] == {}
    for m in range(2, 5):
        assert field_modes(_mono("c"), m, slc).columns[vac] == {}
    assert field_modes(_mono("b"), -2, slc).columns[vac] != {}
    assert field_modes(_mono("c"), 1, slc).columns[vac] != {}


def test_derivative_mode_prefactor():
    # (dA)_m = (-m - h) A_m
    slc = FockSlice([SYS2], 3)
    for m in (-3, -2, 0, 1, 2):
        base = field_modes(_mono("b"), m, slc)
        der = field_modes(_mono("b", 1), m, slc)
        want = {s: {o: (-m - 2) * v for o, v in col.items() if (-m - 2) * v}
                for s, col in base.columns.items()}
        assert der.columns == want, m


def test_apply_op_fermion_signs_across_two_systems():
    # the sign is (-1)^(number of operators left of the one removed or
    # inserted), in op_key order: system, then b before c, then mode
    slc = FockSlice([SYS2, SYS3], 2)
    st = (("b", -3), ("c", 0), ("bW", -4))
    cases = [
        (("c", 3), (("c", 0), ("bW", -4)), 1),      # removes b_-3, 1st
        (("b", 0), (("b", -3), ("bW", -4)), -1),    # removes c_0, 2nd
        (("cW", 4), (("b", -3), ("c", 0)), 1),      # removes bW_-4, 3rd
        (("b", -4), (("b", -4),) + st, 1),          # inserted 1st
        (("c", -1), (("b", -3), ("c", -1), ("c", 0), ("bW", -4)), -1),
        (("bW", -3), st + (("bW", -3),), -1),       # inserted 4th
        (("cW", -1), st + (("cW", -1),), -1),
    ]
    for op, out, sign in cases:
        assert slc.apply_op(op, st) == {out: sign}, op
    assert slc.apply_op(("c", 0), st) == {}    # c_0 is already there
    assert slc.apply_op(("c", 2), st) == {}    # no b_-2 to remove


def test_half_integer_weight_field_at_integer_mode_is_zero():
    slc = FockSlice([BcSystem("bp", "cp", Fraction(3, 2))], 3)
    st = (("bp", Fraction(-3, 2)),)
    assert slc.apply_op(("bp", -2), st) == {}
    assert slc.apply_op(("cp", 1), st) == {}
    for m in (-2, 0, 1):
        assert field_modes(_mono("bp"), m, slc).is_zero, m
        assert field_modes(_mono("cp", 1), m, slc).is_zero, m
    # at half-integer modes the same fields act
    assert slc.apply_op(("cp", Fraction(3, 2)), st) == {(): 1}
    assert field_modes(_mono("bp"), Fraction(-3, 2), slc).columns[()] == {st: 1}


def test_modes_beyond_the_slice_level():
    # b_-12 on the vacuum of a level-0 slice creates a mode far deeper
    # than any basis state holds
    slc = FockSlice([SYS2], 0)
    assert slc.basis == [(), (("c", 0),)]
    assert field_modes(_mono("b"), -12, slc).columns == {
        (): {(("b", -12),): 1}, (("c", 0),): {(("b", -12), ("c", 0)): 1}}
    poles = ope_poles_from_modes(_mono("b"), _mono("c"), 0, slc, max_pole=12)
    assert poles[1] == _identity(slc)
    assert all(poles[n].is_zero for n in range(2, 13))


def test_negative_level_is_rejected():
    with pytest.raises(ModeError, match="level"):
        FockSlice([SYS2], -1)
    assert len(FockSlice([SYS3], 0).basis) == 2


def test_field_outside_the_slice_is_a_mode_error():
    slc = FockSlice([SYS2], 2)
    with pytest.raises(ModeError, match="unknown field"):
        field_modes(Monomial((("b", 0), ("zz", 0))), 0, slc)
    with pytest.raises(ModeError, match="unknown field"):
        slc.apply_op(("zz", 0), ())


def test_identical_fermion_modes_anticommute():
    # {b_p, b_q} = 0: every reconstructed pole of the self-product of a
    # single antighost vanishes
    slc = FockSlice([SYS2], 3)
    for r in (-3, -2, -4):
        poles = ope_poles_from_modes(_mono("b"), _mono("b"), r, slc,
                                     max_pole=3)
        assert all(p.is_zero for p in poles.values()), r


def test_max_pole_too_small_is_detected():
    alg = w3_ghosts(0, 0)
    ctx = alg.context()
    systems = systems_from_algebra(alg)
    s = systems[0]
    slc = FockSlice(systems, 2, excite=[s])
    t = ghost_stress(ctx, [(s.b, s.c)])
    with pytest.raises(ModeError):
        ope_poles_from_modes(t, t, 0, slc, max_pole=2)


@pytest.mark.parametrize("lam,expect", [
    (Fraction(2), Fraction(-26)),
    (Fraction(3), Fraction(-74)),
    (Fraction(1), Fraction(-2)),
    (Fraction(3, 2), Fraction(-11)),
])
def test_ghost_stress_central_charges(lam, expect):
    # c = -2 (6 lam^2 - 6 lam + 1) for a fermionic weight-(lam, 1-lam) pair
    if lam == Fraction(3, 2):
        alg = w32_ghosts(modified=False)
        name_b = "bp"
    elif lam == Fraction(1):
        alg = w32_ghosts(modified=False)
        name_b = "bU"
    else:
        alg = w3_ghosts(0, 0)
        name_b = "bT" if lam == 2 else "bW"
    systems = {s.b: s for s in systems_from_algebra(alg)}
    sys = systems[name_b]
    ctx = alg.context()
    t = ghost_stress(ctx, [(sys.b, sys.c)])
    assert stress_central_charge(t, sys, level=2) == expect


def test_crosscheck_levels_agree():
    # the engine/oracle comparison passes at one level and stays exact
    # when the slice is enlarged
    alg = w3_ghosts(0, 0)
    for level in (2, 4, 6):
        rep = crosscheck_bundle(alg, level)
        assert rep["ok"], [e for e in rep["checks"] if not e.get("match")]


def test_crosscheck_w32_ghosts():
    rep = crosscheck_bundle(w32_ghosts(modified=False), 2)
    assert rep["ok"]
    charges = {e["b"]: Fraction(e["central_charge"])
               for e in rep["systems"]}
    assert charges == {"bT": Fraction(-26), "bU": Fraction(-2),
                       "bp": Fraction(-11), "bm": Fraction(-11)}


def test_crosscheck_mixed_system_pair():
    # a product involving both systems of the weight-(2,3) ghost sector
    alg = w3_ghosts(0, 0)
    ctx = alg.context()
    t = ghost_stress(ctx, [("bT", "cT"), ("bW", "cW")])
    b = FieldExpr(alg, {_mono("bW"): RF_ONE})
    rep = crosscheck(alg, [(t, b)], 2, excite=["bW", "cW"], modes=(0,))
    assert rep["ok"], rep["checks"]


def test_crosscheck_detects_wick_mutation(monkeypatch):
    # breaking the binomial weight in the engine's composite product rule
    # makes the engine disagree with the mode oracle; the mode offset 3
    # puts the comparison at total mode 0 for the stress self-product,
    # where the mutated central term acts
    alg = w3_ghosts(0, 0)   # built before the patch: stored table intact
    monkeypatch.setattr("wbrst.engine.comb", lambda n, k: 1)
    rep = crosscheck_bundle(alg, 2, modes=(0, 3))
    assert not rep["ok"]
    bad = [e for e in rep["checks"] if not e.get("match")]
    assert any(e.get("pole") == 4 for e in bad)


def test_systems_from_algebra_rejects_interacting_table():
    from wbrst.algebras import w3
    with pytest.raises(ModeError):
        systems_from_algebra(w3(c=100))
