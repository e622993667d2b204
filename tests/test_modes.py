"""Mode-level oracle: Laurent-mode matrices on finite Fock slices and
operator products reconstructed from commutators alone."""

import random
from fractions import Fraction
from math import factorial, prod

import pytest

from wbrst.algebras import ghost_stress, w32_ghosts, w3_ghosts
from wbrst.fields import FieldExpr, Monomial
from wbrst.modes import (BcSystem, FockSlice, ModeError, ModeMatrix,
                         _mono_weight, _prefactor, _sample_solver,
                         crosscheck, crosscheck_bundle, field_modes,
                         ope_poles_from_modes,
                         stress_central_charge, systems_from_algebra)
from wbrst.scalars import RF_ONE, _add_into, rf


SYS2 = BcSystem("b", "c", Fraction(2))
SYS3 = BcSystem("bW", "cW", Fraction(3))
SYSP = BcSystem("bp", "cp", Fraction(3, 2))


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


def test_apply_op_needs_states_in_op_key_order():
    # a fermionic state is an ordered product: its reverse is minus it and
    # a repeated mode makes it zero, so neither stands for the state
    slc = FockSlice([BcSystem("bT", "cT", 2)], 3)
    st = (("cT", -1), ("cT", 1))
    assert slc.apply_op(("cT", -3), st) == {(("cT", -3),) + st: 1}
    for bad in (st[::-1], (("cT", -1), ("cT", -1))):
        with pytest.raises(ModeError, match="op_key order"):
            slc.apply_op(("cT", -3), bad)


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


def test_a_deep_mode_keeps_the_tables():
    # every mode has its own bit, so a mode far below the slice level adds
    # its entries beside those of the modes applied before it
    expr = _sum({(("b", 0), ("c", 1)): -2, (("b", 1), ("c", 0)): -1})
    slc = FockSlice([SYS2], 3)
    first = field_modes(expr, 0, slc)
    field_modes(expr, -40, slc)
    entries = slc.tabulated()
    assert field_modes(expr, 0, slc) == first
    assert slc.tabulated() == entries


@pytest.mark.parametrize("systems,level", [
    ([SYS2], 3), ([SYS3], 2), ([BcSystem("bU", "cU", 1)], 4), ([SYSP], 3),
    ([SYS2, SYSP], 2),
])
def test_basis_is_every_state_of_the_slice(systems, level):
    # the pruned enumeration against every set of creation modes at
    # levels 0 .. L, c-type modes that lower the level included
    from itertools import combinations
    slc = FockSlice(systems, level)
    ops = []
    for s in systems:
        for name in (s.b, s.c):
            m = -s.weight(name)
            while -m <= level:
                ops.append((name, m))
                m -= 1
    ops.sort(key=slc.op_key)
    want = [st for k in range(len(ops) + 1) for st in combinations(ops, k)
            if 0 <= slc.level_of(st) <= level]
    want.sort(key=lambda st: (slc.level_of(st), len(st),
                              tuple(slc.op_key(o) for o in st)))
    assert slc.basis == want


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


def _binom(x, j):
    """binom(x, j) for any integer x, as the sample matrix has it."""
    return prod(range(x - j + 1, x + 1)) // factorial(j)


@pytest.mark.parametrize("max_pole", range(1, 11))
def test_sample_solver_reads_the_poles_back(max_pole):
    # samples sum_j binom(x, j) C_j at the window of _pole_columns, x =
    # p + h_a - 1: the first max_pole rows give C back and the three
    # consistency rows vanish; a term of degree max_pole .. max_pole + 2
    # makes a consistency row nonzero
    rows = _sample_solver(max_pole)
    assert len(rows) == max_pole + 3
    xs = [na - 1 for na in range(-(max_pole // 2),
                                 max_pole + 3 - max_pole // 2)]
    rng = random.Random(max_pole)
    for _ in range(5):
        cs = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(max_pole)]
        samples = [sum(_binom(x, j) * v for j, v in enumerate(cs))
                   for x in xs]
        got = [sum(map(int.__mul__, row, samples)) for row in rows]
        assert got == cs + [0, 0, 0]
    for degree in range(max_pole, max_pole + 3):
        samples = [_binom(x, degree) for x in xs]
        assert any(sum(map(int.__mul__, row, samples))
                   for row in rows[max_pole:])


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


_MUTATED_CROSSCHECK = """
import json
from unittest import mock
from wbrst.algebras import w3_ghosts
from wbrst.modes import crosscheck_bundle
alg = w3_ghosts(0, 0)
with mock.patch("wbrst.engine.comb", lambda n, k: 1):
    rep = crosscheck_bundle(alg, 2, modes=(0, 3))
print(json.dumps([e for e in rep["checks"] if not e.get("match")]))
"""


def test_reported_difference_does_not_depend_on_hash_seed():
    # states are tuples of strings, so a walk over sets of them would
    # report a different first entry under each string hash seed
    import json
    import os
    import pathlib
    import subprocess
    import sys
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    reports = []
    for seed in ("1", "2", "3"):
        path = filter(None, (str(src), os.environ.get("PYTHONPATH")))
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run([sys.executable, "-c", _MUTATED_CROSSCHECK],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=300).stdout
        reports.append(json.loads(out))
    assert reports[0], "the mutation must be detected"
    assert all("state" in e for e in reports[0])
    assert reports[1] == reports[0] and reports[2] == reports[0]


def _usable_cpus(monkeypatch, n):
    """Let crosscheck_bundle see n usable CPUs, so that it deals its
    systems to up to n processes; returns the list of its forks."""
    import os
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def test_mismatch_report_at_excited_states(monkeypatch):
    # doubling pole 2 of every engine product with two poles or more: the
    # reported entries, states and outputs printed with their Fraction
    # mode numbers, match a recording, and every output is excited
    import json
    import pathlib
    from wbrst.engine import OpeContext
    golden = (pathlib.Path(__file__).resolve().parent / "golden"
              / "oracle_pole2_doubled_mismatches.json")
    algebras = {"w3_ghosts": w3_ghosts(0, 0),
                "w32_ghosts": w32_ghosts(modified=False)}
    ope = OpeContext.ope

    def doubled(self, x, y):
        poles = ope(self, x, y)
        if len(poles) >= 2:
            poles = dict(poles)
            poles[2] = poles[2].scaled(2)
        return poles

    monkeypatch.setattr(OpeContext, "ope", doubled)
    _usable_cpus(monkeypatch, 2)  # the workers inherit the patched ope
    got = {name: [e for e in crosscheck_bundle(alg, 3, modes=(0, 1, -1))
                  ["checks"] if not e["match"]]
           for name, alg in algebras.items()}
    assert got == json.loads(golden.read_text(encoding="utf-8"))
    assert [len(v) for v in got.values()] == [18, 33]
    assert all(e["output"] != "()" for v in got.values() for e in v)
    assert "Fraction(-3, 1)" in got["w3_ghosts"][0]["output"]


@pytest.mark.parametrize("table, systems", [("w3_ghosts_free", 2),
                                            ("w32_ghosts_free", 4)])
@pytest.mark.parametrize("level", [2, 4])
def test_one_and_several_workers_print_the_same_bytes(monkeypatch, capsys,
                                                      table, systems, level):
    from wbrst.cli import main
    outs = []
    for cpus in (1, 2, 4):  # with 2, w32's workers take two systems each
        forks = _usable_cpus(monkeypatch, cpus)
        argv = ["oracle", "crosscheck", table, "--level", str(level)]
        assert main(argv + ["--json"]) == 0
        assert len(forks) == min(cpus, systems) - 1
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[0] and outs[2] == outs[0]


def _failing_charge(monkeypatch, failing, error):
    """Make stress_central_charge raise error for the systems whose b
    field is in ``failing``, naming the field."""
    import wbrst.modes as modes_module
    charge = modes_module.stress_central_charge

    def patched(t, system, level=2):
        if system.b in failing:
            raise error(f"no charge for {system.b}")
        return charge(t, system, level)

    monkeypatch.setattr(modes_module, "stress_central_charge", patched)


@pytest.mark.parametrize("table, failing, shown", [
    ("w3_ghosts_free", ("bT",), "bT"),        # in the caller's share
    ("w3_ghosts_free", ("bW",), "bW"),        # in the worker's share
    ("w3_ghosts_free", ("bT", "bW"), "bT"),
    ("w32_ghosts_free", ("bU", "bp"), "bU"),  # the worker's system is first
])
def test_a_worker_error_is_the_one_process_error(monkeypatch, capsys, table,
                                                 failing, shown):
    import os
    from wbrst.cli import main
    _usable_cpus(monkeypatch, 2)
    _failing_charge(monkeypatch, failing, ModeError)
    assert main(["oracle", "crosscheck", table, "--level", "2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: no charge for {shown}\n")
    with pytest.raises(ChildProcessError):  # every worker is reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failing, raised, message", [
    ("bT", ZeroDivisionError, "no charge for bT"),
    ("bW", RuntimeError, "ZeroDivisionError: no charge for bW"),
])
def test_a_crash_in_any_share_stays_a_crash(monkeypatch, capsys, failing,
                                            raised, message):
    import os
    from wbrst.cli import main
    _usable_cpus(monkeypatch, 2)
    _failing_charge(monkeypatch, (failing,), ZeroDivisionError)
    with pytest.raises(raised) as info:
        main(["oracle", "crosscheck", "w3_ghosts_free", "--level", "2"])
    assert str(info.value) == message
    assert capsys.readouterr().out == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_crosscheck_names_an_unknown_excited_field():
    alg = w3_ghosts(0, 0)
    with pytest.raises(ModeError, match="unknown field 'zz'"):
        crosscheck(alg, [(_mono("bT"), _mono("cT"))], 2, excite=["zz"])


def test_systems_from_algebra_rejects_interacting_table():
    from wbrst.algebras import w3
    with pytest.raises(ModeError):
        systems_from_algebra(w3(c=100))


# -- the kernel against the previous double sum ------------------------------

def _reference_plan(slc, factors, n, s, lv, memo):
    """The composite-mode double sum of a right-nested product as it was
    before the occupied-bit kernel, read off the factors alone: every
    offset up to the slice level is tried, and a single-factor tail is a
    recursion that returns a dict."""
    (name, d), rest = factors[0], factors[1:]
    f = slc._field(name)
    if not rest:
        k = _prefactor(d, n - d) if d else 1
        hit = slc._op(f, n - d, s) if k else None
        return {hit[0]: k * hit[1]} if hit else {}
    out = memo.get((factors, n, s))
    if out is not None:
        return out
    out = {}
    op, den = slc._op, slc._den
    dha = slc._dh[f] + den * d
    dhrest = sum(slc._dh[slc._field(m)] + den * e for m, e in rest)
    sign = -1 if len(rest) % 2 else 1
    for j in range(0, n - (lv + dhrest) // den - 1, -1):
        k = _prefactor(d, j - d) if d else 1
        for s1, v1 in _reference_plan(slc, rest, n - j, s, lv, memo).items():
            hit = op(f, j - d, s1)
            if hit:
                _add_into(out, hit[0], k * hit[1] * v1)
    for j in range(d + 1, (lv + dha) // den + 1):
        hit = op(f, j - d, s)
        if hit:
            k = sign * hit[1] * (_prefactor(d, j - d) if d else 1)
            lv1 = lv + dha - den * j
            for s2, v2 in _reference_plan(slc, rest, n - j, hit[0], lv1,
                                          memo).items():
                _add_into(out, s2, k * v2)
    memo[(factors, n, s)] = out
    return out


def _reference_modes(mono, m, slc):
    """field_modes of a monomial through the reference double sum, as
    [(basis state, [(output, value), ...])], each value times the signs
    that reorder the two bitmask states into tuple states."""
    h = _mono_weight(slc, mono.factors)
    memo, cols = {}, []
    for s, lv in zip(slc._states, slc._lvs):
        col = {}
        if (m + h).denominator == 1:
            col = _reference_plan(slc, mono.factors, int(m + h), s, lv, memo)
        state, sign = slc._tuple(s)
        out = []
        for o, v in col.items():
            o, osign = slc._tuple(o)
            out.append((o, Fraction(sign * osign * v)))
        cols.append((state, out))
    return cols


_KERNEL_CASES = [
    # one, two and three factors, with derivatives, integer weights
    ([SYS2], 3, (("b", 0),)),
    ([SYS2], 3, (("c", 2),)),
    ([SYS2], 3, (("b", 0), ("c", 0))),
    ([SYS2], 3, (("b", 1), ("c", 0))),
    ([SYS2], 3, (("b", 0), ("c", 2))),
    ([SYS2], 3, (("b", 0), ("c", 0), ("c", 1))),
    ([SYS2], 3, (("c", 1), ("b", 0), ("c", 0))),
    ([SYS2], 3, (("b", 2), ("b", 0), ("c", 1))),
    # half-integer weights, alone and beside an integer-weight system
    ([SYSP], 3, (("bp", 1),)),
    ([SYSP], 3, (("bp", 0), ("cp", 0))),
    ([SYSP], 3, (("cp", 1), ("bp", 0), ("cp", 0))),
    ([SYS2, SYSP], 2, (("b", 0), ("cp", 1))),
    ([SYS2, SYSP], 2, (("bp", 0), ("c", 0), ("cp", 0))),
]


@pytest.mark.parametrize("systems,level,factors", _KERNEL_CASES)
def test_kernel_matches_reference_double_sum(systems, level, factors):
    # every state's column, in the same order, at modes inside the slice,
    # half-integer modes, and modes far beyond the slice level
    mono = Monomial(factors)
    for m in (0, 1, -1, 2, -3, 5, -8, Fraction(1, 2), Fraction(-7, 2)):
        m = Fraction(m)
        want = _reference_modes(mono, m, FockSlice(systems, level))
        got = field_modes(mono, m, FockSlice(systems, level))
        assert [(st, list(col.items())) for st, col in got.columns.items()] \
            == want, m


# -- pair plans and mirrored samples -----------------------------------------

_PAIR_CASES = [
    # the stress tensor of the weight-(2, -1) system, and 3 and 4 splits
    ([SYS2], 3, "b", "c", ((0, 1, -2), (1, 0, -1))),
    ([SYS2], 3, "b", "c", ((0, 2, 1), (1, 1, 3), (2, 0, -1))),
    ([SYS2], 3, "c", "c", ((0, 3, 2), (1, 2, -1), (2, 1, 5), (3, 0, 1))),
    # half-integer weights, with fractional coefficients
    ([SYSP], 3, "bp", "cp",
     ((0, 1, Fraction(-3, 2)), (1, 0, Fraction(-1, 2)))),
    ([SYSP], 3, "cp", "bp", ((0, 2, 1), (2, 0, Fraction(1, 3)))),
    # one field of each system
    ([SYS2, SYSP], 2, "b", "cp", ((0, 1, 1), (1, 0, -1))),
    ([SYS2, SYSP], 2, "bp", "c",
     ((0, 2, 2), (1, 1, -1), (2, 0, Fraction(1, 2)))),
    # a prefactor that vanishes at g's offsets 0 and -1, and d(N(b, c)),
    # whose weight -(t + u) vanishes at every hit of the offset 1
    ([SYS2], 3, "b", "c", ((0, 2, 1),)),
    ([SYS2], 3, "b", "c", ((0, 1, 1), (1, 0, 1))),
]


def _sum(terms):
    """A numeric field expression {factors: coefficient}; the oracle reads
    only its terms."""
    return FieldExpr(None, {Monomial(f): rf(k) for f, k in terms.items()})


@pytest.mark.parametrize("systems,level,a,b,splits", _PAIR_CASES)
def test_pair_plan_matches_reference_sum(systems, level, a, b, splits):
    # the terms of one field pair and one total derivative order compile
    # to one pair plan, whose modes are the sum of the per-term reference
    # double sums, at modes inside the slice, half-integer modes, and
    # modes far beyond the slice level
    expr = _sum({((a, d), (b, e)): k for d, e, k in splits})
    (ex,) = FockSlice(systems, level)._compile(expr)
    ((plan, _),) = ex.terms
    assert len(plan.splits) == len(splits)
    for m in (0, 1, -1, 2, -3, 5, -8, 8, Fraction(1, 2), Fraction(-7, 2),
              Fraction(15, 2)):
        m = Fraction(m)
        want = {}
        for d, e, k in splits:
            mono = Monomial(((a, d), (b, e)))
            for st, col in _reference_modes(mono, m, FockSlice(systems,
                                                               level)):
                want.setdefault(st, {})
                for o, v in col:
                    _add_into(want[st], o, k * v)
        got = field_modes(expr, m, FockSlice(systems, level))
        assert got.columns == want, m


def test_pair_walk_applies_no_mode_at_a_zero_weight(monkeypatch):
    # N(b, d^2 c) weighs each hit with (-u)(-u - 1), zero at c's offsets
    # 0 and -1: those hits are skipped, so no zero is ever added
    import wbrst.modes
    added = []

    def recorded(dst, key, value):
        added.append(value)
        _add_into(dst, key, value)

    monkeypatch.setattr(wbrst.modes, "_add_into", recorded)
    expr = _sum({(("b", 0), ("c", 2)): 1})
    for m in range(-3, 4):
        field_modes(expr, Fraction(m), FockSlice([SYS2], 3))
    assert added and 0 not in added


def _full_sample_loop(monkeypatch, a, b, r, slc, max_pole):
    """ope_poles_from_modes with every sample computed: each compile makes
    new expressions, so the two sides never share one."""
    compile_ = FockSlice._compile

    def fresh(self, x):
        self._exprs.clear()
        return compile_(self, x)

    with monkeypatch.context() as m:
        m.setattr(FockSlice, "_compile", fresh)
        return ope_poles_from_modes(a, b, r, slc, max_pole=max_pole)


SYSH = BcSystem("bh", "ch", Fraction(1, 2))


@pytest.mark.parametrize("systems,level,terms", [
    # even: the stress tensor of the weight-(2, -1) system
    ([SYS2], 3, {(("b", 0), ("c", 1)): -2, (("b", 1), ("c", 0)): -1}),
    # odd, with a nonzero product: b + c of a weight-(1/2, 1/2) system,
    # and b + c'' of the weight-(3/2, -1/2) system
    ([SYSH], 3, {(("bh", 0),): 1, (("ch", 0),): 1}),
    ([SYSP], 3, {(("bp", 0),): 1, (("cp", 2),): 1}),
    # odd, with a pole field N(c, c''), so that a sample at na = nb, twice
    # the square of one mode, is not zero
    ([SYS2, SYSH], 2,
     {(("bh", 0),): 1, (("ch", 0),): 1, (("c", 0), ("c", 2), ("ch", 0)): 1}),
])
def test_mirrored_samples_match_the_full_loop(monkeypatch, systems, level,
                                              terms):
    import wbrst.modes as modes_module
    x = _sum(terms)
    calls = []
    apply = modes_module._apply

    def counted(*args):
        calls.append(1)
        return apply(*args)

    monkeypatch.setattr(modes_module, "_apply", counted)
    for r in (0, -1, 1, 2):
        del calls[:]
        mirrored = ope_poles_from_modes(x, x, r, FockSlice(systems, level),
                                        max_pole=6)
        fewer = len(calls)
        del calls[:]
        full = _full_sample_loop(monkeypatch, x, x, r,
                                 FockSlice(systems, level), 6)
        assert mirrored == full, r
        assert fewer < len(calls), r
        if r == 0:
            assert not all(p.is_zero for p in full.values())


@pytest.mark.parametrize("name,pair,pole", [
    ("w3_ghosts_free", "stress", 4),
    ("w32_ghosts_free", {(("bp", 0),): 1, (("cp", 2),): 1}, 3),
])
def test_self_pair_pole_mutation_is_detected(monkeypatch, name, pair, pole):
    # the engine's top pole of a self-pair plus the unit: the crosscheck,
    # which reads half the samples off their mirrors, reports it
    from wbrst.algebras import load_bundled
    from wbrst.engine import OpeContext
    alg = load_bundled(name)
    if pair == "stress":
        x = ghost_stress(alg.context(), [("bT", "cT")])
    else:
        x = FieldExpr(alg, {Monomial(f): rf(k) for f, k in pair.items()})
    # the unit acts at total mode 0: mode offset 3 for the stress tensor,
    # 2 for the weight-3/2 field
    assert crosscheck(alg, [(x, x)], 2, modes=(0, 1, -1, 2, 3))["ok"]
    ope = OpeContext.ope

    def mutated(self, a, b):
        poles = ope(self, a, b)
        if a is x and b is x:
            poles = dict(poles)
            poles[pole] = poles[pole] + FieldExpr.unit(alg)
        return poles

    monkeypatch.setattr(OpeContext, "ope", mutated)
    rep = crosscheck(alg, [(x, x)], 2, modes=(0, 1, -1, 2, 3))
    bad = [e for e in rep["checks"] if not e["match"]]
    assert bad and all(e["pole"] == pole for e in bad)


def test_tabulated_entries_are_pinned(monkeypatch):
    # the (offset, state) entries each slice of the bundle has tabulated:
    # the crosscheck slice and the central-charge slice of each system,
    # each holding that system alone; a second walk of the stress tensor's
    # terms would add to them.  The central charge reads L_-2 on the
    # vacuum and L_2 on its two outputs, three entries.  One usable CPU
    # keeps every slice in this process, where it is counted
    from wbrst.algebras import load_bundled
    _usable_cpus(monkeypatch, 1)
    slices = []

    class Recorded(FockSlice):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            slices.append(self)

    monkeypatch.setattr("wbrst.modes.FockSlice", Recorded)
    rep = crosscheck_bundle(load_bundled("w3_ghosts_free"), 4)
    assert rep["ok"]
    assert [len(s.systems) for s in slices] == [1, 1, 1, 1]
    assert [(len(s.basis), s.tabulated()) for s in slices] == [
        (64, 3541), (18, 3), (126, 7248), (18, 3)]
