"""Mode-level oracle: Laurent-mode matrices on finite Fock slices and
operator products reconstructed from commutators alone."""

import os
import random
from fractions import Fraction
from math import factorial, prod

import pytest

from conftest import random_normal_products
from wbrst import modes
from wbrst.algebras import ghost_stress, w32_ghosts, w3_ghosts
from wbrst.fields import FieldExpr, Monomial
from wbrst.modes import (BcSystem, FockSlice, ModeError, ModeMatrix,
                         _mono_weight, _prefactor, _sample_solver,
                         crosscheck, crosscheck_bundle, field_modes,
                         ope_poles_from_modes,
                         stress_central_charge, systems_from_algebra)
from wbrst.scalars import RF_ONE, _add_into, rf


def _proc_stats():
    """(pid, state, parent pid, session id) of every process, read from
    /proc."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="utf-8") as f:
                    fields = f.read().rpartition(")")[2].split()
            except OSError:  # it ended while the list was read
                continue
            out.append((int(entry), fields[0], int(fields[1]),
                        int(fields[3])))
    return out


@pytest.fixture(autouse=True)
def _no_child_left():
    """Fail a test that leaves a child of this process behind, running
    or unreaped, such as a crosscheck worker."""
    yield
    if os.path.isdir("/proc"):
        me = os.getpid()
        assert [p for p, _, ppid, _ in _proc_stats() if ppid == me] == []


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
    with pytest.raises(ModeError, match="level"):  # with no slice to build
        crosscheck(w3_ghosts(0, 0), [], -1)
    assert len(FockSlice([SYS3], 0).basis) == 2


def test_a_slice_holds_at_most_max_states(monkeypatch):
    # every slice the goldens and the w32 level-3 composite check build fits
    assert len(FockSlice([SYS3], 8).basis) == 792
    w32 = systems_from_algebra(w32_ghosts(modified=False))
    assert len(FockSlice(w32, 3).basis) == 15088 <= modes.MAX_STATES
    # a huge level is refused from its count of modes, before enumeration
    with pytest.raises(ModeError, match=f"more than {modes.MAX_STATES} "):
        FockSlice([SYS3], 10 ** 8)
    # a basis one past the bound is refused while it is enumerated
    monkeypatch.setattr(modes, "MAX_STATES", 792)
    assert len(FockSlice([SYS3], 8).basis) == 792
    monkeypatch.setattr(modes, "MAX_STATES", 791)
    with pytest.raises(ModeError, match="level 8 holds more than 791 "):
        FockSlice([SYS3], 8)


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
    s = systems_from_algebra(alg)[0]
    slc = FockSlice([s], 2)
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
    assert stress_central_charge(t, FockSlice([sys], 2)) == expect


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
    rep = crosscheck(alg, [(t, b)], 2, modes=(0,))
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


def _doubled_pole2(monkeypatch):
    """Double pole 2 of every engine product with two poles or more."""
    from wbrst.engine import OpeContext
    ope = OpeContext.ope

    def doubled(self, x, y):
        poles = ope(self, x, y)
        if len(poles) >= 2:
            poles = dict(poles)
            poles[2] = poles[2].scaled(2)
        return poles

    monkeypatch.setattr(OpeContext, "ope", doubled)


def test_mismatch_report_at_excited_states(monkeypatch):
    # doubling pole 2 of every engine product with two poles or more: the
    # reported entries, states and outputs printed with their Fraction
    # mode numbers, match a recording, and every output is excited
    import json
    import pathlib
    golden = (pathlib.Path(__file__).resolve().parent / "golden"
              / "oracle_pole2_doubled_mismatches.json")
    algebras = {"w3_ghosts": w3_ghosts(0, 0),
                "w32_ghosts": w32_ghosts(modified=False)}
    _doubled_pole2(monkeypatch)
    _usable_cpus(monkeypatch, 2)  # the workers inherit the patched ope
    got = {name: [e for e in crosscheck_bundle(alg, 3, modes=(0, 1, -1))
                  ["checks"] if not e["match"]]
           for name, alg in algebras.items()}
    assert got == json.loads(golden.read_text(encoding="utf-8"))
    assert [len(v) for v in got.values()] == [18, 33]
    assert all(e["output"] != "()" for v in got.values() for e in v)
    assert "Fraction(-3, 1)" in got["w3_ghosts"][0]["output"]


# the units of a free table's bundle: six pairs and a central charge per
# system, w32's bp and bm sharing theirs; at one mode, one commutator
# solve for each pair unit
_UNITS = {"w3_ghosts_free": 14, "w32_ghosts_free": 21}
_SOLVES = {"w3_ghosts_free": 12, "w32_ghosts_free": 18}


@pytest.mark.parametrize("table, systems", [("w3_ghosts_free", 2),
                                            ("w32_ghosts_free", 4)])
@pytest.mark.parametrize("level", [2, 4])
def test_one_and_several_workers_print_the_same_bytes(monkeypatch, capsys,
                                                      table, systems, level):
    import json
    from wbrst.cli import main
    outs = []
    for cpus in (1, 2, 4):  # the units are dealt from one queue
        forks = _usable_cpus(monkeypatch, cpus)
        argv = ["oracle", "crosscheck", table, "--level", str(level)]
        assert main(argv + ["--json"]) == 0
        assert len(forks) == min(cpus, _UNITS[table]) - 1
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[0] and outs[2] == outs[0]
    assert len(json.loads(outs[0])["systems"]) == systems


def _count_solves(monkeypatch):
    """Count the mode-commutator solves of this process."""
    solves = []
    solve = modes._pole_columns
    monkeypatch.setattr(modes, "_pole_columns",
                        lambda *args: solves.append(1) or solve(*args))
    return solves


@pytest.mark.parametrize("table", ["w3_ghosts_free", "w32_ghosts_free"])
def test_units_with_the_same_inputs_solve_once(monkeypatch, table):
    # w32's bp and bm, both of weight 3/2, write their six pairs alike in
    # slice indices: 18 solves for 24 pairs; w3's two systems share none
    from wbrst.algebras import load_bundled
    _usable_cpus(monkeypatch, 1)
    solves = _count_solves(monkeypatch)
    assert crosscheck_bundle(load_bundled(table), 2)["ok"]
    assert len(solves) == _SOLVES[table]


def test_systems_of_one_weight_with_other_inputs_keep_their_own_oracle(
        monkeypatch):
    # bm's stress tensor doubled: its three stress pairs differ from bp's
    # and are solved on their own (21 solves).  With the engine's pole 2
    # doubled as well, each system reports the mismatches of a crosscheck
    # of its own pairs alone
    import wbrst.algebras
    from wbrst.algebras import load_bundled
    alg = load_bundled("w32_ghosts_free")
    stress = wbrst.algebras.ghost_stress

    def doubled_bm(ctx, pairs):
        t = stress(ctx, pairs)
        return t.scaled(2) if pairs[0][0] == "bm" else t

    monkeypatch.setattr(wbrst.algebras, "ghost_stress", doubled_bm)
    _doubled_pole2(monkeypatch)
    _usable_cpus(monkeypatch, 1)
    solves = _count_solves(monkeypatch)
    rep = crosscheck_bundle(alg, 2)
    assert len(solves) == 21
    alone = {s.b: crosscheck(alg, _standard_pairs(alg, s), 2,
                             modes=(0,))["checks"]
             for s in systems_from_algebra(alg)}
    assert rep["checks"] == [e for b in ("bT", "bU", "bp", "bm")
                             for e in alone[b]]
    bad = {b: [e for e in alone[b] if not e["match"]] for b in ("bp", "bm")}
    assert bad["bp"] and bad["bm"]
    assert [e["engine"] for e in bad["bm"]] != [e["engine"]
                                                for e in bad["bp"]]


def test_a_failing_crosscheck_prints_its_first_mismatches(monkeypatch,
                                                          capsys):
    # the text report of a crosscheck that fails: its systems, the count
    # line and the first four mismatched entries of the --json report
    from wbrst.algebras import load_bundled
    from wbrst.cli import main
    _doubled_pole2(monkeypatch)
    _usable_cpus(monkeypatch, 1)
    alg = load_bundled("w3_ghosts_free")
    bad = [e for e in crosscheck_bundle(alg, 2)["checks"] if not e["match"]]
    assert main(["oracle", "crosscheck", "w3_ghosts_free", "--level",
                 "2"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        "system (bT, cT) weight 2: 18 states, central charge -26",
        "system (bW, cW) weight 3: 18 states, central charge -74",
        "checks: 50, mismatches: 6", *(f"  {e}" for e in bad[:4])]
    assert len(bad) == 6 and all(e["pole"] == 2 for e in bad)


def test_a_mode_short_of_poles_is_an_error_entry(monkeypatch):
    # with the engine's poles 2 and up dropped, the oracle needs more poles
    # than the engine's top pole plus two at mode 3: that mode is one
    # failing entry naming the reason, and the report is not ok
    from wbrst.algebras import load_bundled
    from wbrst.engine import OpeContext
    ope = OpeContext.ope
    monkeypatch.setattr(OpeContext, "ope", lambda self, x, y: {
        n: e for n, e in ope(self, x, y).items() if n < 2})
    alg = load_bundled("w3_ghosts_free")
    t = ghost_stress(alg.context(), [("bT", "cT")])
    rep = crosscheck(alg, [(t, t)], 2, modes=(0, 3))
    assert rep["checks"][-1] == {
        "pair": rep["checks"][0]["pair"], "mode": "0", "match": False,
        "error": "mode commutators need more poles than max_pole=3"}
    assert [e["mode"] for e in rep["checks"][:-1]] == ["-3"] * 3
    assert rep["ok"] is False


def _standard_pairs(alg, s):
    """The six pairs that crosscheck_bundle checks for the bc system s,
    with the stress tensor that ``wbrst.algebras`` holds at the call."""
    import wbrst.algebras
    ctx = alg.context()
    b, c = (FieldExpr(alg, {_mono(n): RF_ONE}) for n in (s.b, s.c))
    bc = ctx.normal_product(b, c)
    t = wbrst.algebras.ghost_stress(ctx, [(s.b, s.c)])
    return [(_mono(s.b), _mono(s.c)), (_mono(s.b, 1), _mono(s.c)), (bc, bc),
            (t, b), (t, c), (t, t)]


def _failing_charge(monkeypatch, failing, error):
    """Make stress_central_charge raise error on the slices whose system's
    b field is in ``failing``, naming the field."""
    charge = modes.stress_central_charge

    def patched(t, slc):
        if slc.systems[0].b in failing:
            raise error(f"no charge for {slc.systems[0].b}")
        return charge(t, slc)

    monkeypatch.setattr(modes, "stress_central_charge", patched)


@pytest.mark.parametrize("table, failing, shown", [
    ("w3_ghosts_free", ("bT",), "bT"),
    ("w3_ghosts_free", ("bW",), "bW"),
    ("w3_ghosts_free", ("bT", "bW"), "bT"),
    ("w32_ghosts_free", ("bU", "bp"), "bU"),  # the earlier system
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


def _failing_pair(monkeypatch, failing, error):
    """Make the checks of the pairs in ``failing``, (b field, "contraction"
    or "stress") for (b, c) and a self-pair (x, x) of an expression, raise
    error naming them.  The b field is that of the first system of the
    slice whose fields x names, so that a slice may hold several."""
    checks = modes._pair_checks

    def patched(algebra, slc, x, y, *rest):
        named = {n for mono, _ in modes._terms(x) for n, _ in mono.factors}
        b = next(s.b for s in slc.systems if named & {s.b, s.c})
        which = "stress" if x is y and not isinstance(x, Monomial) else (
            "contraction" if x == _mono(b) else None)
        if (b, which) in failing:
            raise error(f"no {which} for {b}")
        return checks(algebra, slc, x, y, *rest)

    monkeypatch.setattr(modes, "_pair_checks", patched)


@pytest.mark.parametrize("step", ["charge", "contraction", "stress"])
@pytest.mark.parametrize("failing", ["bT", "bW"])
def test_a_crash_in_any_share_stays_a_crash(monkeypatch, capsys, failing,
                                            step):
    # a crash is carried back as text from whichever process ran its step
    # (a pair or a central charge, each a unit) and raised as the same
    # RuntimeError
    from wbrst.cli import main
    _usable_cpus(monkeypatch, 2)
    if step == "charge":
        _failing_charge(monkeypatch, (failing,), ZeroDivisionError)
    else:
        _failing_pair(monkeypatch, [(failing, step)], ZeroDivisionError)
    with pytest.raises(RuntimeError) as info:
        main(["oracle", "crosscheck", "w3_ghosts_free", "--level", "2"])
    assert str(info.value) == f"ZeroDivisionError: no {step} for {failing}"
    assert capsys.readouterr().out == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("charges, pairs, shown", [
    (("bT",), [("bW", "contraction")], "no charge for bT"),
    (("bT",), [("bT", "stress")], "no stress for bT"),
    ((), [("bT", "stress"), ("bT", "contraction")], "no contraction for bT"),
    (("bW",), [("bW", "stress"), ("bT", "stress")], "no stress for bT"),
], ids=["a-system-before-later-ones", "pairs-before-the-charge",
        "pairs-in-order", "an-earlier-system-first"])
def test_the_error_is_the_first_failing_step(monkeypatch, capsys, charges,
                                             pairs, shown):
    # a system's steps are its pairs in order, then its central charge;
    # the first failing system's first failing step is reported, however
    # the units were dealt
    from wbrst.cli import main
    _usable_cpus(monkeypatch, 2)
    _failing_charge(monkeypatch, charges, ModeError)
    _failing_pair(monkeypatch, pairs, ModeError)
    argv = ["oracle", "crosscheck", "w3_ghosts_free", "--level", "2"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {shown}\n")


@pytest.mark.parametrize("error", [ModeError, ZeroDivisionError])
@pytest.mark.parametrize("stress_first", [True, False])
def test_crosscheck_raises_its_first_failing_pair(monkeypatch, error,
                                                  stress_first):
    # crosscheck's pairs are units on one slice of both systems, taken by
    # two processes largest first, so (T, T) runs before (bW, cW); the
    # error raised is still the first failing pair's in pair order, and a
    # crash is the RuntimeError that names it
    alg = w3_ghosts(0, 0)
    t = ghost_stress(alg.context(), [("bT", "cT")])
    stress, contraction = (t, t), (_mono("bW"), _mono("cW"))
    failing = [stress, contraction] if stress_first else [contraction, stress]
    _usable_cpus(monkeypatch, 2)
    _failing_pair(monkeypatch, [("bT", "stress"), ("bW", "contraction")],
                  error)
    with pytest.raises(ModeError if error is ModeError else RuntimeError) \
            as info:
        crosscheck(alg, [(_mono("bT"), _mono("cT")), *failing], 1,
                   modes=(0,))
    shown = "no stress for bT" if stress_first else "no contraction for bW"
    assert str(info.value) == (shown if error is ModeError
                               else f"ZeroDivisionError: {shown}")


@pytest.mark.parametrize("table", ["w3_ghosts_free", "w32_ghosts_free"])
def test_crosscheck_of_random_products_is_that_of_one_process(monkeypatch,
                                                              table):
    # seeded random normal products of up to three generators, derivative
    # orders 0-2: the report is ok and the same with 1, 2 and 4 usable
    # CPUs, which fork min(cpus, units) - 1 workers, one unit per distinct
    # pair (no two of these pairs read alike on slices of one weight)
    import json
    from wbrst.algebras import load_bundled
    alg = load_bundled(table)
    count = {"w3_ghosts_free": 6, "w32_ghosts_free": 12}[table]
    pairs = random_normal_products(alg, seed=5, count=count)
    units = len(set(pairs))
    outs = []
    for cpus in (1, 2, 4):
        forks = _usable_cpus(monkeypatch, cpus)
        rep = crosscheck(alg, pairs, 1)
        assert rep["ok"], [e for e in rep["checks"] if not e["match"]]
        assert len(forks) == min(cpus, units) - 1
        outs.append(json.dumps(rep))
    assert outs[1] == outs[0] and outs[2] == outs[0]


@pytest.mark.parametrize("failing_call", [1, 2])
def test_a_failed_fork_leaves_the_units_to_those_running(monkeypatch, capsys,
                                                         failing_call):
    # a fork that fails for want of processes (EAGAIN) is not bad input:
    # no further fork is tried, the processes already running drain the
    # queue, and the bytes are those of one process
    import errno
    from wbrst.cli import main
    argv = ["oracle", "crosscheck", "w3_ghosts_free", "--level", "2",
            "--json"]
    _usable_cpus(monkeypatch, 1)
    assert main(argv) == 0
    one = capsys.readouterr().out
    calls, fork = [], os.fork

    def failing():
        calls.append(1)
        if len(calls) == failing_call:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.setattr(os, "fork", failing)
    assert main(argv) == 0
    assert capsys.readouterr() == (one, "")
    assert len(calls) == failing_call


@pytest.mark.parametrize("text, shown", [
    (None, "product cT cT is not a free contraction"),
    ("algebra lone\nfield X weight=1\n", "generator X is in no bc system"),
    ("algebra empty\n", "the table has no bc system"),
    ("algebra bos\nfield b weight=1 parity=even\n"
     "field c weight=0 parity=even\nope b c : 1 -> 1*one\n",
     "only fermionic systems are supported"),
    ("algebra off\nfield b weight=2 parity=odd\n"
     "field c weight=0 parity=odd\nope b c : 1 -> 1*one\n",
     "weights of b, c do not sum to one"),
    ("algebra two\nfield b weight=1 parity=odd\nfield c weight=0 parity=odd\n"
     "field d weight=0 parity=odd\nope b c : 1 -> 1*one\n"
     "ope b d : 1 -> 1*one\n", "field appears in two contractions"),
])
def test_the_oracle_refuses_a_table_it_cannot_check(capsys, tmp_path, text,
                                                    shown):
    # a stored self-product and a generator outside every bc pair are bad
    # input: the first is named, not met later as an unknown field, and a
    # table without a bc system does not pass with no checks; nor does a
    # contraction of bosons, of weights that do not sum to one, or of a
    # field already contracted with another
    from conftest import read_data
    from wbrst.cli import main
    if text is None:
        text = read_data("w3_ghosts_free.alg").replace(
            "ope cT cT :\n", "ope cT cT : 1 -> 1*N(cW,D(cW))\n")
        assert "N(cW" in text
    path = tmp_path / "table.alg"
    path.write_text(text, encoding="utf-8")
    assert main(["oracle", "crosscheck", str(path), "--level", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: {shown}\n")


_LONG_BUNDLE = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from wbrst.cli import main
sys.exit(main(["oracle", "crosscheck", "w3_ghosts_free", "--level", "12"]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_a_worker_ends_with_its_caller():
    # the caller of a level-12 crosscheck (about a second of units) is
    # terminated once its worker runs; within a second no live process
    # of its session is left
    import contextlib
    import pathlib
    import signal
    import subprocess
    import sys
    import time
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = filter(None, (str(src), os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    caller = subprocess.Popen([sys.executable, "-c", _LONG_BUNDLE], env=env,
                              stdout=subprocess.DEVNULL,
                              start_new_session=True)

    def session():  # its live processes; a zombie has ended
        return [p for p, state, _, sid in _proc_stats()
                if sid == caller.pid and state != "Z"]

    try:
        deadline = time.monotonic() + 60
        while len(session()) < 2:
            assert caller.poll() is None, "the caller ended first"
            assert time.monotonic() < deadline, "no worker started"
            time.sleep(0.01)
        caller.terminate()
        assert caller.wait(timeout=10) == -signal.SIGTERM
        deadline = time.monotonic() + 1
        while session() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert session() == []
    finally:
        for pid in session():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        caller.kill()
        caller.wait()


def test_each_pair_runs_on_the_slice_of_the_systems_it_names(monkeypatch):
    # on w32_ghosts_free, a pair that names one system runs on that
    # system's slice, shared by the pairs that name it, and a pair that
    # names two on their product; the entries are those of crosschecking
    # each pair alone, and ``states`` is the size of the largest slice
    from wbrst.algebras import load_bundled
    alg = load_bundled("w32_ghosts_free")
    bt, bu, bp, bm = systems_from_algebra(alg)
    pairs = [*_standard_pairs(alg, bp)[:3], (_mono("bU"), _mono("cU")),
             *_standard_pairs(alg, bm)[3:5], (_mono("bT", 1), _mono("cp"))]
    _usable_cpus(monkeypatch, 1)
    slices = []

    class Recorded(FockSlice):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            slices.append(self)

    monkeypatch.setattr("wbrst.modes.FockSlice", Recorded)
    rep = crosscheck(alg, pairs, 1)
    assert rep["ok"]
    assert [s.systems for s in slices] == [(bp,), (bu,), (bm,), (bt, bp)]
    assert rep["states"] == max(len(s.basis) for s in slices) == len(
        slices[3].basis)
    assert rep["checks"] == [e for pair in pairs
                             for e in crosscheck(alg, [pair], 1)["checks"]]


def _bad_expr(alg, kind):
    """An expression of the w3 ghosts that the oracle refuses: zero, of
    the weights 2 and -1, or of weight 2 with an odd and an even term."""
    terms = {"zero": {}, "weight": {(("bT", 0),): 1, (("cT", 0),): 1},
             "parity": {(("bT", 0),): 1, (("bT", 0), ("cT", 1)): 1}}[kind]
    return FieldExpr(alg, {Monomial(f): rf(k) for f, k in terms.items()})


@pytest.mark.parametrize("kind", ["zero", "weight", "parity"])
def test_an_expression_of_no_single_weight_or_parity_is_refused(kind):
    # every entry of the oracle compiles one expression of one weight and
    # parity; a crosscheck raises the error of its pair
    alg = w3_ghosts(0, 0)
    x, b = _bad_expr(alg, kind), _mono("bT")
    shown = ("^expression must have a single "
             f"{'parity' if kind == 'parity' else 'weight'}$")
    slc = FockSlice(systems_from_algebra(alg)[:1], 2)
    with pytest.raises(ModeError, match=shown):
        field_modes(x, 0, slc)
    for pair in ((x, b), (b, x)):
        with pytest.raises(ModeError, match=shown):
            ope_poles_from_modes(*pair, -3, slc)
    with pytest.raises(ModeError, match=shown):
        crosscheck(alg, [(b, _mono("cT")), (x, b)], 1)


@pytest.mark.parametrize("pairs, shown", [
    ([("weight", "b"), ("parity", "b")], "weight"),
    ([("parity", "b"), ("weight", "b")], "parity"),
    ([("parity", "weight")], "parity"),  # the first side's error
    ([("weight", "parity")], "weight"),
])
def test_crosscheck_refuses_its_first_bad_pair(monkeypatch, pairs, shown):
    # two processes may run the bad pairs in either order; the error is
    # that of the first bad pair, and of its first bad side
    alg = w3_ghosts(0, 0)
    _usable_cpus(monkeypatch, 2)
    side = {"b": _mono("bT"), "weight": _bad_expr(alg, "weight"),
            "parity": _bad_expr(alg, "parity")}
    with pytest.raises(ModeError,
                       match=f"^expression must have a single {shown}$"):
        crosscheck(alg, [(_mono("bT"), _mono("cT")),
                         *((side[x], side[y]) for x, y in pairs)], 1)


def test_a_pair_naming_an_unknown_field_is_a_mode_error():
    alg = w3_ghosts(0, 0)
    with pytest.raises(ModeError, match="unknown field 'zz'"):
        crosscheck(alg, [(_mono("bT"), _mono("cT")), (_mono("zz"),
                                                      _mono("cT"))], 2)


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_unknown_field_does_not_hide_an_earlier_bad_pair(monkeypatch,
                                                             cpus):
    # a pair naming a field of no slice cannot be grouped with others; it
    # is a unit of its own, so an earlier pair's error is still the one
    # raised
    alg = w3_ghosts(0, 0)
    _usable_cpus(monkeypatch, cpus)
    with pytest.raises(ModeError,
                       match="^expression must have a single weight$"):
        crosscheck(alg, [(_bad_expr(alg, "weight"), _mono("bT")),
                         (_mono("zz"), _mono("cT"))], 1)


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
    ex = FockSlice(systems, level)._compile(expr)
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
    # one slice per system, holding that system alone; a second walk of
    # the stress tensor's terms would add to them.  The central charge
    # reads L_-2 on the vacuum and L_2 on its outputs on the same slice,
    # entries that the stress self-product has already tabulated.  One
    # usable CPU keeps every slice in this process, where it is counted
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
    assert [len(s.systems) for s in slices] == [1, 1]
    assert [(len(s.basis), s.tabulated()) for s in slices] == [
        (64, 3541), (126, 7248)]
