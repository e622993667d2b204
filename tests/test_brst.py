"""BRST currents: nilpotency, critical central charges, the conventional
ghost-sector point, and ansatz reconstruction."""

import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from test_golden import golden_path, run_command
from wbrst import analysis, brst, linalg
from wbrst.algebras import (bundle, ghost_stress, ghost_stress_w3,
                            load_bundled, w32, w3_ghosts, w32_ghosts)
from wbrst.analysis import (central_charge, is_total_derivative,
                            primary_check, weight_basis)
from wbrst.brst import (BrstCurrent, BrstError, brst_w3, brst_w32,
                        critical_charge, derive_brst, nilpotency,
                        solve_conventional, unconventional_terms)
from wbrst.engine import OpeContext
from wbrst.fields import FieldExpr, GeneratorDecl, Monomial, OpeAlgebra
from wbrst.linalg import normal_form, rref
from wbrst.scalars import RF_ONE, RationalFunction as RF, _add_into


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


def test_total_derivative_preimage():
    # pole 1 of the nilpotent current, and derivatives of sums over a few
    # slices: the preimage differentiates back to the expression
    q = brst_w3(0, 0, c=100)
    ctx = q.context
    pole1 = q.self_product[1]
    ok, preimage = is_total_derivative(ctx, pole1)
    assert ok and not preimage.is_zero
    assert ctx.derivative(preimage) == pole1
    for weight, parity, ghost in [(0, 0, 2), (0, 1, 1), (1, 1, 1), (2, 0, 0)]:
        basis = weight_basis(q.algebra, weight, parity=parity, ghost=ghost)
        assert basis
        expr = ctx.derivative(FieldExpr(q.algebra, {
            m: RF.const(k + 1) for k, m in enumerate(basis)}))
        ok, preimage = is_total_derivative(ctx, expr)
        assert ok and ctx.derivative(preimage) == expr
    # an obstructed pole 1 is not a total derivative
    q = brst_w3(0, 0, c=50)
    assert is_total_derivative(q.context, q.self_product[1]) == (False, None)


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


C = RF.var("c")


def _reduced(rows, rhs):
    """A stand-in current whose ``reduction`` is ``rhs`` modulo the
    derivative ``rows`` over two targets, reduced at generic c:
    ``critical_charge`` reads nothing else."""
    return SimpleNamespace(reduction=([0, 1], rows, rhs,
                                      normal_form(*rref(rows, 2), rhs)))


@pytest.mark.parametrize("rows, rhs, want", [
    # x = 1 and x = c - 1 meet at c = 2
    ([{0: RF_ONE, 1: RF_ONE}], {0: RF_ONE, 1: C - 1}, {2}),
    # the obstruction c + 1 vanishes where the row has a pole
    ([{0: 1 / (C + 1), 1: 1 / (C + 1)}], {0: RF_ONE, 1: C + 2}, set()),
    # the obstruction c - 2 vanishes where the rank drops to 0, leaving
    # the whole vector
    ([{0: C - 2, 1: C - 2}], {0: RF_ONE, 1: C - 1}, set()),
    # no obstruction: nilpotent at every c
    ([{0: RF_ONE, 1: RF_ONE}], {0: RF_ONE, 1: RF_ONE}, None),
])
def test_critical_charge_rechecks_the_common_zero(rows, rhs, want):
    assert critical_charge(_reduced(rows, rhs)) == want


def test_critical_charge_refuses_two_roots():
    q = _reduced([{0: RF_ONE}, {0: RF_ONE}], {0: RF_ONE, 1: C * C})
    with pytest.raises(BrstError):
        critical_charge(q)


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
    assert rep.message == "nilpotency system has no rational solution"


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


# -- the nilpotency conditions of derive_brst from unordered pairs ----------


def _reduce(vec, red):
    """``vec`` less the multiples of the pivot rows ``red``, {pivot: row},
    that clear each pivot."""
    for col, row in red.items():
        f = vec.get(col)
        if f:
            for j, b in row.items():
                _add_into(vec, j, -f * b)
    return vec


def _echelon(rows):
    """{pivot: row} of the reduced echelon form of the row space of sparse
    rows, each column in turn taken from the last row that holds it."""
    rows, red = [dict(r) for r in rows], {}
    for col in sorted({j for r in rows for j in r}):
        k = next((k for k in reversed(range(len(rows))) if col in rows[k]),
                 None)
        if k is None:
            continue
        piv = rows.pop(k)
        piv = {j: v / piv[col] for j, v in piv.items()}
        for r in (*red.values(), *rows):
            _reduce(r, {col: piv})
        red[col] = piv
    return red


def _ordered_pair_equations(ctx, members):
    """Reference for ``_nilpotency_equations``: pole 1 of every ordered
    member pair, reduced by an elimination of its own modulo the
    derivative images of the weight-0, ghost-number-2, even slice, over
    the targets in ``mono_key`` order; one equation per target."""
    algebra = ctx.algebra
    pair_vec = {}
    targets = set()
    for i, (mi, _, _) in enumerate(members):
        for j, (mj, _, _) in enumerate(members):
            e = FieldExpr(algebra, ctx.ope_mono(mi, mj).get(1, {}))
            if not e.is_zero:
                pair_vec[(i, j)] = e
                targets.update(e.terms)
    exact2 = weight_basis(algebra, 0, parity=0, ghost=2)
    images2 = [ctx.derivative(FieldExpr(algebra, {m: RF_ONE}))
               for m in exact2]
    for im in images2:
        targets.update(im.terms)
    targets = sorted(targets, key=algebra.mono_key)
    index = {t: k for k, t in enumerate(targets)}
    red = _echelon([{index[t]: v for t, v in im.terms.items()}
                    for im in images2])
    equations = {}
    for (i, j), e in pair_vec.items():
        vec = _reduce({index[t]: v for t, v in e.terms.items()}, red)
        for t, val in sorted(vec.items()):
            eq = equations.setdefault(t, {})
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
    return [eq for _, eq in sorted(equations.items()) if eq]


def _derive_case(name):
    """(algebra, leading, pinned, max_degree) of a derivation, on a fresh
    algebra."""
    family, _, rest = name.partition(" ")
    if family == "w3":
        stem = "w3_printed" if "printed" in rest else "w3"
        alg = bundle("w3_brst", load_bundled(stem, c=100), w3_ghosts(0, 0))
        lead = [_mono(alg, ("T", 0), ("cT", 0)), _mono(alg, ("W", 0), ("cW", 0))]
        pin = [_mono(alg, ("T", 1), ("cW", 0))] if "pinned" in rest else []
        return alg, lead, pin, None
    alg = bundle("w32_brst", w32(None if "symbolic" in rest else -2),
                 w32_ghosts(modified=True))
    lead = [_mono(alg, ("T", 0), ("cT", 0)), _mono(alg, ("U", 0), ("cU", 0)),
            _mono(alg, ("Gp", 0), ("cp", 0)), _mono(alg, ("Gm", 0), ("cm", 0))]
    pin = [_mono(alg, ("U", 1), ("cT", 0)), _mono(alg, ("Gp", 0), ("cm", 0)),
           _mono(alg, ("Gm", 0), ("cp", 0))]
    return alg, lead, pin, 3


def _mono(alg, *factors):
    return Monomial(_sorted_factors(alg, factors))


def _eliminated(monkeypatch, name, conditions):
    """The equations that reach ``common_zeros`` (keys, values and order)
    and the derivation's outcome, with ``conditions`` building them."""
    seen = []
    common_zeros = brst.common_zeros

    def spy(equations, nunknown, params=()):
        seen.append([list(eq.items()) for eq in equations])
        return common_zeros(equations, nunknown, params)

    monkeypatch.setattr(brst, "common_zeros", spy)
    monkeypatch.setattr(brst, "_nilpotency_equations", conditions)
    alg, lead, pin, max_degree = _derive_case(name)
    q, rep = derive_brst(alg, lead, pinned=pin, max_degree=max_degree)
    (equations,) = seen
    return equations, (q.expr.terms if q else rep.message)


@pytest.mark.parametrize("name, outcome", [
    pytest.param("w3", "current is a family; free directions: (('bW', 1), "
                 "('cW', 0), ('cW', 1)) (pin them to zero to select a point)",
                 id="w3-current is a family"),
    ("w3 pinned", None),
    ("w3 pinned printed", None),
    ("w32 pinned", None),
    ("w32 symbolic pinned",
     "nilpotency system has no solution for generic values of c"),
])
def test_unordered_pairs_give_the_ordered_pair_equations(monkeypatch, name,
                                                         outcome):
    got, result = _eliminated(monkeypatch, name, brst._nilpotency_equations)
    want, want_result = _eliminated(monkeypatch, name, _ordered_pair_equations)
    assert got and got == want
    assert result == want_result
    if outcome is not None:
        assert result == outcome
    else:
        assert isinstance(result, dict)


# -- the pivot rule ----------------------------------------------------------


def _sparsest_rref(rows, ncols):
    """``linalg.rref`` under another pivot rule: the pivot of a column is
    the row with the fewest entries among those at or below the rank that
    hold it."""
    rows = [dict(r) for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        holding = [i for i in range(r, len(rows)) if col in rows[i]]
        if not holding:
            continue
        piv = min(holding, key=lambda i: len(rows[i]))
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = prow[col]
        for j, v in prow.items():
            prow[j] = v / inv
        for i, row in enumerate(rows):
            if i != r and col in row:
                f = -row[col]
                for j, v in prow.items():
                    _add_into(row, j, f * v)
        pivots.append(col)
    return rows[:len(pivots)], pivots


def _sparsest_pivots(monkeypatch):
    """Put ``_sparsest_rref`` in every module of the package that binds
    ``rref``."""
    modules = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "wbrst"
               and getattr(m, "rref", None) is linalg.rref]
    assert {brst, analysis} <= set(modules)
    for module in modules:
        monkeypatch.setattr(module, "rref", _sparsest_rref)


@pytest.mark.parametrize("command", [
    "cft brst w3 --symbolic-c --g1 symbolic --g2 symbolic",
    "cft brst w3 --symbolic-c --g1 1/3 --g2 2/5",
])
def test_golden_obstructions_do_not_depend_on_the_pivot_rule(monkeypatch,
                                                             command):
    # the obstruction is the normal form of pole 1 modulo total
    # derivatives, which any pivot rule reaches
    _sparsest_pivots(monkeypatch)
    assert run_command(command) == golden_path(command).read_text(
        encoding="utf-8")


@pytest.mark.parametrize("name", ["w3", "w3 pinned", "w3 pinned printed",
                                  "w32 pinned", "w32 symbolic pinned"])
def test_derive_equations_do_not_depend_on_the_pivot_rule(monkeypatch, name):
    want = _eliminated(monkeypatch, name, brst._nilpotency_equations)
    _sparsest_pivots(monkeypatch)
    assert _eliminated(monkeypatch, name, brst._nilpotency_equations) == want


def test_derive_takes_each_unordered_pair_once(monkeypatch):
    alg, lead, pin, _ = _derive_case("w3 pinned")
    ctx = alg.context()
    ope_mono = ctx.ope_mono
    calls, sizes = [], []

    def counted(m1, m2):
        if sys._getframe(1).f_code.co_name == "_nilpotency_equations":
            calls.append((m1, m2))
        return ope_mono(m1, m2)

    conditions = brst._nilpotency_equations

    def sized(ctx, members):
        sizes.append(len(members))
        return conditions(ctx, members)

    monkeypatch.setattr(ctx, "ope_mono", counted)
    monkeypatch.setattr(brst, "_nilpotency_equations", sized)
    q, rep = derive_brst(alg, lead, pinned=pin)
    assert q is not None, rep and rep.message
    (n,) = sizes
    assert len(calls) == len(set(calls)) == n * (n + 1) // 2
