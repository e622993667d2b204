"""Operator product engine: exchange formula, derivative rules,
normal-ordering identities, and Virasoro ground truths."""

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from wbrst.algebras import bundle, w3, w32, w3_ghosts
from wbrst.analysis import weight_basis
from wbrst.brst import brst_w3, brst_w32, nilpotency
from wbrst import engine
from wbrst.engine import OpeContext
from wbrst.fields import FieldExpr, Monomial, UNIT
from wbrst.parsing import parse_field_expr
from wbrst.scalars import RationalFunction


@pytest.fixture(scope="module")
def w3_ctx():
    return w3(c=100).context()


def _gen(ctx, name):
    return FieldExpr.generator(ctx.algebra, name)


def test_virasoro_self_product_numeric(w3_ctx):
    ctx = w3_ctx
    t = _gen(ctx, "T")
    poles = ctx.ope(t, t)
    assert set(poles) == {1, 2, 4}
    assert poles[4] == FieldExpr.unit(ctx.algebra).scaled(Fraction(100, 2))
    assert poles[2] == t.scaled(2)
    assert poles[1] == ctx.derivative(t)


def test_primary_product(w3_ctx):
    ctx = w3_ctx
    t, w = _gen(ctx, "T"), _gen(ctx, "W")
    poles = ctx.ope(t, w)
    assert set(poles) == {1, 2}
    assert poles[2] == w.scaled(3)
    assert poles[1] == ctx.derivative(w)


def test_flip_involution(w3_ctx):
    ctx = w3_ctx
    for names in (("T", "T"), ("T", "W"), ("W", "W")):
        a, b = (_gen(ctx, n) for n in names)
        poles = ctx.ope(a, b)
        p = a.parity() and b.parity()
        twice = ctx._flip(ctx._flip(poles, p, p), p, p)
        keys = set(poles) | set(twice)
        for n in keys:
            z = FieldExpr.zero(ctx.algebra)
            assert poles.get(n, z) == twice.get(n, z), (names, n)


def test_flip_matches_direct_evaluation(w3_ctx):
    # [W T]_n computed by the engine equals the exchange formula applied
    # to the stored [T W] poles
    ctx = w3_ctx
    t, w = _gen(ctx, "T"), _gen(ctx, "W")
    direct = ctx.ope(w, t)
    flipped = ctx._flip(ctx.ope(t, w), 0, 0)
    assert set(direct) == set(flipped)
    for n in direct:
        assert direct[n] == flipped[n], n


@pytest.mark.parametrize("make", [w3, w3_ghosts])
def test_derivative_rules_agree_with_the_exchange(make):
    # [D^a A D^b B] from the two derivative rules equals the exchange of
    # [D^b B D^a A], for every generator pair and a, b <= 3: the rules
    # for left and right derivatives are tied to each other through the
    # exchange formula
    alg = make()
    ctx = alg.context()
    for na in alg.names:
        for nb in alg.names:
            pa, pb = alg.decl(na).parity, alg.decl(nb).parity
            for a in range(4):
                x = ctx.derivative(FieldExpr.generator(alg, na), a)
                for b in range(4):
                    y = ctx.derivative(FieldExpr.generator(alg, nb), b)
                    assert ctx.ope(x, y) == ctx._flip(ctx.ope(y, x), pa, pb), \
                        (na, a, nb, b)


def test_ope_bilinear(w3_ctx):
    ctx = w3_ctx
    t, w = _gen(ctx, "T"), _gen(ctx, "W")
    x = t.scaled(3) + w.scaled(-2)
    lhs = ctx.ope(x, t)
    a, b = ctx.ope(t, t), ctx.ope(w, t)
    for n in set(lhs) | set(a) | set(b):
        z = FieldExpr.zero(ctx.algebra)
        want = a.get(n, z).scaled(3) + b.get(n, z).scaled(-2)
        assert lhs.get(n, z) == want, n


def test_left_derivative_rule(w3_ctx):
    # [A' B]_n = -(n-1) [A B]_{n-1}
    ctx = w3_ctx
    t, w = _gen(ctx, "T"), _gen(ctx, "W")
    base = ctx.ope(t, w)
    shifted = ctx.ope(ctx.derivative(t), w)
    z = FieldExpr.zero(ctx.algebra)
    for n in range(1, 8):
        assert shifted.get(n, z) == base.get(n - 1, z).scaled(-(n - 1)), n


def test_derivative_is_a_derivation(w3_ctx):
    ctx = w3_ctx
    t, w = _gen(ctx, "T"), _gen(ctx, "W")
    for a, b in ((t, t), (t, w), (w, w)):
        prod = ctx.normal_product(a, b)
        lhs = ctx.derivative(prod)
        rhs = (ctx.normal_product(ctx.derivative(a), b)
               + ctx.normal_product(a, ctx.derivative(b)))
        assert lhs == rhs


def test_reordering_identity(w3_ctx):
    # N(A,B) - (-1)^{|A||B|} N(B,A) = sum_l (-1)^{l-1}/l! d^l [A B]_l
    ctx = w3_ctx
    t, w = _gen(ctx, "T"), _gen(ctx, "W")
    tw = ctx.normal_product(t, w)
    wt = ctx.normal_product(w, t)
    corr = FieldExpr.zero(ctx.algebra)
    for l, e in ctx.ope(t, w).items():
        k = Fraction((-1) ** (l - 1), factorial(l))
        corr = corr + ctx.derivative(e, l).scaled(k)
    assert tw - wt == corr


def test_reordering_identity_fermionic():
    # same identity for an odd pair, where the exchange sign is -1
    alg = w3_ghosts(g1=0, g2=0)
    ctx = alg.context()
    b = FieldExpr.generator(alg, "bT")
    c = FieldExpr.generator(alg, "cT")
    bc = ctx.normal_product(b, c)
    cb = ctx.normal_product(c, b)
    corr = FieldExpr.zero(alg)
    for l, e in ctx.ope(b, c).items():
        k = Fraction((-1) ** (l - 1), factorial(l))
        corr = corr + ctx.derivative(e, l).scaled(k)
    assert bc + cb == corr


def test_identical_fermion_square_is_half_correction():
    alg = w3_ghosts(g1=0, g2=0)
    ctx = alg.context()
    b = FieldExpr.generator(alg, "bT")
    sq = ctx.normal_product(b, b)
    corr = FieldExpr.zero(alg)
    for l, e in ctx.ope(b, b).items():
        k = Fraction((-1) ** (l - 1), 2 * factorial(l))
        corr = corr + ctx.derivative(e, l).scaled(k)
    assert sq == corr


def test_quasi_associativity_consistency(w3_ctx):
    # both association orders of a triple product reduce to the same
    # canonical form once the correction terms are added
    ctx = w3_ctx
    t = _gen(ctx, "T")
    tt = ctx.normal_product(t, t)
    left = ctx.normal_product(tt, t)
    right = ctx.normal_product(t, tt)
    corr = FieldExpr.zero(ctx.algebra)
    # N(N(T,T),T) - N(T,N(T,T)) from the stored identities must agree
    # with re-deriving each side through the engine
    diff = left - right
    # the difference is a concrete field, check it against an independent
    # evaluation: reorder N(T,TT) using the reordering identity
    for l, e in ctx.ope(tt, t).items():
        k = Fraction((-1) ** (l - 1), factorial(l))
        corr = corr + ctx.derivative(e, l).scaled(k)
    reordered = ctx.normal_product(t, tt) + corr
    assert left == reordered
    assert diff == corr


def test_ope_weight_grading(w3_ctx):
    ctx = w3_ctx
    t, w = _gen(ctx, "T"), _gen(ctx, "W")
    for a, b in ((t, w), (w, w)):
        wa, wb = a.weight(), b.weight()
        for n, e in ctx.ope(a, b).items():
            assert e.weight() == wa + wb - n, n


def test_symbolic_central_charge():
    alg = w3(c=None)
    ctx = alg.context()
    t = FieldExpr.generator(alg, "T")
    top = ctx.ope(t, t)[4]
    assert set(top.terms) == {UNIT}
    assert top.terms[UNIT] == RationalFunction.var("c") / 2


def test_w32_self_product():
    alg = w32(c=None)
    ctx = alg.context()
    gp = FieldExpr.generator(alg, "Gp")
    gm = FieldExpr.generator(alg, "Gm")
    poles = ctx.ope(gp, gm)
    assert max(poles) == 3
    # the spin-3/2 currents are even generators here, so the opposite
    # order follows from the bosonic exchange formula
    back = ctx.ope(gm, gp)
    flipped = ctx._flip(poles, alg.decl("Gm").parity, alg.decl("Gp").parity)
    assert set(back) == set(flipped)
    for n in back:
        assert back[n] == flipped[n], n


def test_composite_ope_against_wick(w3_ctx):
    # [T (TT)]_4 contains the central term 2 * (c/2) T + ... ; rather than
    # hand-expanding, check the Wick route equals the flip route
    ctx = w3_ctx
    t = _gen(ctx, "T")
    tt = ctx.normal_product(t, t)
    fwd = ctx.ope(t, tt)
    back = ctx.ope(tt, t)
    flipped = ctx._flip(fwd, 0, 0)
    z = FieldExpr.zero(ctx.algebra)
    for n in set(back) | set(flipped):
        assert back.get(n, z) == flipped.get(n, z), n


def test_parse_and_engine_agree(w3_ctx):
    ctx = w3_ctx
    alg = ctx.algebra
    t = _gen(ctx, "T")
    assert parse_field_expr("N(T, T)", alg, ctx=ctx) == ctx.normal_product(t, t)
    assert parse_field_expr("D(T)", alg, ctx=ctx) == ctx.derivative(t)
    assert parse_field_expr("2 * T + N(T, T)", alg, ctx=ctx) == (
        t.scaled(2) + ctx.normal_product(t, t))
    assert parse_field_expr("D2(T)", alg, ctx=ctx) == ctx.derivative(t, 2)


def _snapshot(result):
    if isinstance(result, dict):
        return {n: dict(e.terms) for n, e in result.items()}
    return dict(result.terms)


def _shared_memo_calls(ctx):
    t, w = _gen(ctx, "T"), _gen(ctx, "W")
    tt = ctx.normal_product(t, t)
    dt = ctx.derivative(t)
    return [(ctx.derivative, (tt, 2)), (ctx.normal_product, (dt, t)),
            (ctx.normal_product, (tt, w)), (ctx.normal_product, (w, tt)),
            (ctx.derivative, (w, 1)), (ctx.ope, (tt, w)),
            (ctx.ope, (w, tt)), (ctx.ope, (w, w))]


def test_later_calls_leave_earlier_results_unchanged():
    # memoized results are shared, so no accumulation may write into one:
    # each result equals its own second call, its value when returned,
    # and the same call in a fresh context
    ctx = w3(c=None).context()
    calls = _shared_memo_calls(ctx)
    first = []
    for fn, args in calls:
        result = fn(*args)
        first.append((result, _snapshot(result)))
    for i, ((fn, args), (result, snap)) in enumerate(zip(calls, first)):
        assert fn(*args) == result
        fresh_fn, fresh_args = _shared_memo_calls(w3(c=None).context())[i]
        assert _snapshot(fresh_fn(*fresh_args)) == snap, i
    for result, snap in first:
        assert _snapshot(result) == snap


# -- the self-product from half its pairs ----------------------------------


def _ordered_double_sum(ctx, x):
    """[x x] as the plain sum of ope_mono over every ordered monomial pair."""
    out = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in x.terms.items():
            for n, e in ctx.ope_mono(m1, m2).items():
                out[n] = out.get(n, FieldExpr.zero(ctx.algebra)) \
                    + e.scaled(c1 * c2)
    return {n: e for n, e in out.items() if not e.is_zero}


@pytest.mark.parametrize("make", [
    lambda: brst_w3(0, 0, c=100),
    lambda: brst_w3(None, None, c=None),
    lambda: brst_w32(c=None),
], ids=["w3_numeric", "w3_symbolic", "w32_symbolic"])
def test_brst_self_product_equals_ordered_double_sum(make):
    q = make()
    assert q.expr.parity() == 1
    assert q.self_product == _ordered_double_sum(q.context, q.expr)
    # computed once per current
    assert q.self_product is q.self_product


@lru_cache(maxsize=None)
def _brst_algebra(family):
    q = brst_w3(0, 0, c=100) if family == "w3" else brst_w32(c=-2)
    return q.algebra


@st.composite
def _homogeneous_sums(draw):
    family, weight, parity, ghost = draw(st.sampled_from([
        ("w3", 1, 1, 1), ("w3", 0, 0, 2), ("w3", 2, 0, 0),
        ("w32", Fraction(1, 2), 1, 1), ("w32", 1, 0, 0)]))
    alg = _brst_algebra(family)
    basis = weight_basis(alg, weight, parity=parity, ghost=ghost)
    monos = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=4,
                          unique=True))
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                           min_size=len(monos), max_size=len(monos)))
    return FieldExpr(alg, {m: RationalFunction.const(k)
                           for m, k in zip(monos, coeffs)})


@settings(max_examples=25, deadline=None)
@given(_homogeneous_sums())
def test_homogeneous_self_product_equals_ordered_double_sum(x):
    ctx = x.algebra.context()
    assert x.parity() is not None
    assert ctx.ope(x, x) == _ordered_double_sum(ctx, x)


# -- products with nothing to contract --------------------------------------


class _ContractingEverywhere(OpeContext):
    """A reference context that claims every generator pair contracts, so
    it never takes the no-contraction shortcut of ``ope_mono``."""

    def _contracts(self, m1, m2):
        return bool(m1.factors) and bool(m2.factors)


def _assert_same_memos(ctx, ref):
    """Every entry the two contexts both memoized is the same."""
    for name in ("_ope_memo", "_nprod_memo", "_deriv_memo"):
        mine, theirs = getattr(ctx, name), getattr(ref, name)
        shared = mine.keys() & theirs.keys()
        assert shared, name
        for key in shared:
            assert mine[key] == theirs[key], (name, key)


@pytest.mark.parametrize("make", [
    lambda: brst_w3(0, 0, c=100),
    lambda: brst_w3(None, None, c=None),
    lambda: brst_w32(c=-2),
    lambda: brst_w32(c=None),
], ids=["w3_numeric", "w3_symbolic", "w32_numeric", "w32_symbolic"])
def test_no_contraction_shortcut_keeps_the_self_product(make):
    q = make()
    ref = _ContractingEverywhere(q.algebra)
    assert ref.ope(q.expr, q.expr) == q.self_product
    _assert_same_memos(q.context, ref)


def test_no_contraction_shortcut_keeps_the_derivation_pairs():
    # every member of the W3 derivation lies in this slice
    alg = bundle("w3_brst", w3(100), w3_ghosts(0, 0))
    basis = weight_basis(alg, 1, parity=1, ghost=1)
    ctx, ref = OpeContext(alg), _ContractingEverywhere(alg)
    for m1 in basis:
        for m2 in basis:
            assert ctx.ope_mono(m1, m2) == ref.ope_mono(m1, m2), (m1, m2)
    _assert_same_memos(ctx, ref)


def test_self_product_skips_products_with_nothing_to_contract():
    q = brst_w3(c=100)
    nilpotency(q)
    # 891 entries when every product is expanded by the rules
    assert len(q.context._ope_memo) == 484


# -- expressions the engine builds without copying --------------------------


def _memoized_exprs(ctx):
    """Every FieldExpr held by a memo of ``ctx``."""
    for poles in ctx._ope_memo.values():
        assert all(not e.is_zero for e in poles.values())
        yield from poles.values()
    yield from ctx._nprod_memo.values()
    yield from ctx._deriv_memo.values()


@pytest.mark.parametrize("make, numeric",
                         [(lambda: brst_w3(c=100), True), (brst_w32, False)],
                         ids=["w3", "w32"])
def test_memoized_expressions_hold_no_zero_coefficient(make, numeric):
    q = make()
    nilpotency(q)
    exprs = list(_memoized_exprs(q.context))
    assert len(exprs) > 500
    for e in exprs:
        assert isinstance(e, FieldExpr) and e.algebra is q.algebra
        assert all(v for v in e.terms.values())
        for v in e.terms.values():
            # at a numeric c every coefficient is a canonical constant:
            # coprime ints, the denominator positive
            assert v.is_constant or not numeric
            if v.is_constant:
                assert type(v._n) is int and type(v._d) is int
                assert v._d > 0 and gcd(v._n, v._d) == 1


@pytest.mark.parametrize("g1, g2, c, sizes, fuel", [
    (0, 0, 100, (484, 391, 85), 2314),
    (None, None, None, (1077, 834, 104), 7731),
])
def test_self_product_rewrites_as_recorded(g1, g2, c, sizes, fuel):
    # the memo sizes after building the current and squaring it, and the
    # fuel of the square, the terms its rules add into their sums: a
    # change to how the engine stores its data must leave the work it
    # does as it is
    q = brst_w3(g1, g2, c=c)
    q.self_product
    ctx = q.context
    assert tuple(len(getattr(ctx, name)) for name in (
        "_ope_memo", "_nprod_memo", "_deriv_memo")) == sizes
    assert ctx._fuel == fuel


def test_a_refused_call_leaves_no_memos(monkeypatch):
    # memo hits spend no fuel: were the memos of a refused call kept, a
    # retry on the same context would spend less and, after a few, return
    monkeypatch.setattr(engine, "MAX_FUEL", 30_000)
    alg = w3(100)
    ctx = alg.context()
    x = parse_field_expr("N(W,N(W,N(W,N(W,T))))", alg)
    t = FieldExpr.generator(alg, "T")
    for _ in range(6):
        with pytest.raises(engine.EngineError, match="fuel exhausted"):
            ctx.ope(x, t)
        assert not (ctx._ope_memo or ctx._nprod_memo or ctx._deriv_memo)


def test_monomial_hash_is_cached_and_immutable():
    a = Monomial((("T", 0), ("W", 1)))
    b = Monomial([("T", 0), ("W", 1)])
    assert a == b and a is not b and hash(a) == hash(b)
    assert hash(a) == hash(a.factors) and hash(UNIT) == hash(())
    assert a != Monomial((("W", 1), ("T", 0)))
    for name in ("factors", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, ())
    assert a.factors == (("T", 0), ("W", 1)) and hash(a) == hash(b)
