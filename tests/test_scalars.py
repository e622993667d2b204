"""Exact scalar layer: rational functions over per-value rings."""

import ast
import pathlib
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wbrst import scalars
from wbrst.scalars import (PoleError, RationalFunction, RF_ONE, RF_ZERO,
                           ScalarError, format_rational, rational_roots, rf)
from wbrst.parsing import parse_algebra_file, parse_coefficient

C = RationalFunction.var("c")
G1 = RationalFunction.var("g1")
G2 = RationalFunction.var("g2")


def _names(x: RationalFunction):
    return tuple(str(s) for s in x.num.ring.symbols)


def _used(x: RationalFunction):
    """The names that occur in the numerator or denominator of ``x``."""
    return tuple(str(s) for i, s in enumerate(x.num.ring.symbols)
                 if any(m[i] for m in (*x.num, *x.den)))


def test_ring_holds_exactly_the_names_used():
    assert _names(C * C) == ("c",)
    assert _names(G1 * C) == _names(C * G1) == ("c", "g1")
    # a name the result no longer uses is dropped from its ring
    x = (C * G1 + G2) * G1 - G2 * G1
    assert x == C * G1 * G1 and _names(x) == ("c", "g1")
    assert x.num.ring is (C * G1 * G1).num.ring
    assert _names((G2 * C + G1) / (G2 * C + G1)) == ()


def test_rational_normalization():
    x = (C * C - RF_ONE) / (C - RF_ONE)
    assert x == C + RF_ONE
    y = RF_ONE / (RF_ZERO - C)
    # denominator sign is normalized into the numerator
    assert y.den.LC > 0


def test_rational_arithmetic_field_laws():
    a = (C + RF_ONE) / (C - rf(2))
    b = G1 * C - rf("1/3")
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * b == b * a
    assert a - a == RF_ZERO
    assert (a / a) == RF_ONE


def test_substitute_and_pole_error():
    x = (C + RF_ONE) / (C - rf(2))
    assert x.substitute({"c": Fraction(3)}) == rf(4)
    with pytest.raises(PoleError):
        x.substitute({"c": Fraction(2)})
    # partial substitution keeps the other parameter
    y = C * G1
    assert y.substitute({"c": Fraction(2)}) == G1 + G1


def test_rational_roots_univariate():
    # (c - 100)(2c + 1)
    p = (C - rf(100)) * (C + rf("1/2")) * rf(2)
    assert rational_roots(p, "c") == {Fraction(100), Fraction(-1, 2)}
    assert rational_roots(C * C + RF_ONE, "c") == set()
    assert rational_roots(C * (C - 3) / (C + 1), "c") == {0, 3}
    assert rational_roots(rf(5), "c") == rational_roots(G1, "c") == set()
    with pytest.raises(ScalarError):
        rational_roots(RF_ZERO, "c")


def test_rational_roots_vanish_in_the_other_names():
    # roots in c at which the numerator vanishes for every g1 and g2
    p = (C - 1) * ((C - 2) * G1 + G2 * G2) * (C + rf("1/3"))
    assert rational_roots(p, "c") == {1, Fraction(-1, 3)}
    assert rational_roots(p, "g2") == set()


def test_rational_roots_of_a_large_constant_term():
    # trial division over the divisors of the constant term cannot finish
    big = 10**30 + 57
    assert rational_roots((C - big) * (C + 3), "c") == {big, -3}


def test_format_round_trip():
    x = (C * C - rf("3/7") * G1) / (C + rf(5))
    assert parse_coefficient(format_rational(x)) == x
    # names print in sorted order, terms by descending degree
    y = rf("zeta*b + a^2 - 3")
    assert format_rational(y) == "a^2+b*zeta-3"
    assert parse_coefficient(format_rational(y)) == y


_fracs = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 8))


@settings(max_examples=60, deadline=None)
@given(_fracs, _fracs, _fracs)
def test_constant_embedding_matches_fractions(a, b, k):
    ra, rb = rf(a), rf(b)
    assert (ra + rb).constant_value() == a + b
    assert (ra * rb).constant_value() == a * b
    assert (ra - rb * rf(k)).constant_value() == a - b * k


@settings(max_examples=30, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 3))
def test_poly_ring_laws(x, y, e):
    p = C * x + y
    q = G1
    for _ in range(e):
        q = q * C
    assert p * q == q * p
    assert (p + q) - q == p
    assert p * (q + q) == p * q + p * q


# -- cancellation against sympy.cancel -------------------------------------

_SYMBOLS = sympy.symbols("c g1 g2")


def _terms(x):
    """A polynomial of a value's ring as {((name, exponent), ...): Fraction},
    with only the nonzero exponents."""
    names = [str(s) for s in x.ring.symbols]
    return {tuple((n, k) for n, k in zip(names, m) if k):
            Fraction(int(c.numerator), int(c.denominator))
            for m, c in x.items()}


def _reference(num: dict, den: dict):
    """The canonical numerator and denominator of num/den, two polynomials
    given as {(e_c, e_g1, e_g2): coefficient}, from sympy.cancel and the
    canonical form put in by hand: integer coefficients of joint content 1,
    positive leading denominator coefficient in graded-lexicographic
    order."""
    from math import gcd, lcm

    def expr(p):
        return sympy.Add(*(k * sympy.Mul(*(s ** e for s, e in zip(_SYMBOLS, m)))
                           for m, k in p.items()))
    n, d = sympy.fraction(sympy.cancel(expr(num) / expr(den)))
    pn = sympy.Poly(n, *_SYMBOLS, domain="QQ")
    pd = sympy.Poly(d, *_SYMBOLS, domain="QQ")
    coeffs = [Fraction(int(q.p), int(q.q))
              for q in pn.coeffs() + pd.coeffs() if q]
    content = Fraction(gcd(*(abs(q.numerator) for q in coeffs)),
                       lcm(*(q.denominator for q in coeffs)))
    factor = content if pd.LC(order="grlex") > 0 else -content

    def terms(p):
        return {tuple((str(s), e) for s, e in zip(_SYMBOLS, m) if e):
                Fraction(int(q.p), int(q.q)) / factor
                for m, q in p.terms() if q}
    return terms(pn), terms(pd)


def _value(p: dict) -> RationalFunction:
    """The polynomial {(e_c, e_g1, e_g2): coefficient} as a value."""
    out = RF_ZERO
    for m, k in p.items():
        term = rf(k)
        for v, e in zip((C, G1, G2), m):
            for _ in range(e):
                term = term * v
        out = out + term
    return out


def _product(p: dict, q: dict) -> dict:
    out = {}
    for m1, k1 in p.items():
        for m2, k2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + k1 * k2
    return {m: k for m, k in out.items() if k}


def _check_against_sympy(x: RationalFunction, num: dict, den: dict):
    ref_num, ref_den = _reference(num, den)
    assert (_terms(x.num), _terms(x.den)) == (ref_num, ref_den)
    # the ring is exactly the names the reference uses, sorted
    used = {n for t in (*ref_num, *ref_den) for n, _ in t}
    assert _names(x) == tuple(sorted(used))


_exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
_polys = st.dictionaries(_exps, st.integers(-3, 3).filter(bool), min_size=1,
                         max_size=3)


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, _polys)
def test_cancellation_matches_sympy_cancel(shared, a, b):
    # (shared * a) / (shared * b): a common factor to cancel
    num, den = _product(shared, a), _product(shared, b)
    x = _value(num) / _value(den)
    _check_against_sympy(x, num, den)
    assert parse_coefficient(format_rational(x)) == x


# -- the constant slot and the ring ----------------------------------------


def _check_canonical(x: RationalFunction):
    assert x.is_constant == (x.num.is_ground and x.den.is_ground)
    if x.is_constant:
        assert x.constant_value() == (Fraction(int(x.num.LC.numerator))
                                      / int(x.den.LC.numerator))
    assert x.is_zero == (x.is_constant and x.constant_value() == 0)
    assert x.num.ring is x.den.ring and _names(x) == _used(x)
    assert list(_names(x)) == sorted(_names(x))


_rfs = st.one_of(
    _fracs.map(rf),
    st.tuples(_polys, _polys).map(lambda t: _value(t[0]) / _value(t[1])))
_points = st.fixed_dictionaries({"c": _fracs, "g1": _fracs, "g2": _fracs})
_partial = st.dictionaries(st.sampled_from(("c", "g1", "g2", "zzz")), _fracs)


@settings(max_examples=80, deadline=None)
@given(_rfs, _rfs, _points, _partial)
def test_every_operator_keeps_the_constant_slot(x, y, point, partial):
    results = [x, y, x + y, x - y, x * y, -x, x + 1, 2 - x, x * 3,
               Fraction(1, 2) * y, x + Fraction(1, 3)]
    if not y.is_zero:
        results += [x / y, y.inverse(), 5 / y]
    for v in (x, y):
        try:
            results.append(v.substitute(point))
        except PoleError:
            pass
        else:
            assert results[-1].is_constant
        try:
            results.append(v.substitute(partial))
        except PoleError:
            pass
    results += [parse_coefficient(format_rational(v)) for v in list(results)]
    for v in results:
        _check_canonical(v)


# -- products with a unit factor --------------------------------------------


def _general_product(x: RationalFunction, u: int) -> RationalFunction:
    """x * u for u = +-1 by the path of any other constant factor."""
    if x.is_constant:
        return RationalFunction.const(x.constant_value() * u)
    return scalars._ratio(x.num.mul_ground(scalars.QQ(u)), x.den)


_UNIT_CASES = [
    (x, unit_type(u), u)
    for x in (rf(0), rf(1), rf(-1), rf(Fraction(7, 2)), C,
              (C + RF_ONE) / (G1 - 2), RF_ONE - C * G2)
    for unit_type in (int, Fraction, rf) for u in (1, -1)
] + [(x, rf(u), u) for x in (3, Fraction(-3, 4)) for u in (1, -1)]


@pytest.mark.parametrize("x, unit, u", _UNIT_CASES, ids=repr)
def test_unit_factor_products_match_the_general_path(x, unit, u):
    expected = _general_product(rf(x), u)
    for got in (x * unit, unit * x):
        assert isinstance(got, RationalFunction)
        assert got == expected
        assert hash(got) == hash(expected)
        assert format_rational(got) == format_rational(expected)
        _check_canonical(got)
    if u == 1 and not rf(x).is_constant:
        # the fast path returns the operand itself
        assert x * unit is x and unit * x is x


# -- the sparse accumulate helper -------------------------------------------


@settings(max_examples=80, deadline=None)
@given(_rfs)
def test_truth_value_means_nonzero(x):
    assert bool(x) == (not x.is_zero)
    assert bool(x - x) is False


_values = st.one_of(st.integers(-2, 2), _fracs, _rfs)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), _values), max_size=12))
def test_add_into_is_a_sparse_per_key_sum(items):
    acc = {}
    for key, value in items:
        scalars._add_into(acc, key, value)
    expected = {}
    for key, value in items:
        expected[key] = expected.get(key, 0) + value
    assert acc == {k: v for k, v in expected.items() if v != 0}
    assert all(acc.values())


# -- per-value rings and the cancel cache ----------------------------------


def test_new_parameter_widens_the_ring():
    old = (C * C - G1) / (C + RF_ONE)
    t = RationalFunction.var("scalar_probe")
    mixed = old * (t - G1)
    assert _names(mixed) == ("c", "g1", "scalar_probe")
    # dividing the new name out drops it again: one ring per value
    assert mixed / (t - G1) == old
    assert (mixed / (t - G1)).num.ring is old.num.ring
    y = ((t * C - RF_ONE) * (t + G1)) / ((t * C - RF_ONE) * (G1 - rf(2)))
    assert y == (t + G1) / (G1 - rf(2))
    assert _names(y) == ("g1", "scalar_probe")
    # (t*c - 1)(t + g1)(c^2 - g1) / ((t*c - 1)(c + g1)(c + 1)), with t as
    # the third exponent so that sympy's reference sees three names
    shared = {(1, 0, 1): 1, (0, 0, 0): -1}
    num = _product(_product(shared, {(0, 0, 1): 1, (0, 1, 0): 1}),
                   {(2, 0, 0): 1, (0, 1, 0): -1})
    den = _product(_product(shared, {(1, 0, 0): 1, (0, 1, 0): 1}),
                   {(1, 0, 0): 1, (0, 0, 0): 1})
    x = ((t * C - RF_ONE) * (t + G1) * old) / ((t * C - RF_ONE) * (C + G1))
    ref_num, ref_den = _reference(num, den)

    def as_t(terms):
        return {tuple(("scalar_probe" if n == "g2" else n, e) for n, e in m):
                k for m, k in terms.items()}
    assert (_terms(x.num), _terms(x.den)) == (as_t(ref_num), as_t(ref_den))


def test_parameter_names_are_taken_literally():
    # a name is any string, ':' and ',' included, which sympy.symbols would
    # read as a range or a list
    for name in (":", ","):
        t = RationalFunction.var(name)
        assert _names(t) == (name,)
        x = (C * t + t) / (t * G1)
        assert x == (C + RF_ONE) / G1 and _names(x) == ("c", "g1")
        assert _names(C * t) == tuple(sorted(("c", name)))
    assert _names(C * G1) == ("c", "g1")


def test_no_hidden_state_between_computations():
    def probe():
        x = (C * C * G2 - G1) / (rf(3) * G1 + C)
        return format_rational(x), _names(x), hash(x)
    before = probe()
    parse_algebra_file("algebra user\nparam a\nfield T weight=2\n"
                       "ope T T : 4 -> (a/2)*one ; 2 -> 2*T ; 1 -> D(T)\n")
    colon = RationalFunction.var(":")
    bound = (C * C + colon * G1).substitute({"zzz": 1, "c": 2})
    assert bound == rf(4) + colon * G1
    assert probe() == before


def test_cancel_cache_is_bounded():
    cache = scalars._cancel_cached
    bound = cache.cache_info().maxsize
    assert bound is not None
    expected = (G1 + RF_ONE) / (G1 - RF_ONE)
    cache.cache_clear()
    for k in range(bound + 10):
        x = ((C + rf(k)) * (G1 + RF_ONE)) / ((C + rf(k)) * (G1 - RF_ONE))
        assert x == expected
    assert cache.cache_info().currsize == bound
    # the first entries were evicted; computing them again is still right
    x = ((C + rf(0)) * (G1 + RF_ONE)) / ((C + rf(0)) * (G1 - RF_ONE))
    assert x == expected


def test_constants_equal_and_hash_alike_however_made():
    made = ((C + RF_ONE) / (C + RF_ONE), RationalFunction.const(1), RF_ONE,
            rf(Fraction(3, 3)))
    assert made[0].is_constant
    for x in made:
        assert x == made[0] and x == 1 and x == Fraction(1)
        assert hash(x) == hash(made[0])
        assert x.num == 1 and x.den == 1 and _names(x) == ()
    half = RationalFunction.const(Fraction(-1, 2))
    assert half == (RF_ONE - C) / (C + C - RF_ONE - RF_ONE)
    assert hash(half) == hash((RF_ONE - C) / (C + C - RF_ONE - RF_ONE))
    assert format_rational(half) == "-1/2"
    assert half != C and C != half and RF_ZERO == 0 and not RF_ZERO


def test_only_scalars_imports_sympy():
    # the scalar format stays behind one module
    src = pathlib.Path(scalars.__file__).parent
    importers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            if any(m == "sympy" or m.startswith("sympy.") for m in mods):
                importers.add(path.name)
    assert importers == {"scalars.py"}
