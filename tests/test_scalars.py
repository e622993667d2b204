"""Exact scalar layer: sparse polynomials and rational functions."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wbrst import scalars
from wbrst.scalars import (MultiPoly, PoleError, RationalFunction, RF_ONE,
                           RF_ZERO, format_poly, format_rational, param_index,
                           param_names, rational_roots, rf)
from wbrst.parsing import parse_coefficient

C = RationalFunction.var("c")
G1 = RationalFunction.var("g1")


def test_poly_construction_strips_trailing_zeros():
    i = param_index("c")
    key_padded = tuple([0] * i + [2] + [0] * 3)
    p = MultiPoly({key_padded: Fraction(1)})
    q = MultiPoly.var("c") * MultiPoly.var("c")
    assert p == q
    assert set(p.terms) == set(q.terms)


def test_rational_normalization():
    x = (C * C - RF_ONE) / (C - RF_ONE)
    assert x == C + RF_ONE
    y = RF_ONE / (RF_ZERO - C)
    # denominator sign is normalized into the numerator
    assert y.den.leading_coeff() > 0


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
    assert rational_roots(p.num) == {Fraction(100), Fraction(-1, 2)}
    assert rational_roots((C * C + RF_ONE).num) == set()


def test_format_round_trip():
    x = (C * C - rf("3/7") * G1) / (C + rf(5))
    assert parse_coefficient(format_rational(x)) == x
    assert parse_coefficient(format_poly(x.num)) == RationalFunction(
        x.num, MultiPoly.const(1))


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
    p = MultiPoly.var("c").scale(Fraction(x)) + MultiPoly.const(y)
    q = MultiPoly.var("g1")
    for _ in range(e):
        q = q * MultiPoly.var("c")
    assert p * q == q * p
    assert (p + q) - q == p
    assert p * (q + q) == p * q + p * q


# -- cancellation against sympy.cancel -------------------------------------


def _symbols():
    return [sympy.Symbol(n) for n in param_names()]


def _to_sympy(p: MultiPoly):
    syms = _symbols()
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(s ** k for s, k in zip(syms, e)))
                       for e, c in p.terms.items()))


def _reference(num: MultiPoly, den: MultiPoly) -> RationalFunction:
    """num/den cancelled by sympy.cancel, then put in the canonical form
    (joint content 1, positive leading denominator coefficient in
    graded-lexicographic order) by hand."""
    from math import gcd, lcm
    syms = _symbols()
    n, d = sympy.fraction(sympy.cancel(_to_sympy(num) / _to_sympy(den)))
    pn = sympy.Poly(n, *syms, domain="QQ")
    pd = sympy.Poly(d, *syms, domain="QQ")
    coeffs = [Fraction(int(q.p), int(q.q))
              for q in pn.coeffs() + pd.coeffs() if q]
    content = Fraction(gcd(*(abs(q.numerator) for q in coeffs)),
                       lcm(*(q.denominator for q in coeffs)))
    lead = pd.LC(order="grlex")
    factor = content if lead > 0 else -content

    def poly(p):
        return MultiPoly({e: Fraction(int(q.p), int(q.q)) / factor
                          for e, q in p.terms() if q})
    return RationalFunction(poly(pn), poly(pd), _normalized=True)


_exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
_polys = st.dictionaries(_exps, st.integers(-3, 3), min_size=1,
                         max_size=3).map(MultiPoly)
_nonzero_polys = _polys.filter(lambda p: not p.is_zero)


@settings(max_examples=60, deadline=None)
@given(_nonzero_polys, _polys, _nonzero_polys)
def test_cancellation_matches_sympy_cancel(shared, a, b):
    # (shared * a) / (shared * b): a common factor to cancel
    x = RationalFunction(shared * a, shared * b)
    ref = _reference(shared * a, shared * b)
    assert x == ref
    assert format_rational(x) == format_rational(ref)


# -- the constant slot -----------------------------------------------------


def _check_constant_slot(x: RationalFunction):
    assert x.is_constant == (x.num.is_constant and x.den.is_constant)
    if x.is_constant:
        assert x.constant_value() == (x.num.constant_value()
                                      / x.den.constant_value())
    assert x.is_zero == (x.is_constant and x.constant_value() == 0)


_rfs = st.one_of(
    _fracs.map(rf),
    st.tuples(_polys, _nonzero_polys).map(lambda t: RationalFunction(*t)))
_points = st.fixed_dictionaries({"c": _fracs, "g1": _fracs, "g2": _fracs})


@settings(max_examples=80, deadline=None)
@given(_rfs, _rfs, _points)
def test_every_operator_keeps_the_constant_slot(x, y, point):
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
    results += [parse_coefficient(format_rational(v)) for v in list(results)]
    for v in results:
        _check_constant_slot(v)


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


# -- the parameter universe and the cancel cache ---------------------------


def test_new_parameter_widens_the_ring():
    old = (C * C - G1) / (C + RF_ONE)
    param_index("scalar_probe")
    t = RationalFunction.var("scalar_probe")
    assert scalars._ring().ngens == len(param_names())
    assert "scalar_probe" in [str(s) for s in scalars._ring().symbols]
    mixed = (old * (t - G1)) / (t - G1)
    assert mixed == old
    y = ((t * C - RF_ONE) * (t + G1)) / ((t * C - RF_ONE) * (G1 - rf(2)))
    assert y == (t + G1) / (G1 - rf(2))
    num = (t * C - RF_ONE) * (t + G1) * old
    den = (t * C - RF_ONE) * (C + G1)
    x = num / den
    assert x == _reference(num.num * den.den, num.den * den.num)
    assert format_rational(x) == format_rational(
        _reference(num.num * den.den, num.den * den.num))


def test_parameter_names_are_taken_literally():
    # param_index takes any string as a name, ':' and ',' included, which
    # sympy.symbols would read as a range or a list
    for name in (":", ","):
        param_index(name)
        t = RationalFunction.var(name)
        assert (C * t + t) / (t * G1) == (C + RF_ONE) / G1
        assert scalars._ring().ngens == len(param_names())


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
