"""Exact scalar arithmetic: rational functions in named parameters.

Coefficients everywhere in this package are ``RationalFunction`` values.  A
nonconstant value is a ratio of two ``PolyElement``s of a ``sympy.polys``
ring over QQ in graded-lexicographic order.  The ring's generators are
exactly the names the value uses, sorted, and one ring is built per name
tuple.  An operation on values over different names maps them into the
ring over the sorted union of their names, and its result drops the names
it no longer uses.  So equal values share one ring and one hash, and the
names one computation uses never change the ring, the cache keys or the
print order of another's values.

Canonical form of a ratio: numerator and denominator are coprime polynomials
with integer coefficients of joint content 1, and the denominator's leading
coefficient (graded-lexicographic order) is positive.  Zero is 0/1.

Cancellation of two nonconstant polynomials takes their ring cofactors by
the gcd, and a bounded cache keeps the results.  The gcd is unique up to a
unit, so the canonical form does not depend on how it was found.  A constant
combined with a nonconstant needs no gcd, because a canonical numerator and
denominator are already coprime.  A constant ``RationalFunction`` keeps its
value as one ``Fraction``: arithmetic, zero tests, equality and hashing of
constants read only that value.

Products skip the trivial cases before any arithmetic: a factor 1 returns
the other operand, a factor -1 its negation, and a factor 0 returns zero.
Most products of the operator-product engine have a unit factor: exchange
signs, and the coefficient 1 of generators and of reordered monomials.

Every exact sparse sum of the package (field sums and operator-product
poles, Omega coefficients, sparse matrices, mode-oracle columns,
substitution) accumulates through the one helper ``_add_into``, which drops
a key whose sum is zero.  ``int``, ``Fraction`` and ``RationalFunction``
share its zero test: the truth value, which means nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm

from sympy import Symbol
from sympy.polys.domains import QQ
from sympy.polys.orderings import grlex
from sympy.polys.rings import PolyRing

from .errors import WbrstError

# polynomial ring over QQ per sorted name tuple
_RINGS: dict[tuple, PolyRing] = {}


class ScalarError(WbrstError):
    pass


class PoleError(ScalarError):
    """Substitution hit a zero of a denominator."""


def _add_into(dst: dict, key, value) -> None:
    """``dst[key] += value``, dropping the key when the sum is zero (a zero
    value for a new key adds nothing).  Write only into a dict the caller
    has just made: memoized results share theirs."""
    cur = dst.get(key)
    if cur is None:
        if value:
            dst[key] = value
    elif value := cur + value:
        dst[key] = value
    else:
        del dst[key]


def _ring(names: tuple) -> PolyRing:
    """The polynomial ring over ``names``, which are sorted."""
    r = _RINGS.get(names)
    if r is None:
        # Symbols, not strings: sympy would parse ':' or ',' in a name
        r = _RINGS[names] = PolyRing([Symbol(n) for n in names], QQ, grlex)
    return r


def _names(ring: PolyRing) -> tuple:
    return tuple(s.name for s in ring.symbols)


def _qq(v: Fraction):
    return QQ(v.numerator, v.denominator)


def _fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


# Bounded: one pass of the cft benchmark workload makes about 80 distinct
# cancellations, the whole test suite about 600.  perfbench's tracing
# rebinds it through ``__wrapped__``.
@lru_cache(maxsize=1024)
def _cancel_cached(num, den):
    """Cancel the common factor of two nonconstant polynomials of one ring:
    their ring cofactors by the gcd."""
    _, num, den = num.cofactors(den)
    return num, den


def _ratio(num, den) -> "RationalFunction":
    """num/den for coprime polynomials of one ring that use all its names,
    not both constant, scaled to integer coefficients of joint content 1
    and a positive leading denominator coefficient."""
    coeffs = (*num.values(), *den.values())
    k = QQ(lcm(*(int(c.denominator) for c in coeffs)),
           gcd(*(int(c.numerator) for c in coeffs)))
    if den.LC < 0:
        k = -k
    if k != 1:
        num, den = num.mul_ground(k), den.mul_ground(k)
    return _nonconstant(num, den)


def _nonconstant(num, den) -> "RationalFunction":
    """Wrap a canonical nonconstant numerator and denominator."""
    out = object.__new__(RationalFunction)
    out._num, out._den, out._value, out._hash = num, den, None, None
    return out


def _canonical(num, den) -> "RationalFunction":
    """num/den in canonical form, for polynomials of one ring with ``den``
    nonzero."""
    if not num:
        return RF_ZERO
    if not (num.is_ground or den.is_ground):
        num, den = _cancel_cached(num, den)
    if num.is_ground and den.is_ground:
        return RationalFunction.const(_fraction(num.LC) / _fraction(den.LC))
    ring = num.ring
    if ring.ngens > 1:
        used = [any(e) for e in zip(*num, *den)]
        if not all(used):
            ring = _ring(tuple(n for n, u in zip(_names(ring), used) if u))
            num, den = num.set_ring(ring), den.set_ring(ring)
    return _ratio(num, den)


def _common(x, y):
    """Numerators and denominators of two nonconstants over one ring."""
    r = x._num.ring
    if y._num.ring is r:
        return x._num, x._den, y._num, y._den
    r = _ring(tuple(sorted({*_names(r), *_names(y._num.ring)})))
    return (x._num.set_ring(r), x._den.set_ring(r),
            y._num.set_ring(r), y._den.set_ring(r))


class RationalFunction:
    """Canonical ratio of two polynomials.  Field operations are exact.

    Values are made by ``const``, ``var``, ``rf`` and arithmetic.
    ``_value`` is the value as a Fraction when the ratio is constant, and
    None otherwise; the constant branches of the operators, the zero test,
    equality and the hash read only it.  ``_num`` and ``_den`` hold the
    polynomials of a nonconstant.
    """

    __slots__ = ("_num", "_den", "_value", "_hash")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value) -> "RationalFunction":
        out = object.__new__(RationalFunction)
        out._num = out._den = out._hash = None
        out._value = value if type(value) is Fraction else Fraction(value)
        return out

    @staticmethod
    def var(name: str) -> "RationalFunction":
        r = _ring((name,))
        return _ratio(r.gens[0], r.one)

    # -- numerator and denominator -------------------------------------------

    @property
    def num(self):
        """The numerator, a polynomial over the names the value uses."""
        if self._value is None:
            return self._num
        return _ring(()).ground_new(QQ(self._value.numerator))

    @property
    def den(self):
        if self._value is None:
            return self._den
        return _ring(()).ground_new(QQ(self._value.denominator))

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        # zero is the constant 0/1: no nonconstant ratio vanishes
        v = self._value
        return v is not None and not v

    def __bool__(self) -> bool:
        """Nonzero, as for int and Fraction."""
        v = self._value
        return v is None or bool(v)

    @property
    def is_constant(self) -> bool:
        return self._value is not None

    def constant_value(self) -> Fraction:
        if self._value is None:
            raise ScalarError("not a constant polynomial")
        return self._value

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        return RationalFunction.const(x)

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self._value, other._value
        if a is not None:
            if b is not None:
                return RationalFunction.const(a + b)
            self, other, b = other, self, a
        if b is not None:
            if not b:
                return self
            return _ratio(self._num + self._den.mul_ground(_qq(b)), self._den)
        n1, d1, n2, d2 = _common(self, other)
        if d1 == d2:
            return _canonical(n1 + n2, d1)
        return _canonical(n1 * d2 + n2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        if self._value is not None:
            return RationalFunction.const(-self._value)
        return _nonconstant(-self._num, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        a, b = self._value, other._value
        if a is not None and b is not None:
            return RationalFunction.const(a - b)
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self._value, other._value
        # a unit factor returns the other operand or its negation
        if a is not None:
            if a == 1:
                return other
            if a == -1:
                return -other
        if b is not None:
            if b == 1:
                return self
            if b == -1:
                return -self
        if a is not None:
            if b is not None:
                return RationalFunction.const(a * b)
            self, b = other, a
        if b is not None:
            if not b:
                return RF_ZERO
            return _ratio(self._num.mul_ground(_qq(b)), self._den)
        n1, d1, n2, d2 = _common(self, other)
        return _canonical(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self._value, other._value
        if b is not None:
            if not b:
                raise ZeroDivisionError("division by zero rational function")
            if a is not None:
                return RationalFunction.const(a / b)
            return _ratio(self._num.mul_ground(_qq(1 / b)), self._den)
        if a is not None:
            if not a:
                return RF_ZERO
            return _ratio(other._den.mul_ground(_qq(a)), other._num)
        n1, d1, n2, d2 = _common(self, other)
        return _canonical(n1 * d2, d1 * n2)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        return RF_ONE / self

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: dict) -> "RationalFunction":
        """Bind some parameters to exact rationals; the rest stay symbolic.
        Names the value does not use are ignored.

        Raises PoleError when the denominator vanishes under the binding.
        """
        if self._value is not None:
            return self
        names = _names(self._num.ring)
        at = [_qq(Fraction(bindings[n])) if n in bindings else None
              for n in names]
        if not any(v is not None for v in at):
            return self
        ring = _ring(tuple(n for n, v in zip(names, at) if v is None))

        def bind(p):
            out = {}
            for m, c in p.items():
                for k, v in zip(m, at):
                    if k and v is not None:
                        c *= v ** k
                _add_into(out, tuple(k for k, v in zip(m, at) if v is None),
                          c)
            return ring.dtype(out)

        den = bind(self._den)
        if not den:
            raise PoleError(f"substitution {bindings} hits a denominator zero")
        return _canonical(bind(self._num), den)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._value == other
        if not isinstance(other, RationalFunction):
            return NotImplemented
        a, b = self._value, other._value
        if a is not None or b is not None:
            # a constant equals only a constant
            return a == b
        # equal values share one ring
        return (self._num.ring is other._num.ring and self._num == other._num
                and self._den == other._den)

    def __hash__(self):
        if self._hash is None:
            v = self._value
            self._hash = hash((self._num, self._den) if v is None else v)
        return self._hash

    def __repr__(self):
        return f"RF({format_rational(self)})"

    def __str__(self):
        return format_rational(self)


RF_ZERO = RationalFunction.const(0)
RF_ONE = RationalFunction.const(1)


def rf(x) -> RationalFunction:
    """A RationalFunction from a value (returned as it is), a number, or a
    coefficient string in which every name is a parameter."""
    if isinstance(x, str):
        from .parsing import parse_coefficient
        return parse_coefficient(x)
    return RationalFunction._coerce(x)


# -- printing in the coefficient grammar ----------------------------------


def _format_poly(p) -> str:
    names = _names(p.ring)
    parts = []
    for m, c in p.terms():
        factors = "*".join(n if k == 1 else f"{n}^{k}"
                           for n, k in zip(names, m) if k)
        if not factors:
            s = str(c)
        elif c == 1:
            s = factors
        elif c == -1:
            s = f"-{factors}"
        else:
            s = f"{c}*{factors}"
        parts.append(s if not parts or s.startswith("-") else "+" + s)
    return "".join(parts)


def format_rational(x: RationalFunction) -> str:
    """``x`` in the coefficient grammar, its terms in descending
    graded-lexicographic order over its sorted names."""
    if x._value is not None:
        return str(x._value)
    num, den = _format_poly(x._num), _format_poly(x._den)
    if den == "1":
        return num
    if len(x._num) > 1:
        num = f"({num})"
    if len(x._den) > 1 or "*" in den or "^" in den:
        den = f"({den})"
    return f"{num}/{den}"


# -- rational roots --------------------------------------------------------


def rational_roots(value: RationalFunction, name: str) -> set:
    """The rationals r such that the numerator of ``value`` vanishes at
    ``name`` = r for every value of its other names: the rational roots of
    the gcd of its coefficients as a polynomial in the other names."""
    if value.is_zero:
        raise ScalarError("rational_roots of zero")
    names = _names(value.num.ring)
    if name not in names:
        return set()
    i = names.index(name)
    groups: dict[tuple, dict] = {}
    for m, c in value.num.items():
        groups.setdefault(m[:i] + m[i + 1:], {})[(m[i],)] = c
    ring = _ring((name,))
    common = reduce(lambda f, g: f.gcd(g),
                    (ring.dtype(terms) for terms in groups.values()))
    _, factors = common.factor_list()
    return {-_fraction(f.get((0,), QQ(0)) / f[(1,)])
            for f, _ in factors if f.degree() == 1}
