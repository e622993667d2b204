"""Exact scalar arithmetic: rational functions in named parameters.

Coefficients everywhere in this package are ``RationalFunction`` values.  A
nonconstant value is a ratio of two ``PolyElement``s of a ``sympy.polys``
ring over ZZ in graded-lexicographic order.  The ring's generators are
exactly the names the value uses, sorted, and one ring is built per name
tuple.  An operation on values over different names maps them into the
ring over the sorted union of their names, and its result drops the names
it no longer uses; both moves rewrite the exponent tuples by a map cached
per pair of rings.  So equal values share one ring and one hash, and the
names one computation uses never change the ring, the cache keys or the
print order of another's values.

Canonical form of a ratio: numerator and denominator are coprime polynomials
with integer coefficients of joint content 1, and the denominator's leading
coefficient (graded-lexicographic order) is positive.  Zero is 0/1.  A
result is brought to it by dividing by the ``math.gcd`` of its
coefficients.  Rationals enter only at the edges: ``substitute`` binds
over QQ and then clears the denominators, and ``common_zeros`` takes and
gives coefficients over QQ.

Cancellation of two nonconstant polynomials takes their ring cofactors by
the gcd, and a bounded cache keeps the results.  The gcd is unique up to a
unit, so the canonical form does not depend on how it was found.  A constant
combined with a nonconstant needs no gcd, because a canonical numerator and
denominator are already coprime: the constant's numerator and denominator
multiply theirs, as ints.  A constant ``RationalFunction`` keeps its
value as two machine ints, a numerator and a positive denominator coprime
to it: arithmetic, zero tests, equality and hashing of constants read only
those.  Two integers combine with plain int arithmetic; other constants
take one ``math.gcd`` and build no ``Fraction``.  A constant hashes as the
``Fraction`` of equal value, and prints as it.

Products skip the trivial cases before any arithmetic: a factor 1 returns
the other operand, a factor -1 its negation, and a factor 0 returns zero.
Most products of the operator-product engine have a unit factor: exchange
signs, and the coefficient 1 of generators and of reordered monomials.

Every exact sparse sum of the package (field sums and operator-product
poles, Omega coefficients, sparse matrices, mode-oracle columns,
substitution) accumulates through the one helper ``_add_into``, which drops
a key whose sum is zero.  ``int``, ``Fraction`` and ``RationalFunction``
share its zero test: the truth value, which means nonzero.

``common_zeros`` solves a polynomial system with ``RationalFunction``
coefficients through its reduced lexicographic Gröbner basis, its
equations given lowest total degree first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from sys import hash_info

from sympy import Dummy, Symbol
from sympy.polys.domains import QQ, ZZ
from sympy.polys.fields import FracField
from sympy.polys.groebnertools import groebner
from sympy.polys.orderings import grlex, lex
from sympy.polys.rings import PolyRing

from .errors import WbrstError

# polynomial ring over ZZ per sorted name tuple
_RINGS: dict[tuple, PolyRing] = {}
_HASH_MODULUS = hash_info.modulus


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
        r = _RINGS[names] = PolyRing([Symbol(n) for n in names], ZZ, grlex)
    return r


def _names(ring: PolyRing) -> tuple:
    return tuple(s.name for s in ring.symbols)


# one per pair of rings, as ``_RINGS`` holds one ring per name tuple
@lru_cache(maxsize=None)
def _exponent_map(source: PolyRing, target: PolyRing):
    """The map of a polynomial of ``source`` into ``target`` by names: a
    name ``target`` lacks must not occur, a name ``source`` lacks gets
    exponent 0."""
    names = _names(source)
    picks = [names.index(n) if n in names else len(names)
             for n in _names(target)]
    new = target.dtype

    def move(p):
        return new({tuple([(*m, 0)[i] for i in picks]): c
                    for m, c in p.items()})
    return move


def _pair(value) -> tuple:
    """An exact number (int, Fraction, a string such as "1/2" or "0.5") as
    its reduced numerator and positive denominator.  A float is inexact
    and raises ScalarError."""
    if type(value) is int:
        return value, 1
    if isinstance(value, float):
        raise ScalarError(f"inexact constant {value!r}: give an int, a "
                          "Fraction or a string")
    value = Fraction(value)
    return value.numerator, value.denominator


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
    """num/den for polynomials of one ring that use all its names, not
    both constant, with no common factor but an integer: divided by the
    gcd of their coefficients, signed so that the leading denominator
    coefficient is positive."""
    k = gcd(*num.values(), *den.values())
    if den.LC < 0:
        k = -k
    if k != 1:
        num = num.new([(m, c // k) for m, c in num.items()])
        den = den.new([(m, c // k) for m, c in den.items()])
    return _nonconstant(num, den)


def _integral(ring: PolyRing, num: dict, den: dict) -> tuple:
    """Two polynomials {exponents: rational} as polynomials of ``ring``,
    both times the lcm of their coefficients' denominators."""
    k = lcm(*(int(c.denominator) for c in (*num.values(), *den.values())))
    return tuple(
        ring.dtype({m: int(c.numerator) * (k // int(c.denominator))
                    for m, c in p.items()})
        for p in (num, den))


def _scale(p, k: int):
    """The polynomial ``p`` times the nonzero int ``k``."""
    return p if k == 1 else p.mul_ground(k)


def _nonconstant(num, den) -> "RationalFunction":
    """Wrap a canonical nonconstant numerator and denominator."""
    out = object.__new__(RationalFunction)
    out._num, out._den = num, den
    out._n = out._d = out._hash = None
    return out


def _c(n: int, d: int) -> "RationalFunction":
    """Wrap the constant n/d, for coprime ints n and d > 0."""
    out = object.__new__(RationalFunction)
    out._n, out._d = n, d
    out._num = out._den = out._hash = None
    return out


def _lowest(n: int, d: int) -> "RationalFunction":
    """The constant n/d in lowest terms, for ints n and d > 0."""
    g = gcd(n, d)
    return _c(n // g, d // g)


def _canonical(num, den) -> "RationalFunction":
    """num/den in canonical form, for polynomials of one ring with ``den``
    nonzero."""
    if not num:
        return RF_ZERO
    if not (num.is_ground or den.is_ground):
        num, den = _cancel_cached(num, den)
    if num.is_ground and den.is_ground:
        n, d = int(num.LC), int(den.LC)
        return _lowest(-n, -d) if d < 0 else _lowest(n, d)
    ring = num.ring
    if ring.ngens > 1:
        used = [any(e) for e in zip(*num, *den)]
        if not all(used):
            move = _exponent_map(ring, _ring(
                tuple(n for n, u in zip(_names(ring), used) if u)))
            num, den = move(num), move(den)
    return _ratio(num, den)


def _common(x, y):
    """Numerators and denominators of two nonconstants over one ring."""
    r1, r2 = x._num.ring, y._num.ring
    if r1 is r2:
        return x._num, x._den, y._num, y._den
    r = _ring(tuple(sorted({*_names(r1), *_names(r2)})))
    m1, m2 = _exponent_map(r1, r), _exponent_map(r2, r)
    return m1(x._num), m1(x._den), m2(y._num), m2(y._den)


class RationalFunction:
    """Canonical ratio of two polynomials.  Field operations are exact.

    Values are made by ``const``, ``var``, ``rf`` and arithmetic.  A
    constant keeps its value as ``_n`` / ``_d``: ints, coprime, ``_d`` > 0;
    the constant branches of the operators, the zero test, equality and the
    hash read only them.  A nonconstant has ``_n`` and ``_d`` None, and
    ``_num`` and ``_den`` hold its polynomials.
    """

    __slots__ = ("_num", "_den", "_n", "_d", "_hash")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value) -> "RationalFunction":
        return _c(*_pair(value))

    @staticmethod
    def var(name: str) -> "RationalFunction":
        r = _ring((name,))
        return _ratio(r.gens[0], r.one)

    # -- numerator and denominator -------------------------------------------

    @property
    def num(self):
        """The numerator, a polynomial over the names the value uses."""
        if self._d is None:
            return self._num
        return _ring(()).ground_new(self._n)

    @property
    def den(self):
        if self._d is None:
            return self._den
        return _ring(()).ground_new(self._d)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        # zero is the constant 0/1: no nonconstant ratio vanishes
        return self._n == 0

    def __bool__(self) -> bool:
        """Nonzero, as for int and Fraction (a nonconstant's ``_n`` is
        None)."""
        return self._n != 0

    @property
    def is_constant(self) -> bool:
        return self._d is not None

    def constant_value(self) -> Fraction:
        if self._d is None:
            raise ScalarError("not a constant polynomial")
        return Fraction(self._n, self._d)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        return _c(*_pair(x))

    def __add__(self, other):
        if type(other) is not RationalFunction:
            other = self._coerce(other)
        d1, d2 = self._d, other._d
        if d1 is not None:
            if d2 is not None:
                if d1 == 1 and d2 == 1:
                    return _c(self._n + other._n, 1)
                return _lowest(self._n * d2 + other._n * d1, d1 * d2)
            self, other, d2 = other, self, d1
        if d2 is not None:
            if not other._n:
                return self
            return _ratio(_scale(self._num, d2)
                          + self._den.mul_ground(other._n),
                          _scale(self._den, d2))
        n1, d1, n2, d2 = _common(self, other)
        if d1 == d2:
            return _canonical(n1 + n2, d1)
        return _canonical(n1 * d2 + n2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        if self._d is not None:
            return _c(-self._n, self._d)
        return _nonconstant(-self._num, self._den)

    def __sub__(self, other):
        if type(other) is not RationalFunction:
            other = self._coerce(other)
        d1, d2 = self._d, other._d
        if d1 is not None and d2 is not None:
            if d1 == 1 and d2 == 1:
                return _c(self._n - other._n, 1)
            return _lowest(self._n * d2 - other._n * d1, d1 * d2)
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if type(other) is not RationalFunction:
            other = self._coerce(other)
        d1, d2 = self._d, other._d
        # a unit factor returns the other operand or its negation
        if d1 == 1:
            if self._n == 1:
                return other
            if self._n == -1:
                return -other
        if d2 == 1:
            if other._n == 1:
                return self
            if other._n == -1:
                return -self
        if d1 is not None:
            if d2 is not None:
                if d1 == 1 and d2 == 1:
                    return _c(self._n * other._n, 1)
                return _lowest(self._n * other._n, d1 * d2)
            self, other, d2 = other, self, d1
        if d2 is not None:
            if not other._n:
                return RF_ZERO
            return _ratio(self._num.mul_ground(other._n),
                          _scale(self._den, d2))
        n1, d1, n2, d2 = _common(self, other)
        return _canonical(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not RationalFunction:
            other = self._coerce(other)
        d1, d2 = self._d, other._d
        if d2 is not None:
            n2 = other._n
            if not n2:
                raise ZeroDivisionError("division by zero rational function")
            if n2 < 0:
                n2, d2 = -n2, -d2
            if d1 is not None:
                return _lowest(self._n * d2, d1 * n2)
            return _ratio(_scale(self._num, d2), _scale(self._den, n2))
        if d1 is not None:
            if not self._n:
                return RF_ZERO
            return _ratio(other._den.mul_ground(self._n),
                          _scale(other._num, d1))
        n1, d1, n2, d2 = _common(self, other)
        return _canonical(n1 * d2, d1 * n2)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        """``self`` to the int power ``k`` (of its inverse if negative),
        with no gcd: powers of a canonical numerator and denominator are
        canonical."""
        if not isinstance(k, int):
            raise TypeError(f"exponent {k!r} is not an int")
        if k < 0:
            return self.inverse() ** -k
        if self._d is not None or not k:
            return _c(self._n ** k, self._d ** k) if k else RF_ONE
        num, den = self._num, self._den
        for _ in range(k - 1):
            num, den = num * self._num, den * self._den
        return _nonconstant(num, den)

    def inverse(self):
        return RF_ONE / self

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: dict) -> "RationalFunction":
        """Bind some parameters to exact rationals; the rest stay symbolic.
        Names the value does not use are ignored.

        Raises PoleError when the denominator vanishes under the binding.
        """
        if self._d is not None:
            return self
        names = _names(self._num.ring)
        at = [QQ(*_pair(bindings[n])) if n in bindings else None
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
            return out

        num, den = bind(self._num), bind(self._den)
        if not den:
            raise PoleError(f"substitution {bindings} hits a denominator zero")
        return _canonical(*_integral(ring, num, den))

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            d1, d2 = self._d, other._d
            if d1 is not None or d2 is not None:
                # a constant equals only a constant
                return d1 == d2 and self._n == other._n
            # equal values share one ring
            return (self._num.ring is other._num.ring
                    and self._num == other._num and self._den == other._den)
        if isinstance(other, int):
            return self._d == 1 and self._n == other
        if isinstance(other, Fraction):
            return self._d == other.denominator and self._n == other.numerator
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            n, d = self._n, self._d
            if d is None:
                self._hash = hash((self._num, self._den))
            else:
                # hash(Fraction(n, d)), unless d is a multiple of the modulus
                try:
                    self._hash = hash(n * pow(d, -1, _HASH_MODULUS))
                except ValueError:
                    self._hash = hash(Fraction(n, d))
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
    if x._d is not None:
        return str(x._n) if x._d == 1 else f"{x._n}/{x._d}"
    num, den = _format_poly(x._num), _format_poly(x._den)
    if den == "1":
        return num
    if len(x._num) > 1:
        num = f"({num})"
    if len(x._den) > 1 or "*" in den or "^" in den:
        den = f"({den})"
    return f"{num}/{den}"


# -- common zeros of a polynomial system ------------------------------------


def common_zeros(equations, nunknown: int, params=()):
    """The common zeros of polynomial ``equations``, read off their reduced
    Gröbner basis in lexicographic order (Cox, Little and O'Shea, *Ideals,
    Varieties, and Algorithms*, ch. 3).

    An equation is {sorted tuple of unknown indices, an index repeated for
    its power: RationalFunction}, over the unknowns 0 … ``nunknown`` - 1.
    The names in ``params`` are unknowns too, ordered after the indexed
    ones; they enter through the coefficients, whose denominators must not
    use them.  Every other name stays symbolic: the coefficients lie in QQ
    or in the fraction field of those names, so no denominator is cleared,
    and the answer holds for generic values of them.

    Returns one of
    ("none", None): the basis is [1], there is no zero;
    ("point", values): every unknown leads a linear element with a constant
    tail; ``values`` maps each unknown, index or name, to its value;
    ("family", free): every element is linear in the unknown leading it,
    so the zeros are parametrized by ``free``, the unknowns leading none;
    ("other", None): any other basis, which is not a single rational point.
    """
    params = tuple(params)
    symbolic = sorted({n for eq in equations for v in eq.values()
                       for n in _names(v.num.ring)}.difference(params))
    field = FracField(_ring(tuple(symbolic)).symbols, QQ, grlex) \
        if symbolic else None
    ring = PolyRing([Dummy() for _ in range(nunknown)]
                    + [Symbol(p) for p in params],
                    field.to_domain() if field else QQ, lex)
    polys = []
    for eq in equations:
        terms = {}
        for key, v in eq.items():
            power = tuple(key.count(k) for k in range(nunknown))
            for p, coeff in _split(v, params, symbolic, field).items():
                _add_into(terms, power + p, coeff)
        polys.append(ring.dtype(terms))
    # the reduced basis is unique, whatever the order of its input.  Lowest
    # total degree first, sympy's initial interreduction eliminates with
    # the linear equations first: the unpinned W3^(2) derivation of the
    # tests takes 0.2 s so, and over two minutes in the order it is made
    polys.sort(key=lambda p: (max(map(sum, p), default=0), len(p)))
    basis = groebner(polys, ring)
    if basis == [ring.one]:
        return "none", None
    unknowns = [*range(nunknown), *params]
    led = {}
    for g in basis:
        m = g.LM
        if sum(m) != 1:
            return "other", None
        led[m.index(1)] = g
    free = [u for i, u in enumerate(unknowns) if i not in led]
    if free:
        return "family", free
    return "point", {u: _from_domain(-led[i].coeff(1), field)
                     for i, u in enumerate(unknowns)}


def _split(v: RationalFunction, params, symbolic, field) -> dict:
    """``v`` as {exponents of ``params``: coefficient}, a coefficient in
    QQ, or in ``field``, the fraction field over the names ``symbolic``."""
    names = (*params, *symbolic)
    at = [names.index(n) for n in _names(v.num.ring)]
    num, den = {}, {}
    for poly, parts in ((v.num, num), (v.den, den)):
        for m, c in poly.items():
            e = [0] * len(names)
            for i, k in zip(at, m):
                e[i] = k
            parts.setdefault(tuple(e[:len(params)]), {})[
                tuple(e[len(params):])] = c
    none = (0,) * len(params)
    if list(den) != [none]:
        raise ScalarError(f"the denominator of {v} uses an unknown")
    den = den[none]
    if field is None:
        return {p: QQ(part[()], den[()]) for p, part in num.items()}
    new = field.ring.dtype
    den = new({m: QQ(c) for m, c in den.items()})
    return {p: field.new(new({m: QQ(c) for m, c in part.items()}), den)
            for p, part in num.items()}


def _from_domain(q, field) -> RationalFunction:
    """A coefficient of ``common_zeros``'s ring as a RationalFunction."""
    if field is None:
        return _c(int(q.numerator), int(q.denominator))
    return _canonical(*_integral(_ring(_names(field.ring)), q.numer, q.denom))
