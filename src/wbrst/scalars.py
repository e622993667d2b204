"""Exact scalar arithmetic: rationals, sparse multivariate polynomials and
normalized rational functions in named parameters.

Coefficients everywhere in this package are ``RationalFunction`` values:
ratios of sparse polynomials over arbitrary-precision rationals in a fixed,
session-wide parameter universe (``c``, ``g1``, ``g2`` plus any names
registered later).  Exponent vectors are stored with trailing zeros stripped,
so values created before and after a new parameter registration mix freely.

Canonical form of a ratio: numerator and denominator are coprime integer
polynomials with joint content 1, and the denominator's leading coefficient
(graded-lexicographic order) is positive.  Zero is 0/1.

Cancellation of two nonconstant polynomials takes their gcd and cofactors
in a ``sympy.polys`` ring over QQ on the current parameter universe (one
ring per universe, built on first use), and a bounded cache keeps the
results.  The gcd is unique up to a unit, so the canonical form does not
depend on how it was found.  A constant ``RationalFunction`` keeps its value
as one ``Fraction``: arithmetic, zero tests, equality and hashing of
constants read only that value, and a constant made by ``const`` builds its
two polynomials only when ``num`` or ``den`` is first read.

Every exact sparse sum of the package (polynomial terms, field sums and
operator-product poles, Omega coefficients, sparse matrices, mode-oracle
columns) accumulates through the one helper ``_add_into``, which drops a
key whose sum is zero.  ``int``, ``Fraction`` and ``RationalFunction``
share its zero test: the truth value, which means nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from sympy import Symbol
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyRing

from .errors import WbrstError

_PARAMS: list[str] = []
_PARAM_INDEX: dict[str, int] = {}
# polynomial ring over QQ per parameter universe, for cancellation
_RINGS: dict[tuple, PolyRing] = {}


class ScalarError(WbrstError):
    pass


class PoleError(ScalarError):
    """Substitution hit a zero of a denominator."""


def param_index(name: str) -> int:
    """Index of a parameter, registering it on first use."""
    idx = _PARAM_INDEX.get(name)
    if idx is None:
        idx = len(_PARAMS)
        _PARAM_INDEX[name] = idx
        _PARAMS.append(name)
    return idx


def param_names() -> tuple[str, ...]:
    return tuple(_PARAMS)


# the default session universe
for _name in ("c", "g1", "g2"):
    param_index(_name)


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


def _strip(exps) -> tuple:
    exps = tuple(exps)
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


def _grlex_key(exps: tuple) -> tuple:
    # pad to the current universe width; graded, then lexicographic
    padded = exps + (0,) * (len(_PARAMS) - len(exps))
    return (sum(exps),) + padded


class MultiPoly:
    """Sparse multivariate polynomial with Fraction coefficients.

    ``terms`` maps stripped exponent tuples to nonzero Fractions.  Instances
    are immutable by convention; all operations return new values.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict):
        self.terms = {}
        for e, c in terms.items():
            _add_into(self.terms, _strip(e), Fraction(c))
        self._hash = None

    @classmethod
    def _trusted(cls, terms: dict) -> "MultiPoly":
        """Wrap ``terms`` already in canonical form: stripped exponent
        tuples mapped to nonzero Fractions.  The dict is not copied."""
        p = object.__new__(cls)
        p.terms = terms
        p._hash = None
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value) -> "MultiPoly":
        v = Fraction(value)
        return MultiPoly._trusted({(): v} if v else {})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        i = param_index(name)
        return MultiPoly({_strip((0,) * i + (1,)): Fraction(1)})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        terms = self.terms
        return not terms or (len(terms) == 1 and () in terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ScalarError("not a constant polynomial")
        return self.terms.get((), Fraction(0))

    def variables(self) -> set:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    def degree(self) -> int:
        if self.is_zero:
            return 0
        return max(sum(e) for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            _add_into(out, e, c)
        return MultiPoly._trusted(out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                w = max(len(e1), len(e2))
                a = e1 + (0,) * (w - len(e1))
                b = e2 + (0,) * (w - len(e2))
                _add_into(out, _strip(x + y for x, y in zip(a, b)), c1 * c2)
        return MultiPoly._trusted(out)

    def scale(self, k) -> "MultiPoly":
        k = Fraction(k)
        if k == 0:
            return MultiPoly._trusted({})
        return MultiPoly._trusted({e: c * k for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ScalarError("negative polynomial power")
        out = MultiPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    # -- canonical order ---------------------------------------------------

    def leading_coeff(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        e = max(self.terms, key=_grlex_key)
        return self.terms[e]

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: dict) -> "MultiPoly":
        """Substitute parameter names for Fractions; others stay symbolic."""
        idx = {param_index(n): Fraction(v) for n, v in bindings.items()}
        out = {}
        for e, c in self.terms.items():
            coeff = c
            rest = list(e)
            for i, k in enumerate(e):
                if k and i in idx:
                    coeff *= idx[i] ** k
                    rest[i] = 0
            _add_into(out, _strip(rest), coeff)
        return MultiPoly._trusted(out)

    # -- plumbing ----------------------------------------------------------

    def _key(self):
        return tuple(sorted(self.terms.items()))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __repr__(self):
        return f"MultiPoly({format_poly(self)})"


_POLY_ZERO = MultiPoly._trusted({})
_POLY_ONE = MultiPoly._trusted({(): Fraction(1)})


def _const_polys(v: Fraction):
    """Canonical numerator and denominator of a constant."""
    n, d = v.numerator, v.denominator
    if d == 1:
        # an integer is its own numerator coefficient
        return (MultiPoly._trusted({(): v}) if n else _POLY_ZERO), _POLY_ONE
    return (MultiPoly._trusted({(): Fraction(n)}),
            MultiPoly._trusted({(): Fraction(d)}))


def _joint_content(polys) -> Fraction:
    """gcd of all coefficients across the given polynomials, as a Fraction."""
    from math import gcd, lcm

    nums, dens = [], []
    for p in polys:
        for c in p.terms.values():
            nums.append(abs(c.numerator))
            dens.append(c.denominator)
    if not nums:
        return Fraction(1)
    g = 0
    for n in nums:
        g = gcd(g, n)
    l = 1
    for d in dens:
        l = lcm(l, d)
    return Fraction(g, l)


def _ring() -> PolyRing:
    names = tuple(_PARAMS)
    r = _RINGS.get(names)
    if r is None:
        # Symbols, not strings: sympy would parse ':' or ',' in a name
        r = _RINGS[names] = PolyRing([Symbol(n) for n in names], QQ)
    return r


def _to_ring(r: PolyRing, key):
    pad = (0,) * r.ngens
    return r.dtype({e + pad[len(e):]: QQ(c.numerator, c.denominator)
                    for e, c in key})


def _from_ring(p) -> MultiPoly:
    return MultiPoly._trusted({_strip(e): Fraction(c.numerator, c.denominator)
                               for e, c in p.items()})


# Bounded: one pass of the cft benchmark workload makes about 390 distinct
# cancellations, the whole test suite about 300.  perfbench's tracing
# rebinds it through ``__wrapped__``.
@lru_cache(maxsize=1024)
def _cancel_cached(num_key, den_key):
    """Cancel the common factor of two nonconstant polynomials, given as
    ``MultiPoly._key()`` tuples: their ring cofactors by the gcd."""
    r = _ring()
    _, num, den = _to_ring(r, num_key).cofactors(_to_ring(r, den_key))
    return _from_ring(num), _from_ring(den)


def _canonical(num: MultiPoly, den: MultiPoly):
    if den.is_zero:
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero:
        return _POLY_ZERO, _POLY_ONE
    if num.is_constant and den.is_constant:
        q = num.constant_value() / den.constant_value()
        return _const_polys(q)
    if not num.is_constant and not den.is_constant:
        num, den = _cancel_cached(num._key(), den._key())
    content = _joint_content((num, den))
    lead = den.leading_coeff()
    factor = content if lead > 0 else -content
    num = num.scale(1 / factor)
    den = den.scale(1 / factor)
    return num, den


class RationalFunction:
    """Normalized ratio of two MultiPolys.  Field operations are exact.

    ``_value`` is the value as a Fraction when the ratio is constant, and
    None otherwise; the constant branches of the operators, the zero test,
    equality and the hash read only it.  A constant made by ``const`` does
    not build its numerator and denominator until ``num`` or ``den`` is
    first read.
    """

    __slots__ = ("_num", "_den", "_value", "_hash")

    def __init__(self, num: MultiPoly, den: MultiPoly = None, _normalized=False):
        if den is None:
            den = _POLY_ONE
        if not _normalized:
            num, den = _canonical(num, den)
        self._num = num
        self._den = den
        self._value = (num.constant_value() / den.constant_value()
                       if num.is_constant and den.is_constant else None)
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value) -> "RationalFunction":
        out = object.__new__(RationalFunction)
        out._num = out._den = out._hash = None
        out._value = value if type(value) is Fraction else Fraction(value)
        return out

    @staticmethod
    def var(name: str) -> "RationalFunction":
        return RationalFunction(MultiPoly.var(name), _POLY_ONE,
                                _normalized=True)

    # -- numerator and denominator -------------------------------------------

    @property
    def num(self) -> MultiPoly:
        if self._num is None:
            self._num, self._den = _const_polys(self._value)
        return self._num

    @property
    def den(self) -> MultiPoly:
        if self._den is None:
            self._num, self._den = _const_polys(self._value)
        return self._den

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
            if not a:
                return other
        elif b is not None and not b:
            return self
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        if self._value is not None:
            return RationalFunction.const(-self._value)
        return RationalFunction(-self._num, self._den, _normalized=True)

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
        if a is not None:
            if b is not None:
                return RationalFunction.const(a * b)
            if not a:
                return RF_ZERO
        elif b is not None and not b:
            return RF_ZERO
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self._value, other._value
        if b is not None:
            if not b:
                raise ZeroDivisionError("division by zero rational function")
            if a is not None:
                return RationalFunction.const(a / b)
        elif a is not None and not a:
            return RF_ZERO
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        return RationalFunction.const(1) / self

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: dict) -> "RationalFunction":
        """Bind some parameters to exact rationals; the rest stay symbolic.

        Raises PoleError when the denominator vanishes under the binding.
        """
        if self._value is not None:
            return self
        num = self.num.substitute(bindings)
        den = self.den.substitute(bindings)
        if den.is_zero:
            raise PoleError(f"substitution {bindings} hits a denominator zero")
        return RationalFunction(num, den)

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
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        if self._hash is None:
            v = self._value
            self._hash = hash((self._num, self._den) if v is None else v)
        return self._hash

    def __repr__(self):
        return f"RF({format_rational(self)})"

    def __str__(self):
        return format_rational(self)


RF_ZERO = RationalFunction(_POLY_ZERO, _POLY_ONE, _normalized=True)
RF_ONE = RationalFunction.const(1)


def rf(text_or_value) -> RationalFunction:
    """Convenience constructor: parse a coefficient string or wrap a number."""
    if isinstance(text_or_value, str):
        from .parsing import parse_coefficient
        return parse_coefficient(text_or_value)
    return RationalFunction.const(text_or_value)


# -- printing in the coefficient grammar ----------------------------------


def _format_monomial(exps, coeff: Fraction) -> str:
    factors = []
    for i, k in enumerate(exps):
        if k == 1:
            factors.append(_PARAMS[i])
        elif k > 1:
            factors.append(f"{_PARAMS[i]}^{k}")
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def format_poly(p: MultiPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for e, c in p.sorted_terms():
        s = _format_monomial(e, c)
        if parts and not s.startswith("-"):
            parts.append("+" + s)
        else:
            parts.append(s)
    return "".join(parts)


def format_rational(x: RationalFunction) -> str:
    num = format_poly(x.num)
    if x.den == MultiPoly.const(1):
        return num
    den = format_poly(x.den)
    if len(x.num.terms) > 1:
        num = f"({num})"
    if len(x.den.terms) > 1 or "*" in den or "^" in den:
        den = f"({den})"
    return f"{num}/{den}"


# -- rational roots --------------------------------------------------------


def rational_roots(p: MultiPoly) -> set:
    """All rational roots of a univariate polynomial (rational-root theorem)."""
    if p.is_zero:
        raise ScalarError("rational_roots of the zero polynomial")
    used = p.variables()
    if len(used) > 1:
        raise ScalarError("rational_roots needs a univariate polynomial")
    if not used:
        return set()
    (var,) = used
    # coefficients by degree in the single variable
    coeffs: dict[int, Fraction] = {}
    for e, c in p.terms.items():
        _add_into(coeffs, e[var] if var < len(e) else 0, c)
    roots = set()
    low = min(coeffs)
    if low > 0:
        roots.add(Fraction(0))
    shifted = {k - low: c for k, c in coeffs.items()}
    # primitive integer form
    from math import lcm, gcd
    scale = 1
    for c in shifted.values():
        scale = lcm(scale, c.denominator)
    ints = {k: int(c * scale) for k, c in shifted.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, abs(v))
    ints = {k: v // g for k, v in ints.items()}
    n = max(ints)
    a0 = ints.get(0, 0)
    an = ints[n]
    if n == 0:
        return roots

    def divisors(m):
        m = abs(m)
        out = []
        d = 1
        while d * d <= m:
            if m % d == 0:
                out.append(d)
                out.append(m // d)
            d += 1
        return out

    for pnum in divisors(a0):
        for qden in divisors(an):
            for cand in (Fraction(pnum, qden), Fraction(-pnum, qden)):
                if cand in roots:
                    continue
                if sum(c * cand ** k for k, c in ints.items()) == 0:
                    roots.add(cand)
    return roots
