"""Chiral algebra generators, normal-ordered monomials and field sums.

A monomial is a right-nested normal product N(f1, N(f2, ... fk)) of
derivatives of generators, with the factors in a fixed total order
(registration index, then derivative order).  Repeating an identical odd
factor is forbidden in canonical monomials; the reordering engine in
``engine.py`` rewrites such products into the basis.  A FieldExpr is a
finite sum of monomials with exact rational-function coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import WbrstError
from .scalars import RF_ONE, RF_ZERO, RationalFunction, _add_into, rf


class FieldError(WbrstError):
    pass


@dataclass(frozen=True)
class GeneratorDecl:
    name: str
    weight: Fraction
    parity: int = 0
    ghost: int = 0


class Monomial:
    """An ordered tuple of (generator name, derivative order) factors.
    Immutable; its hash is computed once, at construction."""

    __slots__ = ("factors", "_hash")

    def __init__(self, factors=()):
        factors = tuple(factors)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_hash", hash(factors))

    def __setattr__(self, *a):
        raise AttributeError("Monomial is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.factors == other.factors

    def __len__(self):
        return len(self.factors)

    def __repr__(self):
        return f"Monomial{self.factors}"


UNIT = Monomial()


class OpeAlgebra:
    """A set of generator declarations plus one stored orientation of the
    singular operator product for each generator pair."""

    def __init__(self, name, generators, params=()):
        self.name = name
        self.generators = list(generators)
        self.params = tuple(params)
        self._index = {}
        for i, g in enumerate(self.generators):
            if g.name in self._index:
                raise FieldError(f"duplicate generator {g.name!r}")
            self._index[g.name] = i
        self.names = tuple(g.name for g in self.generators)
        self._table = {}
        self._frozen = False
        self._context = None

    def decl(self, name) -> GeneratorDecl:
        try:
            return self.generators[self._index[name]]
        except KeyError:
            raise FieldError(f"unknown generator {name!r}") from None

    def index(self, name) -> int:
        return self._index[name]

    def set_ope(self, a, b, poles):
        if self._frozen:
            raise FieldError("algebra is frozen")
        self.decl(a), self.decl(b)
        if (a, b) in self._table:
            raise FieldError(f"operator product {a} {b} set twice")
        if a != b and (b, a) in self._table:
            raise FieldError(
                f"both orientations of {a}, {b} given; store only one")
        clean = {}
        for n, expr in poles.items():
            n = int(n)
            if n < 1:
                raise FieldError("pole orders must be positive")
            if not isinstance(expr, FieldExpr) or expr.algebra is not self:
                raise FieldError("pole data must be expressions over this algebra")
            if not expr.is_zero:
                clean[n] = expr
        self._table[(a, b)] = clean

    def table_entry(self, a, b):
        """(poles, flipped) for the stored orientation containing (a, b)."""
        if (a, b) in self._table:
            return self._table[(a, b)], False
        if (b, a) in self._table:
            return self._table[(b, a)], True
        return None, False

    def table_items(self):
        return list(self._table.items())

    def freeze(self):
        self._frozen = True
        return self

    def context(self):
        if self._context is None:
            from .engine import OpeContext
            self._frozen = True
            self._context = OpeContext(self)
        return self._context

    # -- grading helpers --------------------------------------------------

    def factor_weight(self, factor) -> Fraction:
        name, k = factor
        return self.decl(name).weight + k

    def mono_weight(self, mono: Monomial) -> Fraction:
        return sum((self.factor_weight(f) for f in mono.factors), Fraction(0))

    def mono_parity(self, mono: Monomial) -> int:
        return sum(self.decl(f[0]).parity for f in mono.factors) % 2

    def mono_ghost(self, mono: Monomial) -> int:
        return sum(self.decl(f[0]).ghost for f in mono.factors)

    def factor_key(self, factor):
        return (self._index[factor[0]], factor[1])

    def mono_key(self, mono: Monomial):
        return (len(mono.factors),
                tuple(self.factor_key(f) for f in mono.factors))


class FieldExpr:
    """A sum of canonical monomials with rational-function coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: OpeAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = {m: v for m, v in terms.items() if v}

    @staticmethod
    def _wrap(algebra: OpeAlgebra, terms: dict) -> "FieldExpr":
        """A FieldExpr that keeps ``terms`` as it is: a dict just made,
        owned by no one else and holding no zero coefficient."""
        out = object.__new__(FieldExpr)
        out.algebra, out.terms = algebra, terms
        return out

    @staticmethod
    def unit(algebra) -> "FieldExpr":
        return FieldExpr(algebra, {UNIT: RF_ONE})

    @staticmethod
    def generator(algebra, name) -> "FieldExpr":
        algebra.decl(name)
        return FieldExpr(algebra, {Monomial(((name, 0),)): RF_ONE})

    @staticmethod
    def zero(algebra) -> "FieldExpr":
        return FieldExpr(algebra, {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FieldExpr") -> "FieldExpr":
        if self.algebra is not other.algebra:
            raise FieldError("mixing expressions from different algebras")
        out = dict(self.terms)
        for m, v in other.terms.items():
            _add_into(out, m, v)
        return FieldExpr(self.algebra, out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, k) -> "FieldExpr":
        k = rf(k)
        if k.is_zero:
            return FieldExpr(self.algebra, {})
        return FieldExpr(self.algebra,
                         {m: v * k for m, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, FieldExpr) and self.algebra is other.algebra
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def coefficient(self, mono: Monomial) -> RationalFunction:
        return self.terms.get(mono, RF_ZERO)

    def sorted_terms(self):
        alg = self.algebra
        for m in sorted(self.terms, key=alg.mono_key):
            yield m, self.terms[m]

    def weight(self):
        """Common conformal weight of the terms, or None if mixed/zero."""
        ws = {self.algebra.mono_weight(m) for m in self.terms}
        if len(ws) == 1:
            return ws.pop()
        return None

    def parity(self):
        ps = {self.algebra.mono_parity(m) for m in self.terms}
        if len(ps) == 1:
            return ps.pop()
        return None

    def ghost(self):
        gs = {self.algebra.mono_ghost(m) for m in self.terms}
        if len(gs) == 1:
            return gs.pop()
        return None

    def __repr__(self):
        from .parsing import format_field_expr
        return f"<{format_field_expr(self)}>"
