"""Exact operator product calculus on normal-ordered monomials.

All computations reduce to a stored singular table for generator pairs
plus five rewriting rules: the two derivative rules, the exchange (flip)
formula, the generalized Wick formula for products against a composite,
and the reordering/quasi-associativity corrections for normal products.
Everything is memoized per context; coefficients stay exact rational
functions of the declared parameters.

The self-product of an expression x of definite parity p is graded
skew-symmetric: [m_j m_i] is the exchange of [m_i m_j] with both parities
p.  ``ope(x, x)`` therefore sums the monomial pairs i <= j only and gets
the pairs i > j as one exchange of the summed strict upper triangle.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import WbrstError
from .fields import FieldExpr, Monomial, OpeAlgebra, UNIT
from .scalars import RF_ONE, _add_into


class EngineError(WbrstError):
    pass


class OpeContext:
    """Memoized evaluator bound to one frozen algebra."""

    def __init__(self, algebra: OpeAlgebra, fuel_limit: int = 5_000_000):
        self.algebra = algebra
        self.fuel_limit = fuel_limit
        self._fuel = 0
        self._ope_memo = {}
        self._nprod_memo = {}
        self._single_memo = {}
        self._deriv_memo = {}

    def _tick(self):
        self._fuel += 1
        if self._fuel > self.fuel_limit:
            raise EngineError("rewriting fuel exhausted; "
                              "the computation does not close in budget")

    def _zero(self):
        return FieldExpr.zero(self.algebra)

    def _poles(self, poles: dict) -> dict:
        """{n: FieldExpr} from {n: terms}, the zero poles dropped."""
        return {n: FieldExpr._wrap(self.algebra, t)
                for n, t in poles.items() if t}

    # -- public API --------------------------------------------------------

    def ope(self, x: FieldExpr, y: FieldExpr) -> dict:
        """All singular poles {n >= 1: expression} of the product x(z) y(w)."""
        self._fuel = 0
        if x == y:
            p = x.parity()
            if p is not None:
                return self._self_ope(x, p)
        out = {}
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                k = c1 * c2
                for n, e in self.ope_mono(m1, m2).items():
                    _add_expr(out.setdefault(n, {}), e, k)
        return self._poles(out)

    def _self_ope(self, x: FieldExpr, p: int) -> dict:
        """[x x] for x of parity p from the monomial pairs i <= j: the
        pairs i > j sum to the exchange of the strict upper triangle."""
        terms = list(x.terms.items())
        out, upper = {}, {}
        for i, (m1, c1) in enumerate(terms):
            for n, e in self.ope_mono(m1, m1).items():
                _add_expr(out.setdefault(n, {}), e, c1 * c1)
            for m2, c2 in terms[i + 1:]:
                k = c1 * c2
                for n, e in self.ope_mono(m1, m2).items():
                    _add_expr(upper.setdefault(n, {}), e, k)
        upper = self._poles(upper)
        for half in (upper, self._flip(upper, p, p)):
            for n, e in half.items():
                _add_expr(out.setdefault(n, {}), e)
        return self._poles(out)

    def pole(self, x: FieldExpr, y: FieldExpr, n: int) -> FieldExpr:
        return self.ope(x, y).get(n, self._zero())

    def normal_product(self, x: FieldExpr, y: FieldExpr) -> FieldExpr:
        self._fuel = 0
        return self._nexpr2(x, y)

    def derivative(self, x: FieldExpr, k: int = 1) -> FieldExpr:
        self._fuel = 0
        return self._dexpr(x, k)

    # -- operator products on monomials ------------------------------------

    def ope_mono(self, m1: Monomial, m2: Monomial) -> dict:
        key = (m1.factors, m2.factors)
        hit = self._ope_memo.get(key)
        if hit is not None:
            return hit
        self._tick()
        if not m1.factors or not m2.factors:
            out = {}
        elif len(m1.factors) == 1 and len(m2.factors) == 1:
            out = self._ope_single(m1.factors[0], m2.factors[0])
        elif len(m2.factors) >= 2:
            out = self._wick(m1, m2)
        else:
            rev = self.ope_mono(m2, m1)
            out = self._flip(rev, self.algebra.mono_parity(m1),
                             self.algebra.mono_parity(m2))
        self._ope_memo[key] = out
        return out

    def _ope_single(self, f1, f2) -> dict:
        key = (f1, f2)
        hit = self._single_memo.get(key)
        if hit is not None:
            return hit
        self._tick()
        (n1, d1), (n2, d2) = f1, f2
        if d1 > 0:
            base = self._ope_single((n1, d1 - 1), f2)
            out = {n + 1: e.scaled(-n) for n, e in base.items()}
        elif d2 > 0:
            base = self._ope_single(f1, (n2, d2 - 1))
            out = {}
            top = max(base, default=0) + 1
            for n in range(1, top + 1):
                acc = out[n] = {}
                if n in base:
                    _add_expr(acc, self._dexpr(base[n], 1))
                if n - 1 in base and n > 1:
                    _add_expr(acc, base[n - 1], n - 1)
            out = self._poles(out)
        else:
            poles, flipped = self.algebra.table_entry(n1, n2)
            if poles is None:
                out = {}
            elif not flipped:
                out = dict(poles)
            else:
                p1 = self.algebra.decl(n1).parity
                p2 = self.algebra.decl(n2).parity
                out = self._flip(poles, p1, p2)
        self._single_memo[key] = out
        return out

    def _flip(self, poles: dict, p1: int, p2: int) -> dict:
        """[A B]_n from all poles of [B A] by the exchange formula."""
        sign = -1 if p1 and p2 else 1
        out = {}
        top = max(poles, default=0)
        for n in range(1, top + 1):
            acc = out[n] = {}
            for l in range(n, top + 1):
                if l not in poles:
                    continue
                k = Fraction((-1) ** l, factorial(l - n)) * sign
                _add_expr(acc, self._dexpr(poles[l], l - n), k)
        return self._poles(out)

    def _wick(self, a: Monomial, b: Monomial) -> dict:
        """[A N(h, T)]_n for composite right factor."""
        alg = self.algebra
        h = b.factors[0]
        t = Monomial(b.factors[1:])
        sign = -1 if (alg.mono_parity(a)
                      and alg.decl(h[0]).parity) else 1
        p_rest = self.ope_mono(a, t)
        p_head = self.ope_mono(a, Monomial((h,)))
        inner = {m: self._ope_expr_mono(e, t) for m, e in p_head.items()}
        top = max(p_rest, default=0)
        for m, sub in inner.items():
            top = max(top, m + max(sub, default=0))
        top = max(top, max(p_head, default=0))
        out = {}
        for n in range(1, top + 1):
            acc = out[n] = {}
            if n in p_rest:
                _add_expr(acc, self._nexpr_factor(h, p_rest[n]), sign)
            for m in p_head:
                if m > n:
                    continue
                k = comb(n - 1, n - m)
                if m == n:
                    term = self._nexpr_right(p_head[m], t)
                else:
                    term = inner[m].get(n - m)
                    if term is None:
                        continue
                _add_expr(acc, term, k)
        return self._poles(out)

    # -- normal ordering ----------------------------------------------------

    def nmono_single(self, f, m: Monomial) -> FieldExpr:
        """Canonical form of N(f, M) for a single factor f."""
        key = (f, m.factors)
        hit = self._nprod_memo.get(key)
        if hit is not None:
            return hit
        self._tick()
        alg = self.algebra
        if not m.factors:
            out = FieldExpr._wrap(alg, {Monomial((f,)): RF_ONE})
        else:
            g = m.factors[0]
            kf, kg = alg.factor_key(f), alg.factor_key(g)
            odd_f = alg.decl(f[0]).parity
            if kf < kg or (kf == kg and not odd_f):
                out = FieldExpr._wrap(alg,
                                      {Monomial((f,) + m.factors): RF_ONE})
            elif kf == kg:
                # identical odd factor: 2 N(f, N(f, X)) equals the
                # reordering correction series
                rest = Monomial(m.factors[1:])
                acc = {}
                for l, e in self.ope_mono(Monomial((f,)),
                                          Monomial((f,))).items():
                    k = Fraction((-1) ** (l - 1), 2 * factorial(l))
                    _add_expr(acc, self._nexpr_right(self._dexpr(e, l), rest), k)
                out = FieldExpr._wrap(self.algebra, acc)
            else:
                # swap: N(A, N(B, X)) = +/- N(B, N(A, X)) + corrections
                rest = Monomial(m.factors[1:])
                pf, pg = alg.decl(f[0]).parity, alg.decl(g[0]).parity
                sign = -1 if pf and pg else 1
                acc = {}
                _add_expr(acc, self._nexpr_factor(g, self.nmono_single(f, rest)),
                          sign)
                for l, e in self.ope_mono(Monomial((f,)),
                                          Monomial((g,))).items():
                    k = Fraction((-1) ** (l - 1), factorial(l))
                    _add_expr(acc, self._nexpr_right(self._dexpr(e, l), rest), k)
                out = FieldExpr._wrap(self.algebra, acc)
        self._nprod_memo[key] = out
        return out

    def nmono2(self, m1: Monomial, m2: Monomial) -> FieldExpr:
        """Canonical form of N(M1, M2) for arbitrary monomials."""
        if not m1.factors:
            return FieldExpr._wrap(self.algebra, {m2: RF_ONE})
        if not m2.factors:
            return FieldExpr._wrap(self.algebra, {m1: RF_ONE})
        if len(m1.factors) == 1:
            return self.nmono_single(m1.factors[0], m2)
        key = (m1.factors, m2.factors)
        hit = self._nprod_memo.get(key)
        if hit is not None:
            return hit
        self._tick()
        alg = self.algebra
        h = m1.factors[0]
        s = Monomial(m1.factors[1:])
        # N(N(h, S), C) = N(h, N(S, C)) + quasi-associativity corrections
        acc = {}
        _add_expr(acc, self._nexpr_factor(h, self.nmono2(s, m2)))
        for l, e in self.ope_mono(s, m2).items():
            dh = (h[0], h[1] + l)
            _add_expr(acc, self._nexpr_factor(dh, e), Fraction(1, factorial(l)))
        ph = alg.decl(h[0]).parity
        ps = alg.mono_parity(s)
        sign = -1 if ph and ps else 1
        for l, e in self.ope_mono(Monomial((h,)), m2).items():
            ds = self._dexpr(FieldExpr._wrap(alg, {s: RF_ONE}), l)
            _add_expr(acc, self._nexpr2(ds, e), Fraction(sign, factorial(l)))
        out = FieldExpr._wrap(self.algebra, acc)
        self._nprod_memo[key] = out
        return out

    def deriv_mono(self, m: Monomial) -> FieldExpr:
        key = m.factors
        hit = self._deriv_memo.get(key)
        if hit is not None:
            return hit
        self._tick()
        if not m.factors:
            out = self._zero()
        elif len(m.factors) == 1:
            name, d = m.factors[0]
            out = FieldExpr._wrap(self.algebra,
                                  {Monomial(((name, d + 1),)): RF_ONE})
        else:
            h = m.factors[0]
            rest = Monomial(m.factors[1:])
            acc = {}
            _add_expr(acc, self.nmono_single((h[0], h[1] + 1), rest))
            _add_expr(acc, self._nexpr_factor(h, self.deriv_mono(rest)))
            out = FieldExpr._wrap(self.algebra, acc)
        self._deriv_memo[key] = out
        return out

    # -- expression-level helpers -------------------------------------------

    def _dexpr(self, x: FieldExpr, k: int) -> FieldExpr:
        for _ in range(k):
            acc = {}
            for m, c in x.terms.items():
                _add_expr(acc, self.deriv_mono(m), c)
            x = FieldExpr._wrap(self.algebra, acc)
        return x

    def _nexpr_factor(self, f, x: FieldExpr) -> FieldExpr:
        acc = {}
        for m, c in x.terms.items():
            _add_expr(acc, self.nmono_single(f, m), c)
        return FieldExpr._wrap(self.algebra, acc)

    def _nexpr_right(self, x: FieldExpr, m2: Monomial) -> FieldExpr:
        acc = {}
        for m, c in x.terms.items():
            _add_expr(acc, self.nmono2(m, m2), c)
        return FieldExpr._wrap(self.algebra, acc)

    def _nexpr2(self, x: FieldExpr, y: FieldExpr) -> FieldExpr:
        acc = {}
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                _add_expr(acc, self.nmono2(m1, m2), c1 * c2)
        return FieldExpr._wrap(self.algebra, acc)

    def _ope_expr_mono(self, x: FieldExpr, m2: Monomial) -> dict:
        out = {}
        for m, c in x.terms.items():
            for n, e in self.ope_mono(m, m2).items():
                _add_expr(out.setdefault(n, {}), e, c)
        return self._poles(out)


def _add_expr(dst: dict, x: FieldExpr, k=None):
    """``dst += k x`` term by term (``k`` None: unscaled).  ``dst`` is a
    dict of terms the caller has just made; ``x`` is never written."""
    for m, v in x.terms.items():
        _add_into(dst, m, v if k is None else v * k)
