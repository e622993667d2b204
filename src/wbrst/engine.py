"""Exact operator product calculus on normal-ordered monomials.

All computations reduce to a stored singular table for generator pairs
plus five rewriting rules: the two derivative rules, the exchange (flip)
formula, the generalized Wick formula for products against a composite,
and the reordering/quasi-associativity corrections for normal products.
Each rule is one closed sum: every pole it reads feeds the poles it
reaches directly, with no scan up to a top pole, and the derivatives of
a pole are taken one step at a time, so a thousand derivative orders
need no recursion.  Everything is memoized per context, and every sum
goes through one accumulator, ``OpeContext._add``, which meters the work:
a public call (``ope``, ``normal_product``, ``derivative``) that adds
more than ``MAX_FUEL`` terms raises ``EngineError`` and empties the
context's memos, so a retry is refused like the first call.
Coefficients stay exact rational functions of the declared parameters.
The exact constants of the rules (the signs over l!, 1/l!, the
binomials, the rising factorials and the exchange weights) are built
once each as ``RationalFunction``s, so a rule application makes no
``Fraction`` and converts no number.

The rules take and return plain term dicts, {Monomial: RationalFunction}
with no zero coefficient, and poles as {n: terms} with no empty pole; the
memos hold those dicts, and no rule writes a dict once it is returned.
``FieldExpr`` is the public type: only ``ope``, ``normal_product`` and
``derivative`` build one, each from a copy of the dicts they summed.

Every singular term of a product of normal-ordered monomials needs at
least one contraction between their factors (the generalized Wick
theorem).  So [M1 M2] has no pole when no generator of M1 has a nonzero
stored product, in either orientation, with a generator of M2.  The rules
above give the same, by induction on the factors; ``ope_mono`` returns
the empty result for such a pair at once, without recursing.

The self-product of an expression x of definite parity p is graded
skew-symmetric: [m_j m_i] is the exchange of [m_i m_j] with both parities
p.  ``ope(x, x)`` therefore sums the monomial pairs i <= j only and gets
the pairs i > j as one exchange of the summed strict upper triangle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm

from .errors import WbrstError
from .fields import FieldExpr, Monomial, OpeAlgebra
from .scalars import RF_ONE, RationalFunction


@lru_cache(maxsize=None)
def _const(n: int, d: int = 1) -> RationalFunction:
    """The rule constant n/d, built once: a few dozen values, and more
    only as products reach higher pole orders."""
    return RationalFunction.const(Fraction(n, d))


# The most terms one public call may add into its sums: thirty times the
# most that a benchmark check, or a test other than a deep nest, adds.
MAX_FUEL = 1_000_000


class EngineError(WbrstError):
    pass


class OpeContext:
    """Memoized evaluator bound to one frozen algebra."""

    def __init__(self, algebra: OpeAlgebra):
        self.algebra = algebra
        self._fuel = 0
        self._ope_memo = {}
        self._nprod_memo = {}
        self._deriv_memo = {}

    # -- public API --------------------------------------------------------

    def ope(self, x: FieldExpr, y: FieldExpr) -> dict:
        """All singular poles {n >= 1: expression} of the product x(z) y(w)."""
        self._fuel = 0
        p = x.parity() if x == y else None
        if p is not None:
            out = self._self_ope(x.terms, p)
        else:
            out = {}
            for m1, c1 in x.terms.items():
                for m2, c2 in y.terms.items():
                    k = c1 * c2
                    for n, e in self.ope_mono(m1, m2).items():
                        self._add(out.setdefault(n, {}), e, k)
        return {n: FieldExpr(self.algebra, t) for n, t in out.items() if t}

    def _self_ope(self, x: dict, p: int) -> dict:
        """[x x] for x of parity p from the monomial pairs i <= j: the
        pairs i > j sum to the exchange of the strict upper triangle."""
        terms = list(x.items())
        out, upper = {}, {}
        for i, (m1, c1) in enumerate(terms):
            for n, e in self.ope_mono(m1, m1).items():
                self._add(out.setdefault(n, {}), e, c1 * c1)
            for m2, c2 in terms[i + 1:]:
                k = c1 * c2
                for n, e in self.ope_mono(m1, m2).items():
                    self._add(upper.setdefault(n, {}), e, k)
        for half in (upper, self._flip(upper, p, p)):
            for n, e in half.items():
                self._add(out.setdefault(n, {}), e)
        return out

    def normal_product(self, x: FieldExpr, y: FieldExpr) -> FieldExpr:
        self._fuel = 0
        return FieldExpr(self.algebra, self._nexpr2(x.terms, y.terms))

    def derivative(self, x: FieldExpr, k: int = 1) -> FieldExpr:
        self._fuel = 0
        return FieldExpr(self.algebra, self._dexpr(x.terms, k))

    # -- operator products on monomials ------------------------------------

    def ope_mono(self, m1: Monomial, m2: Monomial) -> dict:
        key = (m1, m2)
        hit = self._ope_memo.get(key)
        if hit is not None:
            return hit
        if not self._contracts(m1, m2):
            out = {}
        elif len(m1) == 1 and len(m2) == 1:
            out = self._ope_single(m1[0], m2[0])
        elif len(m2) >= 2:
            out = self._wick(m1, m2)
        else:
            rev = self.ope_mono(m2, m1)
            out = self._flip(rev, self.algebra.mono_parity(m1),
                             self.algebra.mono_parity(m2))
        self._ope_memo[key] = out
        return out

    def _contracts(self, m1: Monomial, m2: Monomial) -> bool:
        """Whether a generator of m1 has a nonzero stored product with a
        generator of m2; false when either monomial is the unit."""
        names = {f[0] for f in m2}
        partners = self.algebra.partners
        for f in m1:
            if not names.isdisjoint(partners(f[0])):
                return True
        return False

    def _ope_single(self, f1, f2) -> dict:
        """[D^a(A) D^b(B)] for two factors, from the table entry [A B] in
        closed form.  [A D^b(B)]_(m+k) gets binom(b, k) m(m+1)...(m+k-1)
        D^(b-k)([A B]_m), and [D^a(X) Y]_(n+a) is (-1)^a n(n+1)...(n+a-1)
        [X Y]_n; so the pole N = m + a + b - j gets (-1)^a binom(b, j)
        m(m+1)...(N-1) D^j([A B]_m).  Each pole is differentiated one step
        at a time.  ``ope_mono`` memoizes the result and [A B] itself, so a
        table entry stored the other way round is flipped once."""
        (n1, a), (n2, b) = f1, f2
        if not (a or b):
            return self._table_poles(n1, n2)
        out = {}
        for m, e in self.ope_mono(Monomial(((n1, 0),)),
                                  Monomial(((n2, 0),))).items():
            for j in range(b + 1):
                if j:
                    e = self._dexpr(e, 1)
                n = m + a + b - j
                k = (-1) ** a * comb(b, j) * perm(n - 1, n - m)
                self._add(out.setdefault(n, {}), e,
                          None if k == 1 else _const(k))
        return {n: t for n, t in out.items() if t}

    def _table_poles(self, n1, n2) -> dict:
        """[n1 n2] for two generators, from the stored orientation."""
        poles, flipped = self.algebra.table_entry(n1, n2)
        if poles is None:
            return {}
        poles = {n: e.terms for n, e in poles.items()}
        if not flipped:
            return poles
        return self._flip(poles, self.algebra.decl(n1).parity,
                          self.algebra.decl(n2).parity)

    def _flip(self, poles: dict, p1: int, p2: int) -> dict:
        """[A B] from the poles of [B A] by the exchange formula: the pole
        l of [B A] adds sign (-1)^l / (l - n)! D^(l-n)([B A]_l) to every
        pole n <= l."""
        sign = -1 if p1 and p2 else 1
        out = {}
        for l, e in poles.items():
            for n in range(l, 0, -1):
                if n < l:
                    e = self._dexpr(e, 1)
                self._add(out.setdefault(n, {}), e,
                          _const(sign * (-1) ** l, factorial(l - n)))
        return {n: t for n, t in out.items() if t}

    def _wick(self, a: Monomial, b: Monomial) -> dict:
        """[A N(h, T)] for a composite right factor: the pole n gets
        sign N(h, [A T]_n), N([A h]_n, T) and binom(n - 1, j) [[A h]_m T]_j
        for every m + j = n."""
        alg = self.algebra
        h = b[0]
        t = Monomial(b[1:])
        sign = _const(-1 if (alg.mono_parity(a)
                             and alg.decl(h[0]).parity) else 1)
        out = {}
        for n, e in self.ope_mono(a, t).items():
            self._add(out.setdefault(n, {}), self._nexpr_factor(h, e), sign)
        for m, e in self.ope_mono(a, Monomial((h,))).items():
            self._add(out.setdefault(m, {}), self._nexpr_right(e, t))
            for j, sub in self._ope_expr_mono(e, t).items():
                self._add(out.setdefault(m + j, {}), sub,
                          _const(comb(m + j - 1, j)))
        return {n: t for n, t in out.items() if t}

    # -- normal ordering ----------------------------------------------------

    def nmono_single(self, f, m: Monomial) -> dict:
        """Canonical form of N(f, M) for a single factor f."""
        key = (f, m)
        hit = self._nprod_memo.get(key)
        if hit is not None:
            return hit
        alg = self.algebra
        if not m:
            out = {Monomial((f,)): RF_ONE}
        else:
            g = m[0]
            kf, kg = alg.factor_key(f), alg.factor_key(g)
            odd_f = alg.decl(f[0]).parity
            if kf < kg or (kf == kg and not odd_f):
                out = {Monomial((f, *m)): RF_ONE}
            else:
                # swap: N(A, N(B, X)) = +/- N(B, N(A, X)) + corrections; for
                # B = A odd the swap term is -N(A, N(A, X)), so the
                # corrections alone are twice the product
                rest = Monomial(m[1:])
                same = kf == kg
                out = {}
                if not same:
                    sign = _const(-1 if odd_f and alg.decl(g[0]).parity
                                  else 1)
                    swapped = self.nmono_single(f, rest)
                    self._add(out, self._nexpr_factor(g, swapped), sign)
                for l, e in self.ope_mono(Monomial((f,)),
                                          Monomial((g,))).items():
                    k = _const((-1) ** (l - 1), (1 + same) * factorial(l))
                    self._add(out, self._nexpr_right(self._dexpr(e, l), rest), k)
        self._nprod_memo[key] = out
        return out

    def nmono2(self, m1: Monomial, m2: Monomial) -> dict:
        """Canonical form of N(M1, M2) for arbitrary monomials."""
        if not m1:
            return {m2: RF_ONE}
        if not m2:
            return {m1: RF_ONE}
        if len(m1) == 1:
            return self.nmono_single(m1[0], m2)
        key = (m1, m2)
        hit = self._nprod_memo.get(key)
        if hit is not None:
            return hit
        alg = self.algebra
        h = m1[0]
        s = Monomial(m1[1:])
        # N(N(h, S), C) = N(h, N(S, C)) + quasi-associativity corrections
        out = {}
        self._add(out, self._nexpr_factor(h, self.nmono2(s, m2)))
        for l, e in self.ope_mono(s, m2).items():
            dh = (h[0], h[1] + l)
            self._add(out, self._nexpr_factor(dh, e), _const(1, factorial(l)))
        ph = alg.decl(h[0]).parity
        ps = alg.mono_parity(s)
        sign = -1 if ph and ps else 1
        for l, e in self.ope_mono(Monomial((h,)), m2).items():
            ds = self._dexpr({s: RF_ONE}, l)
            self._add(out, self._nexpr2(ds, e), _const(sign, factorial(l)))
        self._nprod_memo[key] = out
        return out

    def deriv_mono(self, m: Monomial) -> dict:
        hit = self._deriv_memo.get(m)
        if hit is not None:
            return hit
        if not m:
            out = {}
        elif len(m) == 1:
            name, d = m[0]
            out = {Monomial(((name, d + 1),)): RF_ONE}
        else:
            h = m[0]
            rest = Monomial(m[1:])
            out = {}
            self._add(out, self.nmono_single((h[0], h[1] + 1), rest))
            self._add(out, self._nexpr_factor(h, self.deriv_mono(rest)))
        self._deriv_memo[m] = out
        return out

    # -- expression-level helpers -------------------------------------------

    def _dexpr(self, x: dict, k: int) -> dict:
        for _ in range(k):
            acc = {}
            for m, c in x.items():
                self._add(acc, self.deriv_mono(m), c)
            x = acc
        return x

    def _nexpr_factor(self, f, x: dict) -> dict:
        out = {}
        for m, c in x.items():
            self._add(out, self.nmono_single(f, m), c)
        return out

    def _nexpr_right(self, x: dict, m2: Monomial) -> dict:
        out = {}
        for m, c in x.items():
            self._add(out, self.nmono2(m, m2), c)
        return out

    def _nexpr2(self, x: dict, y: dict) -> dict:
        out = {}
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                self._add(out, self.nmono2(m1, m2), c1 * c2)
        return out

    def _ope_expr_mono(self, x: dict, m2: Monomial) -> dict:
        out = {}
        for m, c in x.items():
            for n, e in self.ope_mono(m, m2).items():
                self._add(out.setdefault(n, {}), e, c)
        return {n: t for n, t in out.items() if t}

    def _add(self, dst: dict, x: dict, k: RationalFunction = None):
        """``dst += k x`` term by term (``k`` None: unscaled), one unit of
        fuel per term.  ``dst`` is a dict of terms the caller has just made;
        ``x`` is never written.  Its terms and ``k`` are nonzero, so a new
        key never gets zero; a key whose sum is zero is dropped."""
        self._fuel += len(x)
        if self._fuel > MAX_FUEL:
            # memo hits spend no fuel: no retry may find this call's memos
            for memo in (self._ope_memo, self._nprod_memo, self._deriv_memo):
                memo.clear()
            raise EngineError("rewriting fuel exhausted: the computation "
                              f"adds more than {MAX_FUEL} terms")
        get = dst.get
        for m, v in x.items():
            if k is not None:
                v = v * k
            cur = get(m)
            if cur is None:
                dst[m] = v
            elif v := cur + v:
                dst[m] = v
            else:
                del dst[m]
