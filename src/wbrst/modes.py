"""Fock-space mode oracle for free fermionic bc systems.

Independent cross-validation of the operator product engine: composite
fields are expanded into Laurent modes acting on explicit states, the
singular products are reconstructed from mode commutators, and the
matrices are compared entry by entry with the engine output.  All
arithmetic is exact; parameterized tables must be specialized to numbers
first.  Every input, a monomial or a field expression, compiles on a
slice to one expression of one weight and one parity; anything else, the
zero expression included, raises ``ModeError``.

``crosscheck`` and ``crosscheck_bundle`` run jobs through one pipeline: a
pair of expressions on a slice, or the central charge of a stress tensor
read on one.  A ``crosscheck`` pair runs on the slice of the bc systems it
names, shared by the pairs that name the same ones.  Jobs whose inputs are the same in slice field indices, on
slices of the same weights and level (systems of one weight, such as
W3^(2)'s bp and bm), are one unit that solves the commutators once.  The
caller and up to one forked worker per further usable CPU take units,
largest first, from one pipe queue; a worker dies with its caller.  Each
error comes back as text and is raised again alike from any process, so
the report, or the first failing job's error, is that of one process.

Inside a slice the work is done on integers.  A mode m of a field of
weight h has the offset n = m + h: creation modes are n <= 0, and a
derivative's prefactor is an integer product.  Levels are ints scaled by
``den``, the lcm of the weights' denominators.  A state is an int bitmask
over the creation modes, the product of its modes from the highest bit
down: with F fields in the slice, the offset -k of field f is bit
k * F + (F - 1 - f), so every mode has a bit and no width is needed.  A
mode flips one bit, with the fermion sign of the popcount above it.
Tuple states, in ``op_key`` order, appear only at the API edge, times the
sign of reordering their modes into bit order.

The two-factor terms of one field pair and total derivative order, such
as the two terms of a bc stress tensor, compile to one pair plan walked
once for every split; longer products recurse onto it.  When both sides
of a product are one expression, the commutator sample (q, p) is -csign
times the sample (p, q), so mirrored samples are computed once.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import islice
from math import comb, floor, gcd, lcm

from .errors import WbrstError, carried, rebuilt
from .fields import FieldExpr, Monomial
from .scalars import RF_ONE, _add_into


# The most states one slice may hold: thirty times the largest slice that
# a test or benchmark check builds (w32_ghosts_free at level 2, 4184).
MAX_STATES = 130_000


class ModeError(WbrstError):
    pass


@dataclass(frozen=True)
class BcSystem:
    """A fermionic first-order pair: b of weight lam, c of weight 1 - lam,
    with b(z) c(w) ~ 1/(z - w), i.e. {b_m, c_n} = delta_{m+n,0}."""
    b: str
    c: str
    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))

    def weight(self, name):
        if name == self.b:
            return self.lam
        if name == self.c:
            return 1 - self.lam
        raise ModeError(f"{name!r} is not part of this system")


class FockSlice:
    """States of the tensor product of bc Fock spaces, graded by level.

    The vacuum is SL(2)-invariant: a mode A_m annihilates it exactly when
    m > -h_A.  The basis holds all states of level 0 through L; operators
    may map basis states to arbitrary states outside the basis.  A basis
    of more than ``MAX_STATES`` states raises ``ModeError``.
    """

    def __init__(self, systems, level):
        self.systems = tuple(systems)
        self.level = _slice_level(level)
        names = {}
        for i, s in enumerate(self.systems):
            for kind, name in enumerate((s.b, s.c)):
                if name in names:
                    raise ModeError(f"duplicate field name {name!r}")
                names[name] = (i, kind, s.weight(name))
        self._names = names
        # field f = 2 * system + kind is op_key order, f ^ 1 its conjugate
        self._fields = list(names)
        weights = [names[n][2] for n in self._fields]
        self._den = den = lcm(*(h.denominator for h in weights))
        self._dh = [int(h * den) for h in weights]
        self._nf = len(weights)
        # den times the lowest level of any state: every creation mode
        # m > 0 applied (c-type zero and negative-level modes pull below
        # the vacuum)
        self._dlmin = -sum(sum(range(-dh, 0, -den)) for dh in self._dh)
        self._enumerate()
        self._plans, self._exprs, self._tuples = {}, {}, {}

    def weight(self, name) -> Fraction:
        try:
            return self._names[name][2]
        except KeyError:
            raise ModeError(f"unknown field {name!r}") from None

    def op_key(self, op):
        name, m = op
        i, kind, _ = self._names[name]
        return (i, kind, m)

    def level_of(self, state) -> Fraction:
        return -sum((m for _, m in state), Fraction(0))

    def _enumerate(self):
        """Set the basis in order, den times each state's height above
        the lowest level (``_lvs``) and its bitmask (``_states``)."""
        den, top = self._den, floor(self._den * self.level)
        ops = []  # (field, -k, den times the level it adds, the op)
        # the vacuum and each mode that does not lower the level are
        # states, counted without listing the modes of a huge level
        known = 1
        for f, name in enumerate(self._fields):
            dh = self._dh[f]
            first = dh % den if dh < 0 else dh  # the first dl >= 0
            known += max(0, (top - first) // den + 1)
            if known > MAX_STATES:
                self._too_many()
            for k, dl in enumerate(range(dh, top + 1, den)):
                ops.append((f, -k, dl, (name, Fraction(-dl, den))))
        ops.sort()  # op_key order
        # drop[i]: the most the ops from i on can lower the level
        drop = [0] * (len(ops) + 1)
        for i in range(len(ops) - 1, -1, -1):
            drop[i] = drop[i + 1] + max(-ops[i][2], 0)
        out = []

        def extend(prefix, start, lvl):
            if 0 <= lvl <= top:
                out.append((lvl, len(prefix), prefix))
                if len(out) > MAX_STATES:
                    self._too_many()
            for i in range(start, len(ops)):
                nxt = lvl + ops[i][2]
                # prune when the later ops cannot bring the level back
                # down into the slice
                if nxt - drop[i + 1] <= top:
                    extend(prefix + (i,), i + 1, nxt)

        extend((), 0, 0)
        out.sort()  # by level, length and op_key order
        self.basis = [tuple(ops[i][3] for i in st) for _, _, st in out]
        self._lvs = [lvl - self._dlmin for lvl, _, _ in out]
        self._states = [sum(1 << self._bit(*ops[i][:2]) for i in st)
                        for _, _, st in out]

    def _too_many(self):
        raise ModeError(f"the slice at level {self.level} holds more than "
                        f"{MAX_STATES} states")

    def apply_op(self, op, state):
        """X_m applied to one state; returns {state: Fraction}."""
        name, m = op
        n = m + self.weight(name)
        if n != int(n):
            return {}
        s, sign = self._mask(state)
        hit = self._op(self._field(name), int(n), s)
        if not hit:
            return {}
        out, osign = self._tuple(hit[0])
        return {out: Fraction(sign * osign * hit[1])}

    # -- the integer encoding ----------------------------------------------

    def _field(self, name):
        self.weight(name)  # a name outside the slice raises ModeError
        i, kind, _ = self._names[name]
        return 2 * i + kind

    def _bit(self, f, n):
        """The bit of field f's creation mode at offset n <= 0."""
        return self._nf * (1 - n) - 1 - f

    def _mask(self, state):
        """The bitmask of a tuple state and the sign of its reordering."""
        s, fks = 0, []
        for name, m in state:
            f = self._field(name)
            k = -(m + self.weight(name))
            if k < 0 or k != int(k):
                raise ModeError(f"{(name, m)!r} is not a creation mode")
            s |= 1 << self._bit(f, -int(k))
            fks.append((f, k))
        keys = [self.op_key(op) for op in state]
        if keys != sorted(set(keys)):
            raise ModeError(f"{state!r} is not in increasing op_key order")
        return s, _reorder_sign(fks)

    def _tuple(self, s):
        """The tuple state of a bitmask, in op_key order, and the sign of
        its reordering."""
        out = self._tuples.get(s)
        if out is None:
            nf, fks, x = self._nf, [], s
            while x:
                p = x.bit_length() - 1
                x ^= 1 << p
                k, lane = divmod(p, nf)
                fks.append((nf - 1 - lane, k))
            fks.sort(key=lambda fk: (fk[0], -fk[1]))  # op_key order
            names = self._fields
            out = self._tuples[s] = (
                tuple((names[f], -k - self._names[names[f]][2])
                      for f, k in fks), _reorder_sign(fks))
        return out

    def _op(self, f, n, s):
        """The mode with offset n of field f on state s: (state, +-1) or
        None.  A creation mode sets its bit (_bit's, inlined), an
        annihilation mode clears that of the conjugate creation mode 1 - n."""
        if n <= 0:
            bit = self._nf * (1 - n) - 1 - f
            if s >> bit & 1:
                return None
            return s | 1 << bit, -1 if (s >> bit).bit_count() & 1 else 1
        bit = self._nf * n - 1 - (f ^ 1)
        if not s >> bit & 1:
            return None
        return s ^ 1 << bit, -1 if (s >> bit + 1).bit_count() & 1 else 1

    def _plan(self, factors):
        """The compiled product of ``factors``, shared by every expression
        on this slice; a product of two factors is a pair plan."""
        if len(factors) == 2:
            (a, d), (b, e) = factors
            return self._pair(a, b, ((d, e, 1),))
        plan = self._plans.get(factors)
        if plan is None:
            plan = self._plans[factors] = _Plan(self, factors)
        return plan

    def _pair(self, a, b, splits):
        key = (a, b, splits)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _Pair(self, a, b, splits)
        return plan

    def _compile(self, x):
        """A monomial or numeric field expression as one _Expr, shared by
        every call on this slice.  An expression whose terms do not have
        one weight, the zero expression included, or one parity raises
        ModeError."""
        terms = tuple(sorted((mono.factors, _const(v))
                             for mono, v in _terms(x)))
        ex = self._exprs.get(terms)
        if ex is None:
            weights = {_mono_weight(self, factors) for factors, _ in terms}
            if len(weights) != 1:
                raise ModeError("expression must have a single weight")
            parities = {len(factors) % 2 for factors, _ in terms}
            if len(parities) != 1:
                raise ModeError("expression must have a single parity")
            ex = self._exprs[terms] = _Expr(self, *weights, *parities, terms)
        return ex

    def tabulated(self) -> int:
        """How many (offset, state) entries the memos of this slice's
        compiled products and the tables of its expressions hold."""
        return (sum(len(plan.memo) for plan in self._plans.values())
                + sum(len(ex.table) for ex in self._exprs.values()))


class _Plan:
    """A single factor, or a right-nested product of three or more,
    compiled on a slice: the head's field f and derivative order d, den
    times the weights of head and tail, the sign of moving the head
    across the tail, the tail's plan (None for one factor), ``memo`` from
    (offset, state) to the output and ``walk``, the function applying it."""

    __slots__ = ("walk", "f", "d", "dha", "dhrest", "sign", "rest", "memo")

    def __init__(self, slc, factors):
        (name, self.d), tail = factors[0], factors[1:]
        self.f = slc._field(name)
        self.dha = slc._dh[self.f] + slc._den * self.d
        self.rest = slc._plan(tail) if tail else None
        self.walk = _apply_plan if tail else _apply_leaf
        self.sign = -1 if len(tail) % 2 else 1
        self.dhrest = sum(slc._dh[slc._field(n)] + slc._den * d
                          for n, d in tail)
        self.memo = {}


class _Pair:
    """The two-factor products of one field pair (f, g) and total
    derivative order ``de``, compiled on a slice as one walk: the sum of
    k N(d^d f, d^e g) over ``splits`` ((d, e, k), ...).  The offsets t of
    f and u of g add up to n - de for every split, so each hit (t, u) is
    visited once, with its _split_sum (``weights`` by (n - de, u)).  dhf,
    dhg: den times the weights; ``memo``: (offset, state) to output."""

    __slots__ = ("walk", "f", "g", "de", "splits", "weights", "dhf", "dhg",
                 "memo")

    def __init__(self, slc, a, b, splits):
        self.walk = _apply_pair
        self.f, self.g = slc._field(a), slc._field(b)
        self.splits, self.weights, self.memo = splits, {}, {}
        self.de = splits[0][0] + splits[0][1]
        self.dhf, self.dhg = slc._dh[self.f], slc._dh[self.g]


class _Expr:
    """An expression of one weight and parity (0 even, 1 odd) compiled on
    a slice: ((plan, or None for the unit, int coefficient), ...) over
    ``den``; ``table`` maps (offset, state) to the output.  The
    two-factor terms of one field pair and total derivative order are one
    pair plan, the gcd of their coefficients taken out.  ``plan``: the
    plan of a single plan with coefficient 1, else None."""

    __slots__ = ("weight", "parity", "dweight", "terms", "den", "table",
                 "plan")

    def __init__(self, slc, weight, parity, group):
        self.weight, self.parity = weight, parity
        self.dweight = int(weight * slc._den)
        self.den = lcm(*(k.denominator for _, k in group))
        pairs = {}
        for factors, k in group:
            if len(factors) == 2:
                (a, d), (b, e) = factors
                pairs.setdefault((a, b, d + e), []).append(
                    (d, e, int(k * self.den)))
        terms = []
        for factors, k in group:
            if len(factors) != 2:
                terms.append((slc._plan(factors) if factors else None,
                              int(k * self.den)))
                continue
            (a, d), (b, e) = factors
            splits = pairs.pop((a, b, d + e), None)
            if splits is not None:  # at the first term of its pair plan
                g = gcd(*(k for _, _, k in splits))
                terms.append((slc._pair(a, b, tuple(
                    (d, e, k // g) for d, e, k in splits)), g))
        self.terms = tuple(terms)
        self.table = {}
        (plan, k), *more = self.terms
        self.plan = plan if k == 1 and not more else None


def _slice_level(level) -> Fraction:
    """A slice level as a Fraction; a negative one raises ModeError."""
    if Fraction(level) < 0:
        raise ModeError(f"slice level must be at least 0, not {level}")
    return Fraction(level)


def _reorder_sign(fks):
    """The sign of reordering creation modes (field, k) from op_key order
    into bit order: two modes swap when the first has the lower k."""
    swaps = sum(k < j for i, (_, k) in enumerate(fks) for _, j in fks[i + 1:])
    return -1 if swaps & 1 else 1


@dataclass
class ModeMatrix:
    """Sparse operator matrix: basis state -> {output state: value}."""
    mode: Fraction
    columns: dict = field(default_factory=dict)

    @property
    def is_zero(self):
        return not any(self.columns.values())


def _first_difference(slc, a, b, da, db):
    """The first state, in insertion order, at which the bitmask columns
    a / da and b / db differ, and its differing output that comes first
    in op_key order: (state, output, x, y); the dict merges reuse the
    stored key hashes."""
    for s in {**a, **b}:
        ca, cb = a.get(s, {}), b.get(s, {})
        diff = [o for o in {**ca, **cb}
                if ca.get(o, 0) * db != cb.get(o, 0) * da]
        if diff:
            o = min(diff, key=lambda o: [slc.op_key(op)
                                         for op in slc._tuple(o)[0]])
            return s, o, ca.get(o, 0), cb.get(o, 0)
    return None


# -- composite modes -------------------------------------------------------


def _prefactor(d, n):
    """(dA)_m = (-m - h) A_m = -n A_m: the d-th derivative of a field at
    offset n carries prod(-n - i) for i < d."""
    k = 1
    for i in range(d):
        k *= -n - i
    return k


def _apply_leaf(slc, plan, n, s, lv):
    """The mode with offset n of a single factor on state s: {state: int}."""
    d = plan.d
    k = _prefactor(d, n - d) if d else 1
    hit = slc._op(plan.f, n - d, s) if k else None
    return {hit[0]: k * hit[1]} if hit else {}


def _split_sum(splits, t, u):
    """The weight of the hit (t, u) of a pair plan: the sum over its
    splits of k prod(-t - i) prod(-u - i)."""
    return sum(k * _prefactor(d, t) * _prefactor(e, u) for d, e, k in splits)


def _apply_pair(slc, pair, n, s, lv):
    """The mode with offset n of a pair plan on state s, whose level is
    lv / den above the lowest: {state: int}.  The double sum over offsets
    t + u = n - de, sum_{t <= 0} f_t g_u - sum_{t >= 1} g_u f_t, for all
    splits at once; a hit's modes are applied inline, as by _op, where
    its _split_sum is not zero.  g's creation modes act while the output
    stays above the lowest level, annihilation modes at occupied bits."""
    out = pair.memo.get((n, s))
    if out is not None:
        return out
    out = {}
    den, nf = slc._den, slc._nf
    f, g, splits = pair.f, pair.g, pair.splits
    nn = n - pair.de
    weights = pair.weights
    # field x's creation offset u <= 0 is bit bx - nf * u, and its
    # annihilation offset u >= 1 clears bit bxc + nf * u, of x ^ 1; c
    # such bits from one on, nf apart, are masked by ((1 << nf * c) - 1)
    # // rep, rep = (1 << nf) - 1
    rep = (1 << nf) - 1
    bg, bf = nf - 1 - g, nf - 1 - f
    bgc, bfc = -1 - (g ^ 1), -1 - (f ^ 1)
    top = (lv + pair.dhg) // den
    us = list(range(nn, (top if top < 0 else 0) + 1))
    lo = nn if nn > 1 else 1
    # g's annihilation offsets lo .. top, at held bits
    x = (s >> bgc + nf * lo & ((1 << nf * (top - lo + 1)) - 1) // rep
         if top >= lo else 0)
    while x:
        low = x & -x
        x ^= low
        us.append(lo + (low.bit_length() - 1) // nf)
    for u in us:
        k = weights.get((nn, u))
        if k is None:
            k = weights[nn, u] = _split_sum(splits, nn - u, u)
        if not k:
            continue
        if u <= 0:
            gb = bg - nf * u
            if s >> gb & 1:
                continue
        else:
            gb = bgc + nf * u
        s1 = s ^ 1 << gb
        fb = bf - nf * (nn - u)
        if s1 >> fb & 1:
            continue
        s2 = s1 | 1 << fb
        if ((s >> gb + 1).bit_count() + (s1 >> fb).bit_count()) & 1:
            k = -k
        _add_into(out, s2, k)
    hi = (lv + pair.dhf) // den
    x = s >> bfc + nf & ((1 << nf * hi) - 1) // rep if hi > 0 else 0
    while x:  # f's annihilation offsets 1 .. hi, at held bits
        low = x & -x
        x ^= low
        t = (low.bit_length() - 1) // nf + 1
        u = nn - t
        k = weights.get((nn, u))
        if k is None:
            k = weights[nn, u] = _split_sum(splits, t, u)
        if not k:
            continue
        fb = bfc + nf * t
        s1 = s ^ 1 << fb
        if u <= 0:
            gb = bg - nf * u
            if s1 >> gb & 1:
                continue
        else:
            gb = bgc + nf * u
            if not s1 >> gb & 1:
                continue
        s2 = s1 ^ 1 << gb
        if not ((s >> fb + 1).bit_count() + (s1 >> gb + 1).bit_count()) & 1:
            k = -k
        _add_into(out, s2, k)
    pair.memo[(n, s)] = out
    return out


def _apply_plan(slc, plan, n, s, lv):
    """The mode with offset n of a product of three or more factors on
    state s, whose level is lv / den above the lowest: {state: int}: the
    composite-mode double sum with the head split at its weight; the
    head annihilates only at occupied bits."""
    out = plan.memo.get((n, s))
    if out is not None:
        return out
    out = {}
    f, d, rest = plan.f, plan.d, plan.rest
    op, den, walk = slc._op, slc._den, rest.walk
    # creation part of the head, offsets j - d for j <= 0, applied after
    # the tail; the tail's output may not fall below the lowest level
    stop = n - (lv + plan.dhrest) // den - 1
    for j in range(0, stop, -1):
        for s1, v1 in walk(slc, rest, n - j, s, lv).items():
            hit = op(f, j - d, s1)
            if hit:
                k = _prefactor(d, j - d)
                _add_into(out, hit[0], k * hit[1] * v1)
    # annihilation part of the head, offsets t = j - d >= 1 at occupied
    # bits (masked as in _apply_pair), goes first with the exchange sign;
    # it lifts the level by ha - j
    nf, hi = slc._nf, (lv + plan.dha) // den - d
    x = (s >> nf - 1 - (f ^ 1) & ((1 << nf * hi) - 1) // ((1 << nf) - 1)
         if hi > 0 else 0)
    while x:
        low = x & -x
        x ^= low
        t = (low.bit_length() - 1) // nf + 1
        s1, sign = op(f, t, s)
        k = plan.sign * sign * _prefactor(d, t)
        lv1 = lv + plan.dha - den * (t + d)
        for s2, v2 in walk(slc, rest, n - t - d, s1, lv1).items():
            _add_into(out, s2, k * v2)
    plan.memo[(n, s)] = out
    return out


def _apply(slc, ex, n, s, lv):
    """The mode with offset n of a compiled expression on state s, as
    {state: int} over ex.den, tabulated once per slice (in ex.plan's memo
    when there is one)."""
    plan = ex.plan
    if plan is not None:
        return plan.walk(slc, plan, n, s, lv)
    out = ex.table.get((n, s))
    if out is None:
        out = {}
        for plan, k in ex.terms:
            if plan is not None:
                for s1, v in plan.walk(slc, plan, n, s, lv).items():
                    _add_into(out, s1, k * v)
            elif n == 0:
                _add_into(out, s, k)
        ex.table[(n, s)] = out
    return out


def _const(v) -> Fraction:
    if not v.is_constant:
        raise ModeError("oracle needs numeric coefficients; substitute "
                        "parameters first")
    return v.constant_value()


def _mode_columns(ex, m, slc):
    """The m-th mode of a compiled expression on the slice basis as
    ({basis state: {state: int}}, ex.den), in basis order: the tabulated
    columns, empty off the mode lattice (a weight-3/2 field at integer
    m)."""
    n = m + ex.weight
    return {s: _apply(slc, ex, int(n), s, lv) if n.denominator == 1 else {}
            for s, lv in zip(slc._states, slc._lvs)}, ex.den


def _matrix(slc, m, cols, den) -> ModeMatrix:
    """The tuple-keyed ModeMatrix of bitmask columns over den, each entry
    times the reordering signs of its two states."""
    out = {}
    for s in slc._states:
        state, sign = slc._tuple(s)
        col = out[state] = {}
        for o, v in cols[s].items():
            o, osign = slc._tuple(o)
            col[o] = Fraction(sign * osign * v, den)
    return ModeMatrix(m, out)


def field_modes(x, m, slc: FockSlice) -> ModeMatrix:
    """Matrix of the m-th Laurent mode of a monomial or field expression
    of one weight and parity on the slice basis; any other expression
    raises ModeError."""
    m = Fraction(m)
    return _matrix(slc, m, *_mode_columns(slc._compile(x), m, slc))


# -- singular products from commutators ------------------------------------


@cache
def _sample_solver(nun):
    """The integer left inverse of the sample matrix [binom(x, j)], x =
    p + h_a - 1 at the nun + 3 samples x0 = -(nun // 2) - 1, x0 + 1, ...
    of _pole_columns.  The differences D_i = sum_k (-1)^(i-k) binom(i, k)
    S_k of the samples are sum_(j >= i) binom(x0, j - i) C_j, so C_i =
    sum_(i <= j < nun) binom(-x0, j - i) D_j.  Returns nun + 3 rows: the
    unknowns, then D_nun .. D_nun+2, zero exactly when consistent."""
    x0 = -(nun // 2) - 1
    diffs = [[(-1) ** (i + k) * comb(i, k) for k in range(nun + 3)]
             for i in range(nun + 3)]
    rows = [[sum(comb(-x0, j - i) * diffs[j][k] for j in range(i, nun))
             for k in range(nun + 3)] for i in range(nun)]
    return tuple(map(tuple, rows + diffs[nun:]))


def _pole_columns(a, b, r, slc, nun):
    """ope_poles_from_modes as ([{basis state: {state: int}} for poles
    1 .. nun], den), in basis order."""
    ea, eb = slc._compile(a), slc._compile(b)
    csign = -1 if ea.parity and eb.parity else 1
    den = slc._den
    coms = []
    nab = r + ea.weight + eb.weight
    if nab.denominator == 1:  # else every b_q vanishes
        # a self-pair's sample (nb, na) is -csign times that of (na, nb):
        # read off its mirror, and zero at na = nb when even
        mirror = ea is eb
        done = {}
        for na in range(-(nun // 2), nun + 3 - nun // 2):  # p + ha
            nb = int(nab) - na
            if mirror and nb in done:
                coms.append([{o: -csign * v for o, v in col.items()}
                             for col in done[nb]])
                continue
            if mirror and na == nb and csign == 1:
                coms.append([{} for _ in slc._states])
                continue
            com = done[na] = []
            # b_nb then a_na, and a_na then b_nb with the sign -csign
            sides = ((eb, nb, ea, na, eb.dweight - den * nb, 1),
                     (ea, na, eb, nb, ea.dweight - den * na, -csign))
            for s, lv in zip(slc._states, slc._lvs):
                col = {}
                for x, nx, y, ny, dl, sign in sides:
                    for s1, v1 in _apply(slc, x, nx, s, lv).items():
                        v1 *= sign
                        for s2, v2 in _apply(slc, y, ny, s1, lv + dl).items():
                            v2 = col.get(s2, 0) + v1 * v2
                            if v2:
                                col[s2] = v2
                            else:
                                del col[s2]
                com.append(col)
            coms.append(com)
    # solve column by column for the pole matrices
    rows = _sample_solver(nun)
    poles = [{} for _ in range(nun)]
    for i, s in enumerate(slc._states):
        cols = [com[i] for com in coms]
        gets = [col.get for col in cols]
        for pole in poles:
            pole[s] = {}
        out = [pole[s] for pole in poles]
        for o in set().union(*cols):
            rhs = [get(o, 0) for get in gets]
            vs = [sum(map(int.__mul__, row, rhs)) for row in rows]
            if any(vs[nun:]):
                raise ModeError("mode commutators need more poles than "
                                f"max_pole={nun}")
            for col, v in zip(out, vs):
                if v:
                    col[o] = v
    return poles, ea.den * eb.den


def ope_poles_from_modes(a, b, r, slc: FockSlice, max_pole=8) -> dict:
    """All pole matrices of the product of a and b at total mode r,
    reconstructed from mode commutators alone: {n: ModeMatrix} for n = 1
    .. max_pole.

    The graded commutator [a_p, b_q] equals sum_j binom(p + h_a - 1, j)
    ([ab]_{j+1})_{p+q}; varying p at fixed p + q = r gives a linear
    system for the pole-field matrices.  A pole above ``max_pole`` makes
    it inconsistent and raises ModeError."""
    r = Fraction(r)
    poles, den = _pole_columns(a, b, r, slc, max_pole)
    return {j + 1: _matrix(slc, r, cols, den)
            for j, cols in enumerate(poles)}


def _mono_weight(slc, factors):
    return sum((slc.weight(n) + d for n, d in factors), Fraction(0))


def _terms(x):
    """The (monomial, coefficient) terms of a monomial or field
    expression."""
    return ((x, RF_ONE),) if isinstance(x, Monomial) else x.terms.items()


# -- engine comparison ------------------------------------------------------


def systems_from_algebra(algebra) -> tuple:
    """Read the bc pairs off a frozen table of pure delta-function
    contractions: every stored product must be a single first-order pole
    equal to the unit between two fields, and every generator must be in
    one pair."""
    pairs = []
    seen = set()
    for (a, b), poles in algebra.table_items():
        if not poles:
            continue
        unit = FieldExpr.unit(algebra)
        if a == b or set(poles) != {1} or poles[1] != unit:
            raise ModeError(f"product {a} {b} is not a free contraction")
        da, db = algebra.decl(a), algebra.decl(b)
        if not (da.parity and db.parity):
            raise ModeError("only fermionic systems are supported")
        if da.weight + db.weight != 1:
            raise ModeError(f"weights of {a}, {b} do not sum to one")
        bn, cn = (a, b) if da.weight >= db.weight else (b, a)
        if bn in seen or cn in seen:
            raise ModeError("field appears in two contractions")
        seen.update((bn, cn))
        pairs.append(BcSystem(bn, cn, algebra.decl(bn).weight))
    for name in algebra.names:
        if name not in seen:
            raise ModeError(f"generator {name} is in no bc system")
    if not pairs:
        raise ModeError("the table has no bc system")
    pairs.sort(key=lambda s: algebra.index(s.b))
    return tuple(pairs)


def crosscheck(algebra, pairs, level, modes=(0, 1, -1)) -> dict:
    """Compare engine poles with mode-commutator reconstructions for each
    pair of fields, as matrices on a slice of the bc systems that the pair
    names; pairs that name the same systems share one slice.  Returns a
    JSON-friendly report whose ``states`` is the size of the largest slice
    a pair ran on (0 without pairs); ``ok`` is True when every matrix
    matches exactly.  The first failing pair's error is raised."""
    systems = systems_from_algebra(algebra)
    level = _slice_level(level)
    slices, jobs = {}, []
    for x, y in pairs:
        named = {n for e in (x, y) for mono, _ in _terms(e)
                 for n, _ in mono.factors}
        key = tuple(s for s in systems if s.b in named or s.c in named)
        if key not in slices:
            slices[key] = FockSlice(key, level)
        jobs.append((slices[key], x, y))
    checks = []
    for out in _run_jobs(algebra, jobs, modes):
        if isinstance(out, str):
            raise rebuilt(out)
        checks += out
    return {"level": str(level),
            "states": max((len(s.basis) for s in slices.values()), default=0),
            "checks": checks, "ok": all(e["match"] for e in checks)}


def _pair_checks(algebra, slc, x, y, modes, oracles) -> list:
    """The report entries of the pair (x, y) on a slice, one per mode and
    pole.  ``oracles`` keeps the mode-commutator poles by (mode, max
    pole), so that a pair with the same inputs reads them instead of
    solving again."""
    xe, ye = (e if isinstance(e, FieldExpr) else
              FieldExpr(algebra, {e: RF_ONE}) for e in (x, y))
    hsum = slc._compile(xe).weight + slc._compile(ye).weight
    engine = {n: slc._compile(e)
              for n, e in algebra.context().ope(xe, ye).items()}
    top = max(engine, default=0) + 2
    label = f"[{_label(x)} {_label(y)}]"
    checks = []
    for m0 in modes:
        r = -(hsum - 1) + m0  # on the mode lattice of every pole field
        oracle = oracles.get((r, top))
        if oracle is None:
            try:
                oracle = _pole_columns(xe, ye, r, slc, top)
            except ModeError as err:
                oracle = err
            oracles[r, top] = oracle
        if isinstance(oracle, ModeError):
            checks.append({"pair": label, "mode": str(r), "match": False,
                           "error": str(oracle)})
            continue
        oracle, oden = oracle
        for n in range(1, top + 1):
            wanted, eden = (_mode_columns(engine[n], r, slc)
                            if n in engine else ({}, 1))
            entry = {"pair": label, "pole": n, "mode": str(r), "match": True}
            diff = _first_difference(slc, oracle[n - 1], wanted, oden, eden)
            if diff is not None:
                (s, sign), (o, osign) = map(slc._tuple, diff[:2])
                ov, ev = (sign * osign * v for v in diff[2:])
                entry.update(match=False, state=repr(s), output=repr(o),
                             oracle=str(Fraction(ov, oden)),
                             engine=str(Fraction(ev, eden)))
            checks.append(entry)
    return checks


def _indexed(slc, x):
    """The terms of a monomial or field expression with each field named
    by its index on the slice, so that the same expression on two systems
    of one weight reads the same."""
    return frozenset((tuple((slc._field(n), d) for n, d in mono.factors), v)
                     for mono, v in _terms(x))


def _estimate(slc, *exprs):
    """The rough cost of a pair's job, read from its inputs: slice states
    times commutator samples (about the pair's weight plus five) times the
    factors the two sides walk; a central charge's job reads a few, 0."""
    if len(exprs) == 1:
        return 0
    walked = sum(len(mono.factors) for e in exprs for mono, _ in _terms(e))
    hsum = sum(_mono_weight(slc, mono.factors)
               for e in exprs for mono, _ in islice(_terms(e), 1))
    return len(slc.basis) * (max(hsum, 1) + 5) * walked


def crosscheck_bundle(algebra, level, modes=(0,)) -> dict:
    """Run crosscheck over a standard pair list for each bc system of a
    free algebra, one single-system slice at a time: contraction,
    derivative, ghost current and stress tensor products.  The merged
    report also lists the per-system stress central charges.  The error
    raised is the first failing system's first failing step: its pairs in
    order, then its central charge."""
    from .algebras import ghost_stress
    ctx = algebra.context()
    systems, jobs = [], []
    for s in systems_from_algebra(algebra):
        mb, mc = Monomial(((s.b, 0),)), Monomial(((s.c, 0),))
        b, c = (FieldExpr(algebra, {m: RF_ONE}) for m in (mb, mc))
        bc = ctx.normal_product(b, c)
        t = ghost_stress(ctx, [(s.b, s.c)])
        slc = FockSlice([s], level)
        systems.append({"b": s.b, "c": s.c, "weight": str(s.lam),
                        "states": len(slc.basis)})
        pairs = ((mb, mc), (Monomial(((s.b, 1),)), mc), (bc, bc), (t, b),
                 (t, c), (t, t))
        jobs += [(slc, x, y) for x, y in pairs] + [(slc, t)]
    results = _run_jobs(algebra, jobs, modes)
    for out in results:  # in system order, then step order
        if isinstance(out, str):
            raise rebuilt(out)
    # each system's seven jobs: six pairs, then the central charge
    checks = [e for n, out in enumerate(results) if n % 7 < 6 for e in out]
    return {"level": str(Fraction(level)),
            "ok": all(e["match"] for e in checks),
            "systems": [system | charge
                        for system, charge in zip(systems, results[6::7])],
            "checks": checks}


def _run_jobs(algebra, jobs, modes) -> list:
    """The result of each job, in job order, or its error as text.  A job
    (slice, x, y) gives the report entries of the pair (x, y), and a job
    (slice, t) gives {"central_charge": c} of the stress tensor t.

    Jobs whose inputs are the same in slice field indices, on slices of
    the same weights and level, are one unit (systems of one weight, such
    as W3^(2)'s bp and bm): it solves the mode commutators once and
    compares each member's own engine poles.  The units run largest first
    through ``_drain_units``."""
    units = {}
    for n, (slc, *exprs) in enumerate(jobs):
        try:
            key = (tuple(s.lam for s in slc.systems), slc.level,
                   *(_indexed(slc, x) for x in exprs))
            cost = _estimate(slc, *exprs)
        except ModeError:  # a unit of its own, which raises when it runs
            key, cost = n, 0
        units.setdefault(key, [cost]).append(n)
    units = sorted(units.values(), key=lambda u: -u[0])  # largest first

    def run(u):
        oracles, out = {}, []
        for n in units[u][1:]:
            slc, *exprs = jobs[n]
            try:
                if len(exprs) == 1:
                    out.append({"central_charge": str(
                        stress_central_charge(*exprs, slc))})
                else:
                    out.append(_pair_checks(algebra, slc, *exprs, modes,
                                            oracles))
            except Exception as err:
                out.append(carried(err))
        return out

    done = _drain_units(run, len(units))
    results = ["a crosscheck worker ended without a report"] * len(jobs)
    for u, unit in enumerate(units):
        for n, out in zip(unit[1:], done.get(u, ())):
            results[n] = out
    return results


def _drain_units(run, count) -> dict:
    """{u: run(u)} for units 0 .. count - 1, taken in that order from one
    queue by this process and up to one forked worker per further usable
    CPU, fewer when a pipe or fork fails; the units of a worker that ends
    without a report are missing.
    A worker sends its results as one JSON line through a pipe, and ends
    when its caller does."""
    w = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        w = min(len(os.sched_getaffinity(0)), count)
    queue = _unit_queue(count) if w > 1 else None
    if queue is None:
        return {u: run(u) for u in range(count)}
    caller = os.getpid()

    def drain(worker):
        out = {}
        while record := os.read(queue, 4):
            if worker and os.getppid() != caller:
                os._exit(1)  # the caller is gone: nobody reads the report
            u = int.from_bytes(record, "little")
            out[u] = run(u)
        return out

    done, children = {}, []
    try:
        for _ in range(w - 1):
            try:
                r, wr = os.pipe()
            except OSError:  # no descriptor to spare: those running drain
                break
            try:
                pid = os.fork()
            except OSError:  # no process to spare, as under a limit
                os.close(r)
                os.close(wr)
                break
            if not pid:  # a worker writes only to its pipe
                code = 1
                try:
                    os.close(r)
                    _end_with_parent(caller)
                    with open(wr, "w", encoding="utf-8") as pipe:
                        json.dump(list(drain(True).items()), pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wr)
            children.append((pid, r))
        done = drain(False)
    finally:  # reap every worker, whatever happened here
        os.close(queue)
        for pid, r in children:
            with open(r, encoding="utf-8") as pipe:
                line = pipe.read()
            if not os.waitpid(pid, 0)[1] and line:
                done.update(json.loads(line))
    return done


def _unit_queue(count):
    """The read end of a pipe holding the unit numbers 0 .. count - 1 as
    four bytes each, written whole and closed, so that a read of four
    bytes takes one unit and an empty read ends the queue; None when the
    pipe cannot be made or cannot hold them all."""
    try:
        queue, wq = os.pipe()
    except OSError:
        return None
    records = b"".join(u.to_bytes(4, "little") for u in range(count))
    try:
        os.set_blocking(wq, False)
        if os.write(wq, records) == len(records):
            return queue
    except BlockingIOError:
        pass
    finally:
        os.close(wq)
    os.close(queue)
    return None


def _end_with_parent(caller):
    """Have the kernel kill this forked worker when its caller ends (Linux
    PR_SET_PDEATHSIG), and exit at once if the caller ended before."""
    if sys.platform.startswith("linux"):
        import ctypes
        import signal
        ctypes.CDLL(None).prctl(1, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != caller:
        os._exit(1)


def stress_central_charge(t, slc) -> Fraction:
    """c = 2 <0|L_2 L_-2|0>, the vacuum value of the modes of t alone
    (offsets 4 and 0 of a weight-2 field), read on the slice ``slc``."""
    ex, lv = slc._compile(t), slc._lvs[0]  # the vacuum is state 0, first
    vev = sum(v * _apply(slc, ex, 4, s, lv + ex.dweight).get(0, 0)
              for s, v in _apply(slc, ex, 0, 0, lv).items())
    return Fraction(2 * vev, ex.den ** 2)


def _label(x):
    if isinstance(x, Monomial):
        return "*".join(n + "'" * d for n, d in x.factors)
    from .parsing import format_field_expr
    return format_field_expr(x)
