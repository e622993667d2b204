"""Fock-space mode oracle for free fermionic bc systems.

Independent cross-validation of the operator product engine: composite
fields are expanded into Laurent modes acting on explicit states, the
singular products are reconstructed from mode commutators, and the
matrices are compared entry by entry with the engine output.  All
arithmetic is exact; parameterized tables must be specialized to numbers
first.  A bundle's bc systems run in up to one process per usable CPU,
with the output of one process.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb, floor, gcd, lcm

from .errors import WbrstError, rebuilt
from .fields import FieldExpr, Monomial
from .scalars import RF_ONE, _add_into


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
    m > -h_A.  The basis holds all states of level 0 through L whose
    excitations come from the ``excite`` subset of systems (default all);
    operators may map basis states to arbitrary states outside the basis.
    """

    def __init__(self, systems, level, excite=None):
        self.systems = tuple(systems)
        self.level = Fraction(level)
        if self.level < 0:
            raise ModeError(f"slice level must be at least 0, not {level}")
        names = {}
        for i, s in enumerate(self.systems):
            for kind, name in enumerate((s.b, s.c)):
                if name in names:
                    raise ModeError(f"duplicate field name {name!r}")
                names[name] = (i, kind, s.weight(name))
        self._names = names
        self.excite = self.systems if excite is None else tuple(excite)
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
        for s in self.excite:
            for name in (s.b, s.c):
                f = self._field(name)
                for k, dl in enumerate(range(self._dh[f], top + 1, den)):
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
        """A monomial or numeric field expression as one _Expr per
        weight, shared by every call on this slice."""
        if isinstance(x, Monomial):
            terms = ((x.factors, Fraction(1)),)
        else:
            terms = tuple(sorted((mono.factors, _const(v))
                                 for mono, v in x.terms.items()))
        parts = self._exprs.get(terms)
        if parts is None:
            groups = {}
            for factors, k in terms:
                groups.setdefault(_mono_weight(self, factors), []).append(
                    (factors, k))
            parts = self._exprs[terms] = [
                _Expr(self, w, group) for w, group in sorted(groups.items())]
        return parts

    def tabulated(self) -> int:
        """How many (offset, state) entries the memos of this slice's
        compiled products and the tables of its expressions hold."""
        return (sum(len(plan.memo) for plan in self._plans.values())
                + sum(len(ex.table) for parts in self._exprs.values()
                      for ex in parts))


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
    """Terms of one weight of an expression compiled on a slice:
    ((plan, or None for the unit, int coefficient), ...) over ``den``;
    ``table`` maps (offset, state) to the output.  The two-factor terms of
    one field pair and total derivative order are one pair plan, the gcd
    of their coefficients taken out.  ``plan``: the plan of a single plan
    with coefficient 1, else None."""

    __slots__ = ("weight", "dweight", "terms", "den", "table", "plan")

    def __init__(self, slc, weight, group):
        self.weight, self.dweight = weight, int(weight * slc._den)
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
    tail = [(j, s1, v1) for j in range(0, stop, -1)
            for s1, v1 in walk(slc, rest, n - j, s, lv).items()]
    for j, s1, v1 in tail:
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


def _mode_columns(parts, m, slc):
    """The m-th mode of a compiled expression on the slice basis as
    ({basis state: {state: int}}, den), in basis order."""
    # a weight-3/2 field has no modes at integer m
    live = [(ex, int(m + ex.weight)) for ex in parts
            if (m + ex.weight).denominator == 1]
    den = lcm(*(ex.den for ex, _ in live))
    cols = {}
    for s, lv in zip(slc._states, slc._lvs):
        if len(live) == 1:  # the tabulated column itself, over ex.den
            cols[s] = _apply(slc, live[0][0], live[0][1], s, lv)
            continue
        col = {}
        for ex, n in live:
            k = den // ex.den
            for o, v in _apply(slc, ex, n, s, lv).items():
                _add_into(col, o, k * v)
        cols[s] = col
    return cols, den


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
    on the slice basis."""
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
    ea, eb = _single(slc, a), _single(slc, b)
    csign = -1 if _expr_parity(a) and _expr_parity(b) else 1
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


def _single(slc, x):
    """The one compiled part of an expression of a single weight."""
    parts = slc._compile(x)
    if len(parts) != 1:
        raise ModeError("expression must have a single weight")
    return parts[0]


def _monomials(x):
    return (x,) if isinstance(x, Monomial) else x.terms


def _expr_parity(x):
    ps = {len(m) % 2 for m in _monomials(x)}
    if len(ps) != 1:
        raise ModeError("expression must have a single parity")
    return ps.pop()


# -- engine comparison ------------------------------------------------------


def systems_from_algebra(algebra) -> tuple:
    """Read the bc pairs off a frozen table of pure delta-function
    contractions: every stored product must be a single first-order pole
    equal to the unit."""
    pairs = []
    seen = set()
    for (a, b), poles in algebra.table_items():
        if a == b or not poles:
            continue
        unit = FieldExpr.unit(algebra)
        if set(poles) != {1} or poles[1] != unit:
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
    pairs.sort(key=lambda s: algebra.index(s.b))
    return tuple(pairs)


def crosscheck(algebra, pairs, level, excite=None, modes=(0, 1, -1)) -> dict:
    """Compare engine poles with mode-commutator reconstructions for each
    pair of fields, as matrices on the slice.  Returns a JSON-friendly
    report; ``ok`` is True when every matrix matches exactly.  The slice
    holds every system of the algebra, or with ``excite`` the excited
    systems and those the pairs name."""
    systems = systems_from_algebra(algebra)
    if excite is not None:
        by_name = {s.b: s for s in systems} | {s.c: s for s in systems}
        try:
            excite = tuple(dict.fromkeys(by_name[n] for n in excite))
        except KeyError as err:
            raise ModeError(f"unknown field {err.args[0]!r}") from None
        named = {n for pair in pairs for x in pair for mono in _monomials(x)
                 for n, _ in mono.factors}
        systems = [s for s in systems
                   if s in excite or s.b in named or s.c in named]
    slc = FockSlice(systems, level, excite=excite)
    ctx = algebra.context()
    report = {"level": str(slc.level), "states": len(slc.basis),
              "checks": [], "ok": True}
    for x, y in pairs:
        xe, ye = (e if isinstance(e, FieldExpr) else
                  FieldExpr(algebra, {e: RF_ONE}) for e in (x, y))
        engine = {n: slc._compile(e) for n, e in ctx.ope(xe, ye).items()}
        top = max(engine, default=0) + 2
        hsum = _single(slc, xe).weight + _single(slc, ye).weight
        label = f"[{_label(x)} {_label(y)}]"
        for m0 in modes:
            r = -(hsum - 1) + m0  # on the mode lattice of every pole field
            try:
                oracle, oden = _pole_columns(xe, ye, r, slc, top)
            except ModeError as err:
                report["ok"] = False
                report["checks"].append({"pair": label, "mode": str(r),
                                         "match": False, "error": str(err)})
                continue
            for n in range(1, top + 1):
                wanted, eden = (_mode_columns(engine[n], r, slc)
                                if n in engine else ({}, 1))
                entry = {"pair": label, "pole": n, "mode": str(r),
                         "match": True}
                diff = _first_difference(slc, oracle[n - 1], wanted, oden,
                                         eden)
                if diff is not None:
                    (s, sign), (o, osign) = map(slc._tuple, diff[:2])
                    ov, ev = (sign * osign * v for v in diff[2:])
                    entry.update(match=False, state=repr(s), output=repr(o),
                                 oracle=str(Fraction(ov, oden)),
                                 engine=str(Fraction(ev, eden)))
                    report["ok"] = False
                report["checks"].append(entry)
    return report


def crosscheck_bundle(algebra, level, modes=(0,)) -> dict:
    """Run crosscheck over a standard pair list for each bc system of a
    free algebra, one single-system slice at a time: contraction,
    derivative, ghost current and stress tensor products.  The merged
    report also lists the per-system stress central charges.

    The systems are dealt round robin to this process and forked workers,
    up to one per usable CPU; the report, or the first failing system's
    error, is that of one process."""
    from .algebras import ghost_stress
    systems = systems_from_algebra(algebra)
    ctx = algebra.context()
    merged = {"level": str(Fraction(level)), "ok": True, "systems": [],
              "checks": []}
    w = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        w = max(1, min(len(os.sched_getaffinity(0)), len(systems)))

    def share(k):  # reports of systems k, k + w, ...; an error ends them
        out = []
        for s in systems[k::w]:
            try:
                mb, mc = Monomial(((s.b, 0),)), Monomial(((s.c, 0),))
                b, c = (FieldExpr(algebra, {m: RF_ONE}) for m in (mb, mc))
                bc = ctx.normal_product(b, c)
                t = ghost_stress(ctx, [(s.b, s.c)])
                pairs = [(mb, mc), (Monomial(((s.b, 1),)), mc), (bc, bc),
                         (t, b), (t, c), (t, t)]
                rep = crosscheck(algebra, pairs, level,
                                 excite=[s.b, s.c], modes=modes)
                cc = stress_central_charge(t, s, level=2)
            except Exception as err:
                return out + [err]
            out.append(({"b": s.b, "c": s.c, "weight": str(s.lam),
                         "states": rep["states"],
                         "central_charge": str(cc)},
                        rep["checks"], rep["ok"]))
        return out

    shares, children = [], []
    try:
        for k in range(1, w):
            r, wr = os.pipe()
            pid = os.fork()
            if not pid:  # a worker writes only to its pipe
                code = 1
                try:
                    with open(wr, "w", encoding="utf-8") as pipe:
                        json.dump([x if isinstance(x, tuple) else
                                   f"{type(x).__name__}: {x}"
                                   for x in share(k)], pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wr)
            children.append((pid, r))
        shares.append(share(0))
    finally:  # reap every worker, whatever happened here
        for pid, r in children:
            with open(r, encoding="utf-8") as pipe:
                line = pipe.read()
            if os.waitpid(pid, 0)[1] or not line:
                line = '["a crosscheck worker ended without a report"]'
            shares.append(json.loads(line))
    for i in range(len(systems)):
        rep = shares[i % w][i // w]
        if isinstance(rep, Exception):
            raise rep
        if isinstance(rep, str):
            raise rebuilt(rep)
        system, checks, ok = rep
        merged["systems"].append(system)
        merged["checks"].extend(checks)
        merged["ok"] = merged["ok"] and ok
    return merged


def stress_central_charge(t, system, level=2) -> Fraction:
    """c = 2 <0|L_2 L_-2|0>, the vacuum value of the modes of t alone
    (offsets 4 and 0 of a weight-2 field) on a slice of ``level``."""
    slc = FockSlice([system], level)
    ex, lv = _single(slc, t), slc._lvs[0]  # the vacuum is state 0, first
    vev = sum(v * _apply(slc, ex, 4, s, lv + ex.dweight).get(0, 0)
              for s, v in _apply(slc, ex, 0, 0, lv).items())
    return Fraction(2 * vev, ex.den ** 2)


def _label(x):
    if isinstance(x, Monomial):
        return "*".join(n + "'" * d for n, d in x.factors)
    from .parsing import format_field_expr
    return format_field_expr(x)
