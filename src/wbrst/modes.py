"""Fock-space mode oracle for free fermionic bc systems.

Independent cross-validation of the operator product engine: composite
fields are expanded into Laurent modes acting on explicit states, the
singular products are reconstructed from mode commutators, and the
matrices are compared entry by entry with the engine output.  All
arithmetic is exact; parameterized tables must be specialized to numbers
first.

Inside a slice the work is done on integers.  A mode m of a field of
weight h is labelled by its offset n = m + h, so creation modes are the
offsets n <= 0 and a derivative's prefactor is an integer product.
Levels and the bounds of the encoding are ints scaled by ``den``, the
lcm of the weights' denominators.  A state is an int bitmask over the
creation modes: the fields sit in ``op_key`` order from the highest bits
down, and the offset n of field f is bit ``base[f] - n``, so a bit above
another belongs to an operator further left.  A mode flips one bit, and
its fermion sign is the parity of the popcount above it.
Tuple states appear only at the API edge.

The two-factor terms of an expression that share a field pair and a
total derivative order, such as the two terms of a bc stress tensor,
compile to one pair plan, walked once for every split.  The pair walk
applies its modes inline and tries annihilation modes only at occupied
bits; longer products recurse onto it, so it is the tail of every
composite.  When both sides of a product compile to the same expression,
the commutator sample (q, p) is -csign times the sample (p, q), so each
mirrored pair of samples is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb, floor, gcd, lcm

from .errors import WbrstError
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
        # field f = 2 * system + kind is op_key order, and f ^ 1 is the
        # conjugate field; weights and levels are scaled by _den to ints
        self._fields = list(names)
        weights = [names[n][2] for n in self._fields]
        self._den = den = lcm(*(h.denominator for h in weights))
        self._dh = [int(h * den) for h in weights]
        # den times the lowest level of any state: every creation mode
        # m > 0 applied (c-type zero and negative-level modes pull below
        # the vacuum)
        self._dlmin = -sum(sum(range(-dh, 0, -den)) for dh in self._dh)
        self._enumerate()
        self._plans = {}
        self._exprs = {}
        self._cap = -1
        self._fit(self._excess(self.level))

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
        """Set the basis in order, with den times each state's height
        above the lowest level (``_lvs``) and its bits' (field, -k) pairs
        (``_offsets``)."""
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
        self._offsets = [[ops[i][:2] for i in st] for _, _, st in out]

    def apply_op(self, op, state):
        """X_m applied to one state; returns {state: Fraction}."""
        name, m = op
        n = m + self.weight(name)
        if n != int(n):
            return {}
        lvl = self.level_of(state)
        self._fit(self._excess(max(lvl, lvl - m)))
        hit = self._op(self._field(name), int(n), self._mask(state))
        return {self._tuple(hit[0]): Fraction(hit[1])} if hit else {}

    # -- the integer encoding ----------------------------------------------

    def _field(self, name):
        self.weight(name)  # a name outside the slice raises ModeError
        i, kind, _ = self._names[name]
        return 2 * i + kind

    def _excess(self, level):
        """_den times the height of ``level`` above the lowest level."""
        return floor(self._den * level) - self._dlmin

    def _fit(self, cap):
        """Widen the encoding to hold every state at most cap / den above
        the lowest level.  Widening renumbers the states, so it re-encodes
        the basis and empties the mode tables."""
        if cap <= self._cap:
            return
        self._cap = cap
        # a state holding field f's offset -k has a level of at least
        # lmin + h_f + k, so k <= (cap - den * h_f) // den
        self._width = [max((cap - dh) // self._den + 1, 1) for dh in self._dh]
        self._base = [sum(self._width[f + 1:]) for f in range(len(self._dh))]
        self._states = [sum(1 << self._base[f] - mk for f, mk in offs)
                        for offs in self._offsets]
        self._tuples = {}
        for plan in self._plans.values():
            plan.memo.clear()
        for parts in self._exprs.values():
            for ex in parts:
                ex.table.clear()

    def _mask(self, state):
        s = 0
        for name, m in state:
            f = self._field(name)
            k = -(m + self.weight(name))
            if k < 0 or k != int(k):
                raise ModeError(f"{(name, m)!r} is not a creation mode")
            if k >= self._width[f]:
                raise ModeError(f"{(name, m)!r} is outside the slice encoding")
            s |= 1 << self._base[f] + int(k)
        keys = [self.op_key(op) for op in state]
        if keys != sorted(set(keys)):
            raise ModeError(f"{state!r} is not in increasing op_key order")
        return s

    def _tuple(self, s):
        """The tuple state of a bitmask, in op_key order."""
        out = self._tuples.get(s)
        if out is None:
            ops = []
            for f, name in enumerate(self._fields):
                block, h = s >> self._base[f], self._names[name][2]
                for k in range(self._width[f] - 1, -1, -1):
                    if block >> k & 1:
                        ops.append((name, -k - h))
            out = self._tuples[s] = tuple(ops)
        return out

    def _op(self, f, n, s):
        """The mode with offset n of field f on state s: (state, +-1) or
        None.  A creation mode sets its own bit; an annihilation mode
        clears the bit of the conjugate creation mode 1 - n."""
        if n <= 0:
            if -n >= self._width[f]:
                raise ModeError("mode outside the slice encoding")
            bit = self._base[f] - n
            if s >> bit & 1:
                return None
            return s | 1 << bit, -1 if (s >> bit).bit_count() & 1 else 1
        f ^= 1
        if n > self._width[f]:
            return None
        bit = self._base[f] + n - 1
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
        """How many (offset, state) entries the mode tables of this slice
        hold: the memos of its compiled products and the tables of its
        expressions of several terms."""
        return (sum(len(plan.memo) for plan in self._plans.values())
                + sum(len(ex.table) for parts in self._exprs.values()
                      for ex in parts))


class _Plan:
    """A single factor, or a right-nested normal product of three or more,
    compiled on a slice: the head factor (field f, derivative order d),
    den times the weights of the head and of the tail, the sign of moving
    the head across the tail, the tail's plan (None for a single factor),
    ``memo`` from (offset, state) to the output and ``walk``, the
    function that applies the plan."""

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
    """The two-factor products of one field pair (f, g) and one total
    derivative order ``de``, compiled on a slice as one walk: the sum of
    k N(d^d f, d^e g) over ``splits`` ((d, e, k), ...).  The underlying
    offsets t of f and u of g add up to n - de for every split, so each
    hit (t, u) is visited once, weighted by the sum of k prod(-t - i)
    prod(-u - i) over the splits (``weights`` by (n - de, u)).  dhf and
    dhg are den times the weights of f and g; ``memo`` maps (offset,
    state) to the output."""

    __slots__ = ("walk", "f", "g", "de", "splits", "weights", "dhf", "dhg",
                 "memo")

    def __init__(self, slc, a, b, splits):
        self.walk = _apply_pair
        self.f, self.g = slc._field(a), slc._field(b)
        self.splits = splits
        self.weights = {}
        self.de = splits[0][0] + splits[0][1]
        self.dhf, self.dhg = slc._dh[self.f], slc._dh[self.g]
        self.memo = {}


class _Expr:
    """Terms of one weight of an expression compiled on a slice:
    ((plan, or None for the unit, int coefficient), ...) over the common
    denominator ``den``; ``table`` maps (offset, state) to its output.
    The two-factor terms of one field pair and one total derivative order
    are one pair plan, its coefficients divided by their gcd.  ``plan`` is
    the one plan of an expression that is a single plan with coefficient
    1, else None.  ``reach`` is den times how far an application can lift
    a state above its input and output levels on the way: each factor but
    the last by up to max(-h, h - 1)."""

    __slots__ = ("weight", "dweight", "terms", "den", "table", "plan",
                 "reach")

    def __init__(self, slc, weight, group):
        den = slc._den
        self.weight = weight
        self.dweight = int(weight * den)
        self.reach = max(sum(max(0, -dh, dh - den) for dh in (
            slc._dh[slc._field(n)] + den * d for n, d in factors[:-1]))
            for factors, _ in group)
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


@dataclass
class ModeMatrix:
    """Sparse operator matrix: basis state -> {output state: value}."""
    mode: Fraction
    columns: dict = field(default_factory=dict)

    @property
    def is_zero(self):
        return all(not col for col in self.columns.values())


def _first_difference(a, b, da=1, db=1):
    """The first entry (state, output, x, y) at which the columns a / da
    and b / db differ, walking states and outputs in insertion order; the
    dict merges reuse the stored key hashes."""
    for s in {**a, **b}:
        ca = a.get(s, {})
        cb = b.get(s, {})
        for o in {**ca, **cb}:
            x, y = ca.get(o, 0), cb.get(o, 0)
            if x * db != y * da:
                return (s, o, x, y)
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
    splits of k prod(-t - i) prod(-u - i), as _prefactor."""
    out = 0
    for d, e, k in splits:
        for i in range(d):
            k *= -t - i
        for i in range(e):
            k *= -u - i
        out += k
    return out


def _apply_pair(slc, pair, n, s, lv):
    """The mode with offset n of a pair plan on state s, whose level is
    lv / den above the lowest: {state: int}.  The composite-mode double
    sum over underlying offsets t + u = n - de, sum_{t <= 0} f_t g_u -
    sum_{t >= 1} g_u f_t, walked once for all splits.  A hit's modes are
    applied, inline as _op applies them, only where its _split_sum is not
    zero.  g's creation modes act while its output stays above the lowest
    level, annihilation modes at the occupied bits of their conjugates."""
    out = pair.memo.get((n, s))
    if out is not None:
        return out
    out = {}
    den, base, width = slc._den, slc._base, slc._width
    f, g, splits = pair.f, pair.g, pair.splits
    nn = n - pair.de
    weights = pair.weights
    # g's offset u is bit bg - u (creation) or bgc + u; f's nn - u, bf + u
    bg, bgc, bf = base[g], base[g ^ 1] - 1, base[f] - nn
    wg, wgc, wf = width[g], width[g ^ 1], width[f] + nn
    top = (lv + pair.dhg) // den
    us = list(range(nn, (top if top < 0 else 0) + 1))
    lo = nn if nn > 1 else 1
    hi = top if top < wgc else wgc
    block = s >> bgc + lo & (1 << hi - lo + 1) - 1 if hi >= lo else 0
    while block:
        low = block & -block
        block ^= low
        us.append(lo - 1 + low.bit_length())
    for u in us:
        k = weights.get((nn, u))
        if k is None:
            k = weights[nn, u] = _split_sum(splits, nn - u, u)
        if not k:
            continue
        if u <= 0:
            if -u >= wg:
                raise ModeError("mode outside the slice encoding")
            gb = bg - u
            if s >> gb & 1:
                continue
        else:
            gb = bgc + u
        s1 = s ^ 1 << gb
        if u >= wf:
            raise ModeError("mode outside the slice encoding")
        fb = bf + u
        if s1 >> fb & 1:
            continue
        s2 = s1 | 1 << fb
        if ((s >> gb + 1).bit_count() + (s1 >> fb).bit_count()) & 1:
            k = -k
        _add_into(out, s2, k)
    bfc = base[f ^ 1] - 1
    hi = (lv + pair.dhf) // den
    if hi > width[f ^ 1]:
        hi = width[f ^ 1]
    block = s >> bfc + 1 & (1 << hi) - 1 if hi > 0 else 0
    while block:
        low = block & -block
        block ^= low
        t = low.bit_length()
        u = nn - t
        k = weights.get((nn, u))
        if k is None:
            k = weights[nn, u] = _split_sum(splits, t, u)
        if not k:
            continue
        fb = bfc + t
        s1 = s ^ 1 << fb
        if u <= 0:
            if -u >= wg:
                raise ModeError("mode outside the slice encoding")
            gb = bg - u
            if s1 >> gb & 1:
                continue
        else:
            gb = bgc + u
            if u > wgc or not s1 >> gb & 1:
                continue
        s2 = s1 ^ 1 << gb
        if not ((s >> fb + 1).bit_count() + (s1 >> gb + 1).bit_count()) & 1:
            k = -k
        _add_into(out, s2, k)
    pair.memo[(n, s)] = out
    return out


def _apply_plan(slc, plan, n, s, lv):
    """The mode with offset n of a product of three or more factors on
    state s, whose level is lv / den above the lowest: {state: int}.
    Uses the standard composite-mode double sum with the head split at
    its weight; the head annihilates only at the occupied bits of its
    conjugate field."""
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
            k = _prefactor(d, j - d) if d else 1
            _add_into(out, hit[0], k * hit[1] * v1)
    # annihilation part of the head, offsets t = j - d >= 1 at occupied
    # bits, goes first with the exchange sign; it lifts the level by ha - j
    hi = min((lv + plan.dha) // den - d, slc._width[f ^ 1])
    block = s >> slc._base[f ^ 1] & (1 << hi) - 1 if hi > 0 else 0
    while block:
        low = block & -block
        block ^= low
        t = low.bit_length()
        s1, sign = op(f, t, s)
        k = plan.sign * sign * (_prefactor(d, t) if d else 1)
        lv1 = lv + plan.dha - den * (t + d)
        for s2, v2 in walk(slc, rest, n - t - d, s1, lv1).items():
            _add_into(out, s2, k * v2)
    plan.memo[(n, s)] = out
    return out


def _apply(slc, ex, n, s, lv):
    """The mode with offset n of a compiled expression on state s, as
    {state: int} over ex.den; tabulated once per slice (in the plan's own
    memo when the expression is a single plan with coefficient 1)."""
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


def _mode_cap(slc, parts, m):
    """The _fit bound of the mode m of compiled parts on the basis: it
    lifts a state by up to max(0, -m) and the reach."""
    return (slc._excess(slc.level + max(0, -m))
            + max((ex.reach for ex in parts), default=0))


def _mode_columns(parts, m, slc):
    """The m-th mode of a compiled expression on the slice basis as
    ({basis state: {state: int}}, den), the columns in basis order and
    over the denominator den; the slice must fit _mode_cap."""
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
    """The tuple-keyed ModeMatrix of bitmask columns over den."""
    return ModeMatrix(m, {
        state: {slc._tuple(o): Fraction(v, den) for o, v in cols[s].items()}
        for state, s in zip(slc.basis, slc._states)})


def field_modes(x, m, slc: FockSlice) -> ModeMatrix:
    """Matrix of the m-th Laurent mode of a monomial or field expression
    on the slice basis."""
    m = Fraction(m)
    parts = slc._compile(x)
    slc._fit(_mode_cap(slc, parts, m))
    return _matrix(slc, m, *_mode_columns(parts, m, slc))


# -- singular products from commutators ------------------------------------


def _poles_cap(slc, a, b, r, max_pole):
    """The _fit bound of _pole_columns: a_p b_q and b_q a_p lift a basis
    state by up to max(0, -p) + max(0, -q), convex in p, and a reach."""
    ea, eb = _single(slc, a), _single(slc, b)
    lo = -ea.weight - max_pole // 2  # the first sample
    lift = max(max(0, -p) + max(0, p - r) for p in (lo, lo + max_pole + 2))
    return slc._excess(slc.level + lift) + max(ea.reach, eb.reach)


@cache
def _sample_solver(nun):
    """The integer left inverse of the sample matrix [binom(x, j)], x =
    p + h_a - 1 at the nun + 3 samples x0, x0 + 1, ... of _pole_columns,
    x0 = -(nun // 2) - 1.  The differences D_i = sum_k (-1)^(i-k)
    binom(i, k) S_k of the samples S_k are D_i = sum_(j >= i) binom(x0,
    j - i) C_j, a unit-triangular system in the unknowns C_j, so C_i =
    sum_(i <= j < nun) binom(-x0, j - i) D_j.  Returns nun + 3 rows over
    the samples: the nun unknowns, then D_nun .. D_nun+2, which vanish
    exactly when the samples are consistent."""
    x0 = -(nun // 2) - 1
    diffs = [[(-1) ** (i + k) * comb(i, k) for k in range(nun + 3)]
             for i in range(nun + 3)]
    rows = [[sum(comb(-x0, j - i) * diffs[j][k] for j in range(i, nun))
             for k in range(nun + 3)] for i in range(nun)]
    return tuple(map(tuple, rows + diffs[nun:]))


def _pole_columns(a, b, r, slc, max_pole):
    """The pole matrices of ope_poles_from_modes as ([{basis state:
    {state: int}} for poles 1 .. max_pole], den), the columns in basis
    order and over the denominator den; the slice must fit _poles_cap."""
    ea, eb = _single(slc, a), _single(slc, b)
    ha = ea.weight
    csign = -1 if _expr_parity(a) and _expr_parity(b) else 1
    nun = max_pole
    den = slc._den
    coms = []
    nab = r + ha + eb.weight
    if nab.denominator == 1:  # else every b_q vanishes
        # a self-pair's sample (nb, na) is -csign times that of (na, nb),
        # so a sample whose mirror is done is read off it, and at na = nb
        # an even one is zero
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
                                f"max_pole={max_pole}")
            for col, v in zip(out, vs):
                if v:
                    col[o] = v
    return poles, ea.den * eb.den


def ope_poles_from_modes(a, b, r, slc: FockSlice, max_pole=8) -> dict:
    """All pole matrices of the product of a and b at total mode r,
    reconstructed from mode commutators alone.

    The graded commutator [a_p, b_q] equals
    sum_j binom(p + h_a - 1, j) ([ab]_{j+1})_{p+q}; varying p at fixed
    p + q = r gives a linear system solved for the pole-field matrices.
    ``max_pole`` bounds the number of unknown poles; an inconsistent
    overdetermined system (a pole above the bound) raises ModeError.
    Returns {n: ModeMatrix} for n = 1 .. max_pole.
    """
    r = Fraction(r)
    slc._fit(_poles_cap(slc, a, b, r, max_pole))
    poles, den = _pole_columns(a, b, r, slc, max_pole)
    return {j + 1: _matrix(slc, r, cols, den)
            for j, cols in enumerate(poles)}


def ope_from_modes(a, b, n, r, slc: FockSlice, max_pole=8) -> ModeMatrix:
    """Matrix of the mode r of the n-th pole of the product of a and b,
    reconstructed from mode commutators; see ope_poles_from_modes."""
    if not 1 <= n <= max_pole:
        raise ModeError("pole order out of range")
    r = Fraction(r)
    slc._fit(_poles_cap(slc, a, b, r, max_pole))
    poles, den = _pole_columns(a, b, r, slc, max_pole)
    return _matrix(slc, r, poles[n - 1], den)


def _mono_weight(slc, factors):
    return sum((slc.weight(n) + d for n, d in factors), Fraction(0))


def _single(slc, x):
    """The one compiled part of an expression of a single weight."""
    parts = slc._compile(x)
    if len(parts) != 1:
        raise ModeError("expression must have a single weight")
    return parts[0]


def _expr_parity(x):
    if isinstance(x, Monomial):
        return len(x) % 2
    ps = {len(m) % 2 for m in x.terms}
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
    report; ``ok`` is True when every matrix matches exactly."""
    systems = systems_from_algebra(algebra)
    if excite is not None:
        by_name = {s.b: s for s in systems} | {s.c: s for s in systems}
        try:
            excite = tuple(dict.fromkeys(by_name[n] for n in excite))
        except KeyError as err:
            raise ModeError(f"unknown field {err.args[0]!r}") from None
    slc = FockSlice(systems, level, excite=excite)
    ctx = algebra.context()
    report = {"level": str(slc.level), "states": len(slc.basis),
              "checks": [], "ok": True}
    jobs, caps = [], []
    for x, y in pairs:
        xe = x if isinstance(x, FieldExpr) else FieldExpr(algebra, {x: RF_ONE})
        ye = y if isinstance(y, FieldExpr) else FieldExpr(algebra, {y: RF_ONE})
        engine = {n: slc._compile(e) for n, e in ctx.ope(xe, ye).items()}
        top = max(engine, default=0) + 2
        hsum = _single(slc, xe).weight + _single(slc, ye).weight
        for m0 in modes:
            r = -(hsum - 1) + m0  # on the mode lattice of every pole field
            jobs.append((f"[{_label(x)} {_label(y)}]", xe, ye, engine, top, r))
            caps.append(_poles_cap(slc, xe, ye, r, top))
            caps.extend(_mode_cap(slc, parts, r) for parts in engine.values())
    # widen the slice before any mode table is filled: widening empties
    # the tables and renumbers the states, which every pair shares
    slc._fit(max(caps, default=0))
    for label, xe, ye, engine, top, r in jobs:
        try:
            oracle, oden = _pole_columns(xe, ye, r, slc, top)
        except ModeError as err:
            report["ok"] = False
            report["checks"].append({"pair": label, "mode": str(r),
                                     "match": False, "error": str(err)})
            continue
        for n in range(1, top + 1):
            wanted, eden = (_mode_columns(engine[n], r, slc) if n in engine
                            else ({}, 1))
            entry = {"pair": label, "pole": n, "mode": str(r)}
            diff = _first_difference(oracle[n - 1], wanted, oden, eden)
            if diff is None:
                entry["match"] = True
            else:
                s, o, ov, ev = diff
                entry["match"] = False
                entry["state"] = repr(slc._tuple(s))
                entry["output"] = repr(slc._tuple(o))
                entry["oracle"] = str(Fraction(ov, oden))
                entry["engine"] = str(Fraction(ev, eden))
                report["ok"] = False
            report["checks"].append(entry)
    return report


def crosscheck_bundle(algebra, level, modes=(0,)) -> dict:
    """Run crosscheck over a standard pair list for each bc system of a
    free algebra, one single-system slice at a time: contraction,
    derivative, ghost current and stress tensor products.  The merged
    report also lists the per-system stress central charges."""
    from .algebras import ghost_stress
    systems = systems_from_algebra(algebra)
    ctx = algebra.context()
    merged = {"level": str(Fraction(level)), "ok": True, "systems": [],
              "checks": []}
    for s in systems:
        b = FieldExpr(algebra, {Monomial(((s.b, 0),)): RF_ONE})
        c = FieldExpr(algebra, {Monomial(((s.c, 0),)): RF_ONE})
        bc = ctx.normal_product(b, c)
        t = ghost_stress(ctx, [(s.b, s.c)])
        pairs = [(Monomial(((s.b, 0),)), Monomial(((s.c, 0),))),
                 (Monomial(((s.b, 1),)), Monomial(((s.c, 0),))),
                 (bc, bc), (t, b), (t, c), (t, t)]
        rep = crosscheck(algebra, pairs, level,
                         excite=[s.b, s.c], modes=modes)
        cc = stress_central_charge(t, s, level=2)
        merged["systems"].append({"b": s.b, "c": s.c,
                                  "weight": str(s.lam),
                                  "states": rep["states"],
                                  "central_charge": str(cc)})
        merged["checks"].extend(rep["checks"])
        merged["ok"] = merged["ok"] and rep["ok"]
    return merged


def stress_central_charge(t, system, level=2) -> Fraction:
    """Twice the vacuum coefficient of the fourth pole of the stress
    self-product, reconstructed from mode commutators alone."""
    slc = FockSlice([system], level)
    m4 = ope_from_modes(t, t, 4, 0, slc, max_pole=6)
    return 2 * m4.columns[()].get((), Fraction(0))


def _label(x):
    if isinstance(x, Monomial):
        return "*".join(n + "'" * d for n, d in x.factors)
    from .parsing import format_field_expr
    return format_field_expr(x)
