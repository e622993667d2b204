"""Fock-space mode oracle for free fermionic bc systems.

Independent cross-validation of the operator product engine: composite
fields are expanded into Laurent modes acting on explicit states, the
singular products are reconstructed from mode commutators, and the
resulting matrices are compared entry by entry with the engine output.
All arithmetic is exact; parameterized tables must be specialized to
numbers before they reach the oracle.

Inside a slice the work is done on integers.  A mode m of a field of
weight h is labelled by its offset n = m + h, so creation modes are the
offsets n <= 0 and a derivative's prefactor is an integer product.  A
state is an int bitmask over the creation modes: the fields sit in
``op_key`` order from the highest bits down, and the offset n of field f
is bit ``base[f] - n``, so a bit above another belongs to an operator
further left.  The fermion sign of a mode application is then the
parity of the popcount above its bit.  The public functions take and
return the tuple states of ``FockSlice.basis``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, floor, lcm

from .errors import WbrstError
from .fields import FieldExpr, Monomial
from .linalg import left_nullspace, rref
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
        if excite is None:
            excite = self.systems
        self.excite = tuple(excite)
        self.basis = self._enumerate()
        self.index = {s: i for i, s in enumerate(self.basis)}
        self._lmin = self.min_level()
        # field f = 2 * system + kind is op_key order, and f ^ 1 is the
        # conjugate field; weights and levels are scaled by _den to ints
        self._fields = list(names)
        weights = [names[n][2] for n in self._fields]
        self._den = lcm(*(h.denominator for h in weights))
        self._dh = [int(h * self._den) for h in weights]
        self._lvs = [self._excess(self.level_of(st)) for st in self.basis]
        self._plans = {}
        self._exprs = {}
        self._cap = -1
        self._fit(self.level)

    def weight(self, name) -> Fraction:
        try:
            return self._names[name][2]
        except KeyError:
            raise ModeError(f"unknown field {name!r}") from None

    def op_key(self, op):
        name, m = op
        i, kind, _ = self._names[name]
        return (i, kind, m)

    def is_creation(self, op) -> bool:
        name, m = op
        return m <= -self.weight(name)

    def level_of(self, state) -> Fraction:
        return -sum((m for _, m in state), Fraction(0))

    def min_level(self) -> Fraction:
        """The smallest level any state can have (c-type zero and
        negative-level creation modes pull below the vacuum)."""
        low = Fraction(0)
        for s in self.systems:
            for name in (s.b, s.c):
                h = s.weight(name)
                m = -h  # largest creation mode
                while m > 0:
                    low -= m
                    m -= 1
        return low

    def _enumerate(self):
        ops = []
        for s in self.excite:
            for name in (s.b, s.c):
                h = self._names[name][2]
                m = -h
                while -m <= self.level:
                    ops.append((name, m))
                    m -= 1
        ops.sort(key=self.op_key)
        out = []

        def extend(prefix, start, lvl):
            if 0 <= lvl <= self.level:
                out.append(tuple(prefix))
            for i in range(start, len(ops)):
                nxt = lvl - ops[i][1]
                # prune only when no later op can lower the level again
                if nxt <= self.level or any(o[1] > 0 for o in ops[i + 1:]):
                    extend(prefix + [ops[i]], i + 1, nxt)

        extend([], 0, Fraction(0))
        out.sort(key=lambda st: (self.level_of(st), len(st),
                                 tuple(self.op_key(o) for o in st)))
        return out

    def apply_op(self, op, state):
        """X_m applied to one state; returns {state: Fraction}."""
        name, m = op
        n = m + self.weight(name)
        if n != int(n):
            return {}
        lvl = self.level_of(state)
        self._fit(max(lvl, lvl - m))
        hit = self._op(self._field(name), int(n), self._mask(state))
        return {self._tuple(hit[0]): Fraction(hit[1])} if hit else {}

    # -- the integer encoding ----------------------------------------------

    def _field(self, name):
        self.weight(name)  # a name outside the slice raises ModeError
        i, kind, _ = self._names[name]
        return 2 * i + kind

    def _excess(self, level):
        """_den times the height of ``level`` above the lowest level."""
        return floor(self._den * (level - self._lmin))

    def _fit(self, level):
        """Widen the encoding to hold every state of level at most
        ``level``.  Widening renumbers the states, so it re-encodes the
        basis and empties the mode tables."""
        cap = self._excess(level)
        if cap <= self._cap:
            return
        self._cap = cap
        # a state holding field f's offset -k has a level of at least
        # lmin + h_f + k, so k <= (cap - den * h_f) // den
        self._width = [max((cap - dh) // self._den + 1, 1) for dh in self._dh]
        self._base = [sum(self._width[f + 1:]) for f in range(len(self._dh))]
        self._states = [self._mask(st) for st in self.basis]
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
        plan = self._plans.get(factors)
        if plan is None:
            plan = self._plans[factors] = _Plan(self, factors)
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


class _Plan:
    """A right-nested normal product compiled on a slice: the head factor
    (field f, derivative order d), den times the weights of the head and
    of the tail, the sign of moving the head across the tail, the tail's
    plan (None for a single factor) and ``memo``, which maps (offset,
    state) to the product's output.  ``reach`` is how far, times den, an
    application can lift a state above both its input and output levels
    on the way."""

    __slots__ = ("f", "d", "dha", "dhrest", "sign", "rest", "reach", "memo")

    def __init__(self, slc, factors):
        (name, self.d), tail = factors[0], factors[1:]
        self.f = slc._field(name)
        self.dha = slc._dh[self.f] + slc._den * self.d
        self.rest = slc._plan(tail) if tail else None
        self.sign = -1 if len(tail) % 2 else 1
        self.dhrest = sum(slc._dh[slc._field(n)] + slc._den * d
                          for n, d in tail)
        # the head's creation part first lifts the tail's output by up to
        # -ha, its annihilation part lifts the input by up to ha - 1
        self.reach = 0 if self.rest is None else (
            max(0, -self.dha, self.dha - slc._den) + self.rest.reach)
        self.memo = {}


class _Expr:
    """Terms of one weight of an expression compiled on a slice:
    ((plan, or None for the unit, int coefficient), ...) over the common
    denominator ``den``; ``table`` maps (offset, state) to its output."""

    __slots__ = ("weight", "dweight", "terms", "den", "table")

    def __init__(self, slc, weight, group):
        self.weight = weight
        self.dweight = int(weight * slc._den)
        self.den = lcm(*(k.denominator for _, k in group))
        self.terms = tuple((slc._plan(factors) if factors else None,
                            int(k * self.den)) for factors, k in group)
        self.table = {}


@dataclass
class ModeMatrix:
    """Sparse operator matrix: basis state -> {output state: value}."""
    mode: Fraction
    columns: dict = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, ModeMatrix):
            return NotImplemented
        return self.mode == other.mode and self.columns == other.columns

    def first_difference(self, other):
        """The first differing entry (state, output, self, other), walking
        states and outputs in insertion order (states in the slice's basis
        order), so the entry found does not depend on the hash seed.  The
        dict merges reuse the stored key hashes."""
        for s in {**self.columns, **other.columns}:
            a = self.columns.get(s, {})
            b = other.columns.get(s, {})
            for o in {**a, **b}:
                if a.get(o, 0) != b.get(o, 0):
                    return (s, o, a.get(o, 0), b.get(o, 0))
        return None

    @property
    def is_zero(self):
        return all(not col for col in self.columns.values())


# -- composite modes -------------------------------------------------------


def _prefactor(d, n):
    """(dA)_m = (-m - h) A_m = -n A_m: the d-th derivative of a field at
    offset n carries prod(-n - i) for i < d."""
    k = 1
    for i in range(d):
        k *= -n - i
    return k


def _apply_plan(slc, plan, n, s, lv):
    """The mode with offset n of a compiled product on state s, whose
    level is lv / den above the lowest: {state: int}.  Uses the standard
    composite-mode double sum with the head split at its weight."""
    f, d, rest = plan.f, plan.d, plan.rest
    if rest is None:
        k = _prefactor(d, n - d) if d else 1
        hit = slc._op(f, n - d, s) if k else None
        return {hit[0]: k * hit[1]} if hit else {}
    out = plan.memo.get((n, s))
    if out is not None:
        return out
    out = {}
    op, den = slc._op, slc._den
    # creation part of the head, offsets j - d for j <= 0, applied after
    # the tail; the tail's output may not fall below the lowest level
    for j in range(0, n - (lv + plan.dhrest) // den - 1, -1):
        k = _prefactor(d, j - d) if d else 1
        for s1, v1 in _apply_plan(slc, rest, n - j, s, lv).items():
            hit = op(f, j - d, s1)
            if hit:
                _add_into(out, hit[0], k * hit[1] * v1)
    # annihilation part of the head, offsets j - d >= 1, goes first with
    # the exchange sign; it lifts the level by (ha - j)
    for j in range(d + 1, (lv + plan.dha) // den + 1):
        hit = op(f, j - d, s)
        if hit:
            k = plan.sign * hit[1] * (_prefactor(d, j - d) if d else 1)
            lv1 = lv + plan.dha - den * j
            for s2, v2 in _apply_plan(slc, rest, n - j, hit[0], lv1).items():
                _add_into(out, s2, k * v2)
    plan.memo[(n, s)] = out
    return out


def _apply(slc, ex, n, s, lv):
    """The mode with offset n of a compiled expression on state s, as
    {state: int} over ex.den; tabulated once per slice."""
    out = ex.table.get((n, s))
    if out is None:
        out = {}
        for plan, k in ex.terms:
            if plan is not None:
                for s1, v in _apply_plan(slc, plan, n, s, lv).items():
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


def _reach(slc, x) -> Fraction:
    monos = [x] if isinstance(x, Monomial) else x.terms
    return Fraction(max((slc._plan(mono.factors).reach
                         for mono in monos if mono.factors), default=0),
                    slc._den)


def _mode_level(slc, x, m, level) -> Fraction:
    """The highest level the mode m of x reaches on states of level at
    most ``level`` (the bound _fit needs)."""
    return level + max(0, -m) + _reach(slc, x)


def field_modes(x, m, slc: FockSlice) -> ModeMatrix:
    """Matrix of the m-th Laurent mode of a monomial or field expression
    on the slice basis."""
    m = Fraction(m)
    parts = slc._compile(x)
    slc._fit(_mode_level(slc, x, m, slc.level))
    # a weight-3/2 field has no modes at integer m
    live = [(ex, int(m + ex.weight)) for ex in parts
            if (m + ex.weight).denominator == 1]
    cols = {}
    for state, s, lv in zip(slc.basis, slc._states, slc._lvs):
        col = {}
        for ex, n in live:
            for o, v in _apply(slc, ex, n, s, lv).items():
                _add_into(col, slc._tuple(o), Fraction(v, ex.den))
        cols[state] = col
    return ModeMatrix(m, cols)


# -- singular products from commutators ------------------------------------


def _gbinom(x: Fraction, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out *= x - i
    return out / factorial(j)


def _samples(ha, max_pole):
    return [-ha + i - max_pole // 2 for i in range(max_pole + 3)]


def _poles_level(slc, a, b, r, max_pole) -> Fraction:
    """The highest level the commutators of ope_poles_from_modes reach:
    b_q then a_p, and a_p then b_q, on the basis."""
    top = slc.level
    out = top
    for p in _samples(_expr_weight(slc, a), max_pole):
        q = r - p
        out = max(out, _mode_level(slc, a, p, max(top, top - q)),
                  _mode_level(slc, b, q, max(top, top - p)))
    return out


def _sample_solver(ha, samples, nun):
    """Factor the sample matrix [binom(p + ha - 1, j)] once.  Returns
    integer rows that give den times each pole unknown from the right-hand
    side (free unknowns stay zero), den, and integer rows spanning the
    matrix's left nullspace: the right-hand side is consistent exactly
    when each of them is orthogonal to it."""
    mat = [[_gbinom(p + ha - 1, j) for j in range(nun)] for p in samples]
    rows = len(samples)
    unit = [[Fraction(int(i == k)) for k in range(rows)] for i in range(rows)]
    red, pivots = rref([row + e for row, e in zip(mat, unit)], nun)
    inverse = {col: row[nun:] for row, col in zip(red, pivots)}
    den = lcm(*(x.denominator for row in inverse.values() for x in row))
    inverse = [(col, [int(x * den) for x in row])
               for col, row in inverse.items()]
    checks = []
    for y in left_nullspace(mat, rows, nun, Fraction(0), Fraction(1)):
        k = lcm(*(x.denominator for x in y))
        checks.append([int(x * k) for x in y])
    return inverse, den, checks


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
    ha = _expr_weight(slc, a)
    hb = _expr_weight(slc, b)
    pa = _expr_parity(a)
    pb = _expr_parity(b)
    csign = -1 if pa and pb else 1  # graded commutator sign
    r = Fraction(r)
    nun = max_pole
    samples = _samples(ha, nun)
    (ea,), (eb,) = slc._compile(a), slc._compile(b)
    slc._fit(_poles_level(slc, a, b, r, nun))
    den = slc._den
    coms = []
    if (r + ha + hb).denominator == 1:  # else every b_q vanishes
        for p in samples:
            na = int(p + ha)
            nb = int(r + ha + hb) - na
            com = []
            for s, lv in zip(slc._states, slc._lvs):
                col = {}
                lv1 = lv - den * nb + eb.dweight
                for s1, v1 in _apply(slc, eb, nb, s, lv).items():
                    for s2, v2 in _apply(slc, ea, na, s1, lv1).items():
                        _add_into(col, s2, v1 * v2)
                lv1 = lv - den * na + ea.dweight
                for s1, v1 in _apply(slc, ea, na, s, lv).items():
                    for s2, v2 in _apply(slc, eb, nb, s1, lv1).items():
                        _add_into(col, s2, -csign * v1 * v2)
                com.append(col)
            coms.append(com)
    # solve column by column for the pole matrices
    inverse, scale, checks = _sample_solver(ha, samples, nun)
    scale *= ea.den * eb.den
    poles = {j: {} for j in range(nun)}
    for i, state in enumerate(slc.basis):
        cols = [com[i] for com in coms]
        for o in set().union(*cols):
            rhs = [col.get(o, 0) for col in cols]
            if any(sum(map(int.__mul__, y, rhs)) for y in checks):
                raise ModeError("mode commutators need more poles than "
                                f"max_pole={max_pole}")
            out = slc._tuple(o)
            for j, row in inverse:
                v = sum(map(int.__mul__, row, rhs))
                if v:
                    poles[j].setdefault(state, {})[out] = Fraction(v, scale)
    return {j + 1: ModeMatrix(r, {s: poles[j].get(s, {}) for s in slc.basis})
            for j in range(nun)}


def ope_from_modes(a, b, n, r, slc: FockSlice, max_pole=8) -> ModeMatrix:
    """Matrix of the mode r of the n-th pole of the product of a and b,
    reconstructed from mode commutators; see ope_poles_from_modes."""
    if not 1 <= n <= max_pole:
        raise ModeError("pole order out of range")
    return ope_poles_from_modes(a, b, r, slc, max_pole=max_pole)[n]


def _mono_weight(slc, factors):
    return sum((slc.weight(n) + d for n, d in factors), Fraction(0))


def _expr_weight(slc, x):
    if isinstance(x, Monomial):
        return _mono_weight(slc, x.factors)
    ws = {_mono_weight(slc, m.factors) for m in x.terms}
    if len(ws) != 1:
        raise ModeError("expression must have a single weight")
    return ws.pop()


def _expr_parity(x):
    if isinstance(x, Monomial):
        return len(x.factors) % 2
    ps = {len(m.factors) % 2 for m in x.terms}
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
        excite = tuple(dict.fromkeys(by_name[n] for n in excite))
    slc = FockSlice(systems, level, excite=excite)
    ctx = algebra.context()
    report = {"level": str(slc.level), "states": len(slc.basis),
              "checks": [], "ok": True}
    jobs = []
    for x, y in pairs:
        xe = x if isinstance(x, FieldExpr) else FieldExpr(algebra, {x: RF_ONE})
        ye = y if isinstance(y, FieldExpr) else FieldExpr(algebra, {y: RF_ONE})
        engine = ctx.ope(xe, ye)
        top = max(engine, default=0) + 2
        hsum = _expr_weight(slc, xe) + _expr_weight(slc, ye)
        for m0 in modes:
            r = -(hsum - 1) + m0  # on the mode lattice of every pole field
            jobs.append((f"[{_label(x)} {_label(y)}]", xe, ye, engine, top, r))
            # widen the slice before any mode table is filled: widening
            # empties the tables, and the pairs share them
            slc._fit(max([_poles_level(slc, xe, ye, r, top)] + [
                _mode_level(slc, e, r, slc.level) for e in engine.values()]))
    for label, xe, ye, engine, top, r in jobs:
        try:
            oracle = ope_poles_from_modes(xe, ye, r, slc, max_pole=top)
        except ModeError as err:
            report["ok"] = False
            report["checks"].append({"pair": label, "mode": str(r),
                                     "match": False, "error": str(err)})
            continue
        for n in range(1, top + 1):
            if n in engine:
                wanted = field_modes(engine[n], r, slc)
            else:
                wanted = ModeMatrix(r, {s: {} for s in slc.basis})
            entry = {"pair": label, "pole": n, "mode": str(r)}
            diff = oracle[n].first_difference(wanted)
            if diff is None:
                entry["match"] = True
            else:
                s, o, ov, ev = diff
                entry["match"] = False
                entry["state"] = repr(s)
                entry["output"] = repr(o)
                entry["oracle"] = str(ov)
                entry["engine"] = str(ev)
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
