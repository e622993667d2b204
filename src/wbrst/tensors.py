"""Tensor calculus for quantum Lie algebra data {sigma, C, phi}.

A braid matrix sigma^{kl}_{ij} is stored as a rank-4 Tensor with index
order (k, l, i, j): upper pair first, then lower pair.  Structure
constants C^k_{ij} are rank 3 with index order (k, i, j).

All the defining identities and the proof identities are products of
operators written left to right, acting on row vectors (in the algebra the
ghost coefficients multiply from the left).  We therefore realize every
operator as a sparse matrix indexed [input multi-index, output multi-index]
over the flattened space {0..N-1}^k, and multiply matrices in the written
order of the identity.  A braid matrix becomes M[(i1,i2), (k1,k2)] =
sigma^{k1 k2}_{i1 i2}.

Every identity checked here, except the solvability of C = (1 - sigma) t,
is a product of such matrices: ``embed`` places an operator on adjacent
factors of a larger space, be it a braid matrix, the contraction
``c_mat(C)`` with [(i, j), k] = C^k_{ij}, or an antisymmetrizer.  A failing
identity reports its first nonzero entries as (row multi-index, column
multi-index, value), in the order of the flattened indices.

This module holds the index convention of the data: ``omega`` reads sigma,
sigma_tilde, phi and C only through these matrices, as the lookup tables
of ``pair_table``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .linalg import solve_columns
from .scalars import RF_ONE, RF_ZERO, RationalFunction, _add_into, rf


class Tensor:
    """Sparse tensor with all index ranges equal to n."""

    def __init__(self, rank: int, n: int, entries: dict):
        self.rank = rank
        self.n = n
        self.entries = {}
        for idx, val in entries.items():
            val = rf(val)
            if not val.is_zero:
                if len(idx) != rank or any(not (0 <= i < n) for i in idx):
                    raise ValueError(f"bad index {idx} for rank {rank}, n {n}")
                self.entries[idx] = val

    def get(self, idx) -> RationalFunction:
        return self.entries.get(tuple(idx), RF_ZERO)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, Tensor) and self.rank == other.rank
                and self.n == other.n and self.entries == other.entries)

    def items(self):
        return self.entries.items()

    def __repr__(self):
        return f"Tensor(rank={self.rank}, n={self.n}, nnz={len(self.entries)})"


class Mat:
    """Sparse matrix over RationalFunction, rows = input multi-indices."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else {}

    @staticmethod
    def identity(n):
        return Mat(n, n, {i: {i: RF_ONE} for i in range(n)})

    def set(self, r, c, val):
        val = rf(val)
        if val.is_zero:
            self.rows.get(r, {}).pop(c, None)
        else:
            self.rows.setdefault(r, {})[c] = val

    def get(self, r, c):
        return self.rows.get(r, {}).get(c, RF_ZERO)

    def __matmul__(self, other: "Mat") -> "Mat":
        assert self.ncols == other.nrows
        out = {}
        for r, row in self.rows.items():
            acc = {}
            for k, v in row.items():
                for c, w in other.rows.get(k, {}).items():
                    _add_into(acc, c, v * w)
            if acc:
                out[r] = acc
        return Mat(self.nrows, other.ncols, out)

    def __add__(self, other: "Mat") -> "Mat":
        out = {r: dict(row) for r, row in self.rows.items()}
        for r, row in other.rows.items():
            dst = out.setdefault(r, {})
            for c, v in row.items():
                _add_into(dst, c, v)
        return Mat(self.nrows, self.ncols, {r: row for r, row in out.items() if row})

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, k) -> "Mat":
        k = rf(k)
        if k.is_zero:
            return Mat(self.nrows, self.ncols)
        return Mat(self.nrows, self.ncols,
                   {r: {c: v * k for c, v in row.items()}
                    for r, row in self.rows.items()})

    def is_zero(self):
        return not self.rows

    def __eq__(self, other):
        return (isinstance(other, Mat) and (self - other).is_zero())

    def nonzero_entries(self, limit=None):
        out = []
        for r in sorted(self.rows):
            for c in sorted(self.rows[r]):
                out.append((r, c, self.rows[r][c]))
                if limit and len(out) >= limit:
                    return out
        return out


def flatten(idx, n) -> int:
    out = 0
    for i in idx:
        out = out * n + i
    return out


def unflatten(x, n, k):
    out = []
    for _ in range(k):
        out.append(x % n)
        x //= n
    return tuple(reversed(out))


def _factors(size, n) -> int:
    """k with n ** k == size: the number of factors of a space.  For n = 1
    every space has size 1 and the count reads as 0."""
    k = 0
    while n ** k < size:
        k += 1
    return k


def braid_mat(t: Tensor) -> Mat:
    """Row-convention matrix of a rank-4 tensor on the two-factor space."""
    n = t.n
    m = Mat(n * n, n * n)
    for (k1, k2, i1, i2), v in t.items():
        m.set(flatten((i1, i2), n), flatten((k1, k2), n), v)
    return m


def c_mat(c: Tensor) -> Mat:
    """Row-convention matrix of structure constants, [(i, j), k] = C^k_{ij}:
    the operator contracting two factors into one."""
    n = c.n
    m = Mat(n * n, n)
    for (k, i, j), v in c.items():
        m.set(flatten((i, j), n), k, v)
    return m


def embed(m: Mat, n: int, total: int, pos: int) -> Mat:
    """id^{pos} (x) m (x) id^{rest} on the total-factor space, for m an
    operator from a to b factors acting on factors pos .. pos + a - 1: a
    braid matrix, the contraction ``c_mat(C)`` (the other factors pass
    through: the delta insertions of the proof identities) or a projector."""
    a, b = _factors(m.nrows, n), _factors(m.ncols, n)
    rest = n ** (total - pos - a)
    rows = {}
    for pre in range(n ** pos):
        for r, row in m.rows.items():
            r0 = (pre * m.nrows + r) * rest
            for t in range(rest):
                rows[r0 + t] = {(pre * m.ncols + c) * rest + t: v
                                for c, v in row.items()}
    return Mat(n ** total, n ** (total - a + b), rows)


def pair_table(m: Mat, n: int, out_factors: int = 2,
               partial_transpose: bool = False) -> dict:
    """An operator on pairs as a lookup table, in one of two readings.

    Rows: m[(i, j), out] reads (i, j) -> [(out, value), ...], with out the
    multi-index of an ``out_factors``-factor space.  Partial transpose, for
    an m on pairs: m[(i, j), (k, l)] reads (j, l) -> [((i, k), value), ...],
    the second row and column indices known and the first ones produced.
    """
    table = {}
    for r, row in m.rows.items():
        i, j = divmod(r, n)
        for c, v in row.items():
            if partial_transpose:
                k, l = divmod(c, n)
                key, out = (j, l), (i, k)
            else:
                key, out = (i, j), unflatten(c, n, out_factors)
            table.setdefault(key, []).append((out, v))
    return table


# -- constructors ----------------------------------------------------------


def super_permutation(parities) -> Tensor:
    """sigma^{k1 k2}_{i1 i2} = (-1)^{(i1)(i2)} delta^{k1}_{i2} delta^{k2}_{i1}."""
    n = len(parities)
    entries = {}
    for i1 in range(n):
        for i2 in range(n):
            sign = -1 if parities[i1] and parities[i2] else 1
            entries[(i2, i1, i1, i2)] = sign
    return Tensor(4, n, entries)


def lie_super_twist(parities):
    """The Lie-superalgebra ghost twist: (phi, sigma_tilde) of the
    alternative (non-canonical) ghost sector.

    phi^{kl}_{mn} = (-1)^{(n)((m)+1)} delta^k_n delta^l_m and
    sigma_tilde^{kl}_{mn} = (-1)^{(m)(n)+(m)+(n)} delta^k_n delta^l_m.
    """
    n = len(parities)
    phi_e, st_e = {}, {}
    for m in range(n):
        for nn in range(n):
            pm, pn = parities[m], parities[nn]
            phi_e[(nn, m, m, nn)] = -1 if (pn * (pm + 1)) % 2 else 1
            st_e[(nn, m, m, nn)] = -1 if (pm * pn + pm + pn) % 2 else 1
    return Tensor(4, n, phi_e), Tensor(4, n, st_e)


# -- data bundles ----------------------------------------------------------


@dataclass
class QlaData:
    n: int
    parities: tuple
    sigma: Tensor
    c: Tensor


@dataclass
class TwistData:
    """A twist phi with its braid matrix and that matrix's inverse, which
    is computed once here and shared by every check of the twist."""
    phi: Tensor
    phi_mat: Mat
    phi_inverse_mat: Mat

    def conjugate(self, braid: Mat) -> Mat:
        """phi braid phi^{-1} (written order); sigma_tilde for sigma."""
        return self.phi_mat @ braid @ self.phi_inverse_mat


def twist_from_phi(phi: Tensor) -> TwistData:
    """Raises ZeroDivisionError when phi is singular."""
    p = braid_mat(phi)
    size = p.nrows
    # row r of the inverse solves x p = e_r, that is p^T x = e_r
    transposed = [[p.get(r, c) for r in range(size)] for c in range(size)]
    units = [[RF_ONE if r == c else RF_ZERO for c in range(size)]
             for r in range(size)]
    rows = solve_columns(transposed, units, RF_ZERO, RF_ONE)
    if None in rows:
        raise ZeroDivisionError("phi is singular")
    return TwistData(phi, p, Mat(size, size, {
        r: {c: v for c, v in enumerate(x) if v} for r, x in enumerate(rows)}))


@dataclass
class AxiomReport:
    """Named residuals of checks on n-dimensional data; an empty residual
    list means the check passed."""

    n: int
    residuals: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def record(self, name: str, residual_entries):
        self.residuals[name] = list(residual_entries)

    def record_mat(self, name: str, m: Mat, limit=8):
        """The first nonzero entries of m as (row multi-index, column
        multi-index, value)."""
        kr, kc = _factors(m.nrows, self.n), _factors(m.ncols, self.n)
        self.residuals[name] = [
            (unflatten(r, self.n, kr), unflatten(c, self.n, kc), v)
            for r, c, v in m.nonzero_entries(limit)]

    def passed(self, name: str) -> bool:
        return not self.residuals[name]

    @property
    def all_pass(self) -> bool:
        return all(not v for v in self.residuals.values())


# -- axiom checks ----------------------------------------------------------


def check_qla_axioms(d: QlaData) -> AxiomReport:
    """Residuals of the unitarity, braid, Jacobi, sigma-C compatibility and
    C antisymmetry equations, plus solvability of C = (1 - sigma) t with a
    witness."""
    n = d.n
    rep = AxiomReport(n)
    s = braid_mat(d.sigma)
    ident2 = Mat.identity(n * n)
    rep.record_mat("sigma_unitary", s @ s - ident2)

    s12 = embed(s, n, 3, 0)
    s23 = embed(s, n, 3, 1)
    rep.record_mat("braid", s12 @ s23 @ s12 - s23 @ s12 @ s23)

    # Jacobi and the two sigma-C compatibilities on three factors, and
    # (1 + sigma) C = 0 on two
    c2 = c_mat(d.c)
    c12, c23 = embed(c2, n, 3, 0), embed(c2, n, 3, 1)
    rep.record_mat("jacobi", (c12 - s23 @ c12 - c23) @ c2)
    rep.record_mat("sigma_c_compat_1", c12 @ s - s23 @ s12 @ c23)
    x = s23 @ c12 + c23
    rep.record_mat("sigma_c_compat_2", x @ s - s12 @ x)
    rep.record_mat("c_antisymmetry", (ident2 + s) @ c2)

    # existence of t with C^i_{jk} = (delta - sigma)^{lm}_{jk} t^i_{lm}:
    # one row reduction of [1 - sigma | C^1 ... C^n]
    pairs = list(itertools.product(range(n), repeat=2))
    matrix = [[(RF_ONE if lm == jk else RF_ZERO) - d.sigma.get(lm + jk)
               for lm in pairs] for jk in pairs]
    columns = [[d.c.get((i,) + jk) for jk in pairs] for i in range(n)]
    xs = solve_columns(matrix, columns, RF_ZERO, RF_ONE)
    if any(x is None for x in xs):
        rep.record("t_exists", [("no solution of C = (1 - sigma) t",)])
    else:
        rep.record("t_exists", [])
        rep.extras["t_witness"] = Tensor(3, n, {
            (i,) + lm: v for i, x in enumerate(xs)
            for lm, v in zip(pairs, x)})
    return rep


def check_twist_axioms(sigma: Tensor, twist: TwistData,
                       c: Tensor = None) -> AxiomReport:
    """Residuals of the twist-pair compatibility equations."""
    n = sigma.n
    rep = AxiomReport(n)
    s = braid_mat(sigma)
    p = twist.phi_mat
    st = twist.conjugate(s)

    s12, s23 = embed(s, n, 3, 0), embed(s, n, 3, 1)
    p12, p23 = embed(p, n, 3, 0), embed(p, n, 3, 1)
    st12, st23 = embed(st, n, 3, 0), embed(st, n, 3, 1)

    rep.record_mat("twist_sigma_phiphi", s12 @ p23 @ p12 - p23 @ p12 @ s23)
    rep.record_mat("twist_phiphi_sigma", p12 @ p23 @ s12 - s23 @ p12 @ p23)
    rep.record_mat("phi_braid", p12 @ p23 @ p12 - p23 @ p12 @ p23)
    rep.record_mat("twist_sigmatilde_phiphi", st12 @ p23 @ p12 - p23 @ p12 @ st23)
    if not (s @ s - Mat.identity(n * n)).is_zero():
        rep.record("sigmatilde_unitary", [("sigma itself is not unitary",)])
    else:
        rep.record_mat("sigmatilde_unitary", st @ st - Mat.identity(n * n))
    if c is not None:
        cm = c_mat(c)
        lhs = p12 @ p23 @ embed(cm, n, 3, 0)
        rhs = embed(cm, n, 3, 1) @ p
        rep.record_mat("phi_c_compat", lhs - rhs)
    return rep


# -- antisymmetrizers and proof identities ---------------------------------


def antisymmetrizer_mats(braid: Mat, n: int, kmax: int) -> dict:
    """A_1..A_kmax for a unitary braid matrix, via the recurrence
    A_{k+1} = (1/k!)(1 - s_k + s_{k-1} s_k - ... + (-1)^k s_1..s_k) A_k."""
    mats = {1: Mat.identity(n)}
    for k in range(1, kmax):
        total = k + 1
        s_emb = [embed(braid, n, total, j) for j in range(k)]  # s_1..s_k
        acc = Mat.identity(n ** total)
        chain = None
        sign = -1
        # terms: -s_k, +s_{k-1} s_k, ..., (-1)^k s_1...s_k
        for j in range(k - 1, -1, -1):
            chain = s_emb[j] if chain is None else s_emb[j] @ chain
            acc = acc + chain.scaled(sign)
            sign = -sign
        prev = embed(mats[k], n, total, 0)
        mats[total] = acc.scaled(Fraction(1, factorial(k))) @ prev
    return mats


def quasi_idempotent_rescale(m: Mat, label="antisymmetrizer") -> Mat:
    """Rescale m with m @ m = lambda m (lambda a nonzero constant) to a
    projector; the recurrence eigenvalue depends on the braid data."""
    if m.is_zero():
        return m
    sq = m @ m
    lam = None
    for r, row in m.rows.items():
        for c, v in row.items():
            if not v.is_zero:
                lam = sq.get(r, c) / v
                break
        if lam is not None:
            break
    if lam.is_zero or not lam.is_constant:
        raise ValueError(f"{label} is not quasi-idempotent")
    out = m.scaled(Fraction(1) / lam.constant_value())
    if not (out @ out - out).is_zero():
        raise ValueError(f"{label} is not quasi-idempotent")
    return out


def antisymmetrizer(sigma: Tensor, k: int, check=True) -> Mat:
    """The rank-k antisymmetrizing projector for a unitary braid matrix."""
    n = sigma.n
    s = braid_mat(sigma)
    if check:
        if not (s @ s - Mat.identity(n * n)).is_zero():
            raise ValueError("antisymmetrizer needs a unitary braid matrix")
        s12, s23 = embed(s, n, 3, 0), embed(s, n, 3, 1)
        if not (s12 @ s23 @ s12 - s23 @ s12 @ s23).is_zero():
            raise ValueError("antisymmetrizer needs the braid relation")
    return quasi_idempotent_rescale(antisymmetrizer_mats(s, n, k)[k],
                                    f"rank-{k} antisymmetrizer")


def higher_phi_mat(phi: Tensor, m: int) -> Mat:
    """phi_{1..m} = (phi_1 .. phi_{m-1})(phi_1 .. phi_{m-2}) ... phi_1."""
    n = phi.n
    p = braid_mat(phi)
    emb = [embed(p, n, m, j) for j in range(m - 1)]
    out = Mat.identity(n ** m)
    for top in range(m - 1, 0, -1):
        for j in range(top):
            out = out @ emb[j]
    return out


def check_proof_identities(sigma: Tensor, c: Tensor,
                           twist: TwistData) -> AxiomReport:
    """The higher-twist, antisymmetrizer and structure-constant identities
    used in the nilpotency proof, on up to four tensor factors."""
    n = sigma.n
    rep = AxiomReport(n)
    s = braid_mat(sigma)
    st = twist.conjugate(s)
    phi = twist.phi

    # phi_{1..m} sigma_{1+k} = sigmatilde_{m-k-1} phi_{1..m}
    for m in (2, 3, 4):
        big = higher_phi_mat(phi, m)
        for k in range(m - 1):
            lhs = big @ embed(s, n, m, k)
            rhs = embed(st, n, m, m - k - 2) @ big
            rep.record_mat(f"higher_twist_m{m}_k{k}", lhs - rhs)

    # A_k^{(st)} st_j = -A_k^{(st)} for j < k <= 4
    ast = antisymmetrizer_mats(st, n, 4)
    for k in (2, 3, 4):
        a = ast[k]
        for j in range(k - 1):
            lhs = a @ embed(st, n, k, j)
            rep.record_mat(f"antisym_absorb_k{k}_j{j + 1}", lhs + a)

    asig = antisymmetrizer_mats(s, n, 4)
    cm = c_mat(c)
    c12 = embed(cm, n, 3, 0)
    # A_4 C_{34} C_{12}delta (1 - sigma_1) = 0
    lhs = asig[4] @ embed(cm, n, 4, 2) @ c12 @ (Mat.identity(n * n) - s)
    rep.record_mat("ccdelta_identity_1", lhs)
    # A_3 C_{12}delta C_{12} = 0
    rep.record_mat("ccdelta_identity_2", asig[3] @ c12 @ cm)

    # A_3^{(st)} phi_{123} (1 - sigma_23 sigma_12) = 0
    s12, s23 = embed(s, n, 3, 0), embed(s, n, 3, 1)
    big3 = higher_phi_mat(phi, 3)
    lhs = ast[3] @ big3 @ (Mat.identity(n ** 3) - s23 @ s12)
    rep.record_mat("cubic_obstruction", lhs)
    return rep
