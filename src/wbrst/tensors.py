"""Tensor calculus for quantum Lie algebra data {sigma, C, phi}.

All the defining identities and the proof identities are products of
operators written left to right, acting on row vectors (in the algebra the
ghost coefficients multiply from the left).  We therefore realize every
operator as a sparse matrix indexed [input multi-index, output multi-index]
over the flattened space {0..N-1}^k, and multiply matrices in the written
order of the identity.  This is the one encoding of a dataset: a braid
matrix or twist is the matrix [(i, j), (k, l)] = sigma^{kl}_{ij}, and the
structure constants are the contraction [(i, j), k] = C^k_{ij} of two
factors into one.

Every identity checked here, except the solvability of C = (1 - sigma) t,
is a product of such matrices: ``embed`` places an operator on adjacent
factors of a larger space, be it a braid matrix, the contraction C or an
antisymmetrizer.  A failing identity reports its first nonzero entries as
(row multi-index, column multi-index, value), in the order of the
flattened indices.

``QlaData`` holds these matrices; ``omega`` reads sigma, sigma_tilde, phi
and C only through them, as the lookup tables of ``pair_table``, and its
ghost blocks through ``antisymmetrizer_projectors``, the one construction
of the antisymmetrizers that the proof identities use as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .linalg import normal_form, rref
from .scalars import RF_ONE, RF_ZERO, _add_into, rf


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
        if not val.is_zero:
            self.rows.setdefault(r, {})[c] = val
        elif (row := self.rows.get(r)) is not None:
            row.pop(c, None)
            if not row:
                del self.rows[r]

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
        return self._sum(other, False)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._sum(other, True)

    def _sum(self, other: "Mat", negate: bool) -> "Mat":
        """self + other, or self - other when ``negate``: each entry of
        other goes straight into the sum (negated for a difference), and
        other is not copied."""
        out = {r: dict(row) for r, row in self.rows.items()}
        for r, row in other.rows.items():
            dst = out.setdefault(r, {})
            for c, v in row.items():
                _add_into(dst, c, -v if negate else v)
        return Mat(self.nrows, self.ncols, {r: row for r, row in out.items() if row})

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
        return (isinstance(other, Mat) and self.nrows == other.nrows
                and self.ncols == other.ncols and (self - other).is_zero())

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


def embed(m: Mat, n: int, total: int, pos: int) -> Mat:
    """id^{pos} (x) m (x) id^{rest} on the total-factor space, for m an
    operator from a to b factors acting on factors pos .. pos + a - 1: a
    braid matrix, the contraction C (the other factors pass
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


def super_permutation(parities) -> Mat:
    """sigma^{k1 k2}_{i1 i2} = (-1)^{(i1)(i2)} delta^{k1}_{i2} delta^{k2}_{i1}."""
    n = len(parities)
    m = Mat(n * n, n * n)
    for i1 in range(n):
        for i2 in range(n):
            m.set(flatten((i1, i2), n), flatten((i2, i1), n),
                  -1 if parities[i1] and parities[i2] else 1)
    return m


def lie_super_twist(parities):
    """The Lie-superalgebra ghost twist: (phi, sigma_tilde) of the
    alternative (non-canonical) ghost sector.

    phi^{kl}_{mn} = (-1)^{(n)((m)+1)} delta^k_n delta^l_m and
    sigma_tilde^{kl}_{mn} = (-1)^{(m)(n)+(m)+(n)} delta^k_n delta^l_m.
    """
    n = len(parities)
    phi, st = Mat(n * n, n * n), Mat(n * n, n * n)
    for m in range(n):
        for nn in range(n):
            pm, pn = parities[m], parities[nn]
            r, c = flatten((m, nn), n), flatten((nn, m), n)
            phi.set(r, c, -1 if (pn * (pm + 1)) % 2 else 1)
            st.set(r, c, -1 if (pm * pn + pm + pn) % 2 else 1)
    return phi, st


# -- the dataset -----------------------------------------------------------


@dataclass(frozen=True)
class QlaData:
    """A quantum Lie algebra dataset on n generators: the braid matrix
    sigma and the twist phi at [(i, j), (k, l)] = sigma^{kl}_{ij}, and the
    structure constants c at [(i, j), k] = C^k_{ij}."""
    n: int
    parities: tuple
    sigma: Mat
    c: Mat
    phi: Mat

    @cached_property
    def phi_inverse(self) -> Mat:
        """Raises ZeroDivisionError when phi is singular."""
        size = self.phi.nrows
        # [phi | 1] reduces to [1 | phi^{-1}]
        red, pivots = rref([{**self.phi.rows.get(r, {}), size + r: 1}
                            for r in range(size)], size)
        if len(pivots) < size:
            raise ZeroDivisionError("phi is singular")
        return Mat(size, size, {r: {c - size: v for c, v in row.items()
                                    if c >= size}
                                for r, row in enumerate(red)})

    @cached_property
    def sigma_tilde(self) -> Mat:
        """phi sigma phi^{-1} (written order), the braid of the twisted
        ghosts."""
        return self.phi @ self.sigma @ self.phi_inverse


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
    s = d.sigma
    ident2 = Mat.identity(n * n)
    rep.record_mat("sigma_unitary", s @ s - ident2)

    s12 = embed(s, n, 3, 0)
    s23 = embed(s, n, 3, 1)
    rep.record_mat("braid", s12 @ s23 @ s12 - s23 @ s12 @ s23)

    # Jacobi and the two sigma-C compatibilities on three factors, and
    # (1 + sigma) C = 0 on two
    c2 = d.c
    c12, c23 = embed(c2, n, 3, 0), embed(c2, n, 3, 1)
    rep.record_mat("jacobi", (c12 - s23 @ c12 - c23) @ c2)
    rep.record_mat("sigma_c_compat_1", c12 @ s - s23 @ s12 @ c23)
    x = s23 @ c12 + c23
    rep.record_mat("sigma_c_compat_2", x @ s - s12 @ x)
    rep.record_mat("c_antisymmetry", (ident2 + s) @ c2)

    # existence of t with C^i_{jk} = (delta - sigma)^{lm}_{jk} t^i_{lm}:
    # C^i is in the span of the columns lm of 1 - sigma, rows over jk with
    # a unit block, when its normal form is zero over jk, and then minus
    # its unit block is t^i_{lm}, the witness t at [(l, m), i]
    nn = n * n
    columns = [{nn + lm: 1} for lm in range(nn)]
    for jk, row in (ident2 - s).rows.items():
        for lm, v in row.items():
            columns[lm][jk] = v
    red, pivots = rref(columns, nn)
    t = Mat(nn, n)
    for i in range(n):
        rest = normal_form(red, pivots, {jk: v for jk, row in c2.rows.items()
                                         if (v := row.get(i))})
        if any(jk < nn for jk in rest):
            rep.record("t_exists", [("no solution of C = (1 - sigma) t",)])
            return rep
        for lm, v in rest.items():
            t.set(lm - nn, i, -v)
    rep.record("t_exists", [])
    rep.extras["t_witness"] = t
    return rep


def check_twist_axioms(d: QlaData) -> AxiomReport:
    """Residuals of the twist-pair compatibility equations."""
    n = d.n
    rep = AxiomReport(n)
    s, p, st = d.sigma, d.phi, d.sigma_tilde

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
    lhs = p12 @ p23 @ embed(d.c, n, 3, 0)
    rep.record_mat("phi_c_compat", lhs - embed(d.c, n, 3, 1) @ p)
    return rep


# -- antisymmetrizers and proof identities ---------------------------------


def antisymmetrizer_projectors(braid: Mat, n: int, kmax: int) -> dict:
    """A_1..A_kmax, the antisymmetrizing projectors of a braid matrix that
    is involutive and obeys the braid relation.  Such a braid makes the
    permutations a representation of S_k, and A_k is the signed sum of
    all k! of them over k!.  The signed coset representatives of S_k in
    S_{k+1} give the recurrence
        A_{k+1} = (1/(k+1)) (1 - s_k + s_{k-1} s_k - ...
                             + (-1)^k s_1..s_k) (A_k (x) 1)."""
    mats = {1: Mat.identity(n)}
    for k in range(1, kmax):
        total = k + 1
        s_emb = [embed(braid, n, total, j) for j in range(k)]  # s_1..s_k
        acc, chain = Mat.identity(n ** total), None
        # terms: -s_k, +s_{k-1} s_k, ..., (-1)^k s_1...s_k
        for j in range(k - 1, -1, -1):
            chain = s_emb[j] if chain is None else s_emb[j] @ chain
            acc = acc + chain.scaled((-1) ** (k - j))
        prev = embed(mats[k], n, total, 0)
        mats[total] = acc.scaled(Fraction(1, total)) @ prev
    return mats


def higher_phi_mats(d: QlaData, mmax: int) -> dict:
    """phi_{1..m} for m = 2 .. mmax, by the recurrence phi_{1..m} =
    (phi_1 .. phi_{m-1})(phi_{1..m-1} (x) 1) from phi_{1..2} = phi_1; the
    chain phi_1 .. phi_{m-1} grows by one product per m as well."""
    n, chain = d.n, d.phi
    mats = {2: chain}
    for m in range(3, mmax + 1):
        chain = embed(chain, n, m, 0) @ embed(d.phi, n, m, m - 2)
        mats[m] = chain @ embed(mats[m - 1], n, m, 0)
    return mats


def check_proof_identities(d: QlaData) -> AxiomReport:
    """The higher-twist, antisymmetrizer and structure-constant identities
    used in the nilpotency proof, on up to four tensor factors."""
    n = d.n
    rep = AxiomReport(n)
    s, st = d.sigma, d.sigma_tilde

    # phi_{1..m} sigma_{1+k} = sigmatilde_{m-k-1} phi_{1..m}
    bigs = higher_phi_mats(d, 4)
    for m, big in bigs.items():
        for k in range(m - 1):
            lhs = big @ embed(s, n, m, k)
            rhs = embed(st, n, m, m - k - 2) @ big
            rep.record_mat(f"higher_twist_m{m}_k{k}", lhs - rhs)

    # A_k^{(st)} st_j = -A_k^{(st)} for j < k <= 4
    ast = antisymmetrizer_projectors(st, n, 4)
    for k in (2, 3, 4):
        a = ast[k]
        for j in range(k - 1):
            lhs = a @ embed(st, n, k, j)
            rep.record_mat(f"antisym_absorb_k{k}_j{j + 1}", lhs + a)

    # equal braids (sigma_tilde = sigma whenever phi commutes with sigma)
    # have equal antisymmetrizers
    asig = ast if st == s else antisymmetrizer_projectors(s, n, 4)
    cm = d.c
    c12 = embed(cm, n, 3, 0)
    # A_4 C_{34} C_{12}delta (1 - sigma_1) = 0
    lhs = asig[4] @ embed(cm, n, 4, 2) @ c12 @ (Mat.identity(n * n) - s)
    rep.record_mat("ccdelta_identity_1", lhs)
    # A_3 C_{12}delta C_{12} = 0
    rep.record_mat("ccdelta_identity_2", asig[3] @ c12 @ cm)

    # A_3^{(st)} phi_{123} (1 - sigma_23 sigma_12) = 0
    s12, s23 = embed(s, n, 3, 0), embed(s, n, 3, 1)
    lhs = ast[3] @ bigs[3] @ (Mat.identity(n ** 3) - s23 @ s12)
    rep.record_mat("cubic_obstruction", lhs)
    return rep
