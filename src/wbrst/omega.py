"""The ghost-extended algebra of a quantum Lie algebra dataset.

Elements are sums of words in three letter types: 'c' (upper-index ghost),
'x' (algebra generator, lower index), 'b' (lower-index antighost), each
word contracted with a sparse coefficient tensor.  The defining exchange
relations let every word be brought to the block order c..c x..x b..b,
and the quadratic relations inside each block single out a canonical
coefficient: twisted antisymmetrization for the ghost blocks, each read
in its written index order, and braid symmetrization plus a linear
remainder for the generator block.  The ghost blocks are the images of
the projectors A_k of sigma_tilde from ``tensors``, the matrices that
the proof identities of the nilpotency proof are checked on.

Every relation reads the dataset through the row-convention matrices of
its ``QlaData`` (sigma, sigma_tilde = phi sigma phi^{-1}, phi and C),
turned into lookup tables by ``pair_table`` once per algebra: the
exchange moves b c, b x and x c, and the sigma and C rows of the
generator reduction.  The differential Q is built once per algebra.

Canonical forms make equality decidable, which is what the nilpotency
check of the ghost differential needs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import WbrstError
from .scalars import RF_ONE, _add_into, rf
from .tensors import (Mat, QlaData, antisymmetrizer_projectors, embed,
                      flatten, pair_table, unflatten)


class OmegaError(WbrstError):
    pass


_RANK = {"c": 0, "x": 1, "b": 2}

# sector caps (c-degree, generator degree, b-degree); enough for a
# square of the differential, which is all the canonical form is for
P_MAX, Q_MAX, R_MAX = 4, 2, 2


class OmegaAlgebra:
    """Precomputed exchange data for one quantum Lie algebra dataset."""

    def __init__(self, data: QlaData):
        self.data = data
        self.n = data.n
        n = self.n
        self.st_mat = data.sigma_tilde
        ident = Mat.identity(n * n)
        if not (self.st_mat @ self.st_mat - ident).is_zero():
            raise OmegaError("twisted braid matrix is not involutive")
        st12 = embed(self.st_mat, n, 3, 0)
        st23 = embed(self.st_mat, n, 3, 1)
        if not (st12 @ st23 @ st12 - st23 @ st12 @ st23).is_zero():
            raise OmegaError("twisted braid matrix fails the braid relation")
        # ghost blocks: the coefficient of b_{j_1} .. b_{j_r} lies in the
        # image of the projector A_r of sigma_tilde, and that of
        # c^{i_1} .. c^{i_p} in the image of A_p, both indexed in written
        # order; the two checks above make the coset recurrence of
        # ``antisymmetrizer_projectors`` give projectors
        self.antisym = antisymmetrizer_projectors(self.st_mat, n,
                                                  max(P_MAX, R_MAX))

        # exchange moves: the known index pair of the out-of-order letters
        # -> [(index pair of the swapped letters, coefficient)]
        self.exchange = {
            # b_i c^k = delta_i^k - (sigma_tilde^{-1})^{nk}_{ji} c^j b_n, and
            # sigma_tilde^{-1} = sigma_tilde, checked involutive above
            ("b", "c"): pair_table(self.st_mat.scaled(-1), n,
                                   partial_transpose=True),
            # b_m chi_n = phi^{kl}_{mn} chi_k b_l
            ("b", "x"): pair_table(data.phi, n),
            # chi_n c^l = phi^{kl}_{mn} c^m chi_k
            ("x", "c"): pair_table(data.phi, n, partial_transpose=True),
        }
        # generator pairs: chi_i chi_j - sigma^{kl}_{ij} chi_k chi_l
        # = C^k_{ij} chi_k
        self.sigma_rows = pair_table(data.sigma, n)
        self.c_rows = pair_table(data.c, n, out_factors=1)

    @cached_property
    def q(self) -> "OmegaElement":
        """The ghost differential of ``build_q``."""
        return build_q(self)

    def element(self, terms=None) -> "OmegaElement":
        return OmegaElement(self, terms or {})

    def scalar(self, value) -> "OmegaElement":
        return self.element({(): {(): rf(value)}})

    def word(self, letters, coeff) -> "OmegaElement":
        letters = tuple(letters)
        cf = {tuple(i): rf(v) for i, v in coeff.items()}
        return self.element({letters: cf}).canonicalized()


class OmegaElement:
    def __init__(self, algebra: OmegaAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def is_zero(self) -> bool:
        return all(not cf for cf in self.terms.values())

    def __eq__(self, other):
        return isinstance(other, OmegaElement) and (self - other).is_zero()

    def __add__(self, other: "OmegaElement") -> "OmegaElement":
        out = {w: dict(cf) for w, cf in self.terms.items()}
        for w, cf in other.terms.items():
            dst = out.setdefault(w, {})
            for idx, v in cf.items():
                _add_into(dst, idx, v)
        return OmegaElement(self.algebra, {w: cf for w, cf in out.items() if cf})

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, k) -> "OmegaElement":
        k = rf(k)
        if k.is_zero:
            return OmegaElement(self.algebra, {})
        return OmegaElement(self.algebra,
                            {w: {i: v * k for i, v in cf.items()}
                             for w, cf in self.terms.items()})

    def __mul__(self, other: "OmegaElement") -> "OmegaElement":
        out = {}
        for w1, cf1 in self.terms.items():
            for w2, cf2 in other.terms.items():
                word = w1 + w2
                dst = out.setdefault(word, {})
                for i1, v1 in cf1.items():
                    for i2, v2 in cf2.items():
                        _add_into(dst, i1 + i2, v1 * v2)
        return OmegaElement(self.algebra,
                            {w: cf for w, cf in out.items() if cf}).canonicalized()

    # -- normal ordering --------------------------------------------------

    def canonicalized(self) -> "OmegaElement":
        alg = self.algebra
        sorted_terms = {}
        work = [(w, dict(cf)) for w, cf in self.terms.items() if cf]
        while work:
            word, coeff = work.pop()
            pos = next((i for i in range(len(word) - 1)
                        if _RANK[word[i]] > _RANK[word[i + 1]]), None)
            if pos is None:
                dst = sorted_terms.setdefault(word, {})
                for idx, v in coeff.items():
                    _add_into(dst, idx, v)
                continue
            for new_word, new_coeff in _exchange(alg, word, coeff, pos):
                if new_coeff:
                    work.append((new_word, new_coeff))
        out = {}
        for word, coeff in sorted_terms.items():
            for w2, cf2 in _reduce_block(alg, word, coeff):
                dst = out.setdefault(w2, {})
                for idx, v in cf2.items():
                    _add_into(dst, idx, v)
        return OmegaElement(self.algebra, {w: cf for w, cf in out.items() if cf})

    def ghost_number(self):
        """c-degree minus b-degree, or None when the terms disagree."""
        numbers = {w.count("c") - w.count("b")
                   for w, cf in self.terms.items() if cf}
        if not numbers:
            return 0
        if len(numbers) > 1:
            return None
        return numbers.pop()

    def __repr__(self):
        bits = [f"{''.join(w) or '1'}:{len(self.terms[w])}"
                for w in sorted(self.terms, key=lambda w: (len(w), w))]
        return f"OmegaElement({', '.join(bits) or '0'})"


def _exchange(alg, word, coeff, pos):
    """Rewrite the out-of-order letter pair at (pos, pos+1); b c also
    contracts to delta."""
    pair = word[pos:pos + 2]
    table = alg.exchange.get(pair)
    if table is None:
        raise OmegaError(f"unexpected pair {''.join(pair)}")
    contracts = pair == ("b", "c")
    swapped = {}
    contracted = {}
    for idx, v in coeff.items():
        known = idx[pos:pos + 2]
        for out, w in table.get(known, ()):
            _add_into(swapped, idx[:pos] + out + idx[pos + 2:], v * w)
        if contracts and known[0] == known[1]:
            _add_into(contracted, idx[:pos] + idx[pos + 2:], v)
    return [(word[:pos] + pair[::-1] + word[pos + 2:], swapped),
            (word[:pos] + word[pos + 2:], contracted)]


def _reduce_block(alg, word, coeff):
    """Canonical form of a block-ordered word: reduce a generator pair,
    then antisymmetrize the ghost blocks."""
    p = word.count("c")
    q = word.count("x")
    r = word.count("b")
    if p > P_MAX or q > Q_MAX or r > R_MAX:
        raise OmegaError(f"sector cap exceeded by word {''.join(word)}")
    if q < 2:
        return [_project_ghosts(alg, word, coeff, p, r)]
    # chi_i chi_j = (1/2)(chi_i chi_j + sigma^{kl}_{ij} chi_k chi_l)
    #               + (1/2) C^k_{ij} chi_k
    half = Fraction(1, 2)
    sym = {}
    lin = {}
    for idx, v in coeff.items():
        pair = idx[p:p + 2]
        _add_into(sym, idx, v * half)
        for out, w in alg.sigma_rows.get(pair, ()):
            _add_into(sym, idx[:p] + out + idx[p + 2:], v * w * half)
        for out, w in alg.c_rows.get(pair, ()):
            _add_into(lin, idx[:p] + out + idx[p + 2:], v * w * half)
    results = [_project_ghosts(alg, word, sym, p, r)]
    if lin:
        results.extend(
            _reduce_block(alg, word[:p] + ("x",) + word[p + 2:], lin))
    return results


def _project_ghosts(alg, word, coeff, p, r):
    """Apply A_p to the c block and A_r to the b block, in written order.
    So c^i c^j = -sigma_tilde^{kl}_{ij} c^k c^l, the relation the b c
    exchange implies: b_m c^k c^l has the linear part delta_m^k c^l -
    sigma_tilde^{lk}_{jm} c^j, which vanishes on the relation.  For a
    color braid that is c^i c^j = -eps(deg i, deg j) c^j c^i."""
    n = alg.n
    for start, size in ((0, p), (len(word) - r, r)):
        if size < 2:
            continue
        a = alg.antisym[size]
        out = {}
        for idx, v in coeff.items():
            row = a.rows.get(flatten(idx[start:start + size], n))
            if not row:
                continue
            for col, w in row.items():
                _add_into(out, idx[:start] + unflatten(col, n, size)
                          + idx[start + size:], v * w)
        coeff = out
    return word, coeff


# -- the differential ------------------------------------------------------


def build_q(alg: OmegaAlgebra) -> OmegaElement:
    """The ghost differential c^i chi_i - (1/2) c c phi C b: the cubic
    term is -(1/2) (phi C)^k_{yx} c^x c^y b_k, the ghosts in the opposite
    order to the lower index pair of phi C."""
    n = alg.n
    linear = {(i, i): RF_ONE for i in range(n)}
    phi_c = alg.data.phi @ alg.data.c
    half = Fraction(-1, 2)
    cubic = {(x, y, k): v * half
             for (y, x), entries in pair_table(phi_c, n, out_factors=1).items()
             for (k,), v in entries}
    q = alg.element({("c", "x"): linear, ("c", "c", "b"): cubic})
    return q.canonicalized()


def verify_nilpotent(alg: OmegaAlgebra):
    """Square the differential in canonical form; returns (bool,
    residual)."""
    sq = alg.q * alg.q
    return sq.is_zero(), sq
