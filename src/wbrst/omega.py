"""The ghost-extended algebra of a quantum Lie algebra dataset.

Elements are sums of words in three letter types: 'c' (upper-index ghost),
'x' (algebra generator, lower index), 'b' (lower-index antighost), each
word contracted with a sparse coefficient tensor.  The defining exchange
relations let every word be brought to the block order c..c x..x b..b,
and the quadratic relations inside each block single out a canonical
coefficient: twisted antisymmetrization for the ghost blocks (with the
index order of the c block reversed) and braid symmetrization plus a
linear remainder for the generator block.

Canonical forms make equality decidable, which is what the nilpotency
check of the ghost differential needs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import WbrstError
from .scalars import RF_ONE, _add_into, rf
from .tensors import (Mat, QlaData, Tensor, TwistData, antisymmetrizer_mats,
                      braid_mat, embed, flatten, unflatten)


class OmegaError(WbrstError):
    pass


_RANK = {"c": 0, "x": 1, "b": 2}

# sector caps (c-degree, generator degree, b-degree); enough for a
# square of the differential, which is all the canonical form is for
P_MAX, Q_MAX, R_MAX = 4, 2, 2


class OmegaAlgebra:
    """Precomputed exchange data for one quantum Lie algebra dataset."""

    def __init__(self, data: QlaData, twist: TwistData):
        self.data = data
        self.twist = twist
        self.n = data.n
        n = self.n
        self.st_mat = twist.conjugate(braid_mat(data.sigma))
        ident = Mat.identity(n * n)
        if not (self.st_mat @ self.st_mat - ident).is_zero():
            raise OmegaError("twisted braid matrix is not involutive")
        st_inv = self.st_mat  # an involution is its own inverse
        st12 = embed(self.st_mat, n, 3, 0)
        st23 = embed(self.st_mat, n, 3, 1)
        if not (st12 @ st23 @ st12 - st23 @ st12 @ st23).is_zero():
            raise OmegaError("twisted braid matrix fails the braid relation")
        # the recurrence yields quasi-idempotents A_k A_k = lambda A_k with
        # a data-dependent eigenvalue; canonical forms need A_k / lambda
        self.antisym = {
            k: _idempotent(m, k)
            for k, m in antisymmetrizer_mats(self.st_mat, n,
                                             max(P_MAX, R_MAX)).items()}

        # lookup tables for the exchange moves, keyed by the known pair
        self.bc_swap = {}   # (i2, k2) -> [((j1, n1), -st_inv^{n1 k2}_{j1 i2})]
        for r, row in st_inv.rows.items():
            j1, i2 = unflatten(r, n, 2)
            for cc, v in row.items():
                n1, k2 = unflatten(cc, n, 2)
                self.bc_swap.setdefault((i2, k2), []).append(((j1, n1), -v))
        self.bx_swap = {}   # (m, n) -> [((k, l), phi^{kl}_{mn})]
        self.xc_swap = {}   # (m, n) -> [((l, k), phi^{kn}_{lm})]
        for (k, l, m, nn), v in twist.phi.items():
            self.bx_swap.setdefault((m, nn), []).append(((k, l), v))
            # same tensor read for the chi-c move: the known pair is
            # (second lower, second upper), the output (first lower, first upper)
            self.xc_swap.setdefault((nn, l), []).append(((m, k), v))

    def element(self, terms=None) -> "OmegaElement":
        return OmegaElement(self, terms or {})

    def scalar(self, value) -> "OmegaElement":
        return self.element({(): {(): rf(value)}})

    def word(self, letters, coeff) -> "OmegaElement":
        letters = tuple(letters)
        cf = {tuple(i): rf(v) for i, v in coeff.items()}
        return self.element({letters: cf}).canonicalized()


def _idempotent(m, k):
    from .tensors import quasi_idempotent_rescale
    try:
        return quasi_idempotent_rescale(m, f"rank-{k} antisymmetrizer")
    except ValueError as err:
        raise OmegaError(str(err)) from None


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

    def sorted_terms(self):
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            cf = self.terms[word]
            yield word, [(idx, cf[idx]) for idx in sorted(cf)]

    def __repr__(self):
        bits = []
        for word, entries in self.sorted_terms():
            bits.append(f"{''.join(word) or '1'}:{len(entries)}")
        return f"OmegaElement({', '.join(bits) or '0'})"


def _exchange(alg, word, coeff, pos):
    """Rewrite the out-of-order letter pair at (pos, pos+1)."""
    a, b = word[pos], word[pos + 1]
    n = alg.n
    if (a, b) == ("b", "c"):
        swapped = {}
        contracted = {}
        for idx, v in coeff.items():
            i2, k2 = idx[pos], idx[pos + 1]
            for (j1, n1), w in alg.bc_swap.get((i2, k2), ()):
                _add_into(swapped, idx[:pos] + (j1, n1) + idx[pos + 2:], v * w)
            if i2 == k2:
                _add_into(contracted, idx[:pos] + idx[pos + 2:], v)
        new_word = word[:pos] + ("c", "b") + word[pos + 2:]
        short = word[:pos] + word[pos + 2:]
        return [(new_word, swapped), (short, contracted)]
    if (a, b) == ("b", "x"):
        swapped = {}
        for idx, v in coeff.items():
            for (k, l), w in alg.bx_swap.get((idx[pos], idx[pos + 1]), ()):
                _add_into(swapped, idx[:pos] + (k, l) + idx[pos + 2:], v * w)
        return [(word[:pos] + ("x", "b") + word[pos + 2:], swapped)]
    if (a, b) == ("x", "c"):
        swapped = {}
        for idx, v in coeff.items():
            for (l, k), w in alg.xc_swap.get((idx[pos], idx[pos + 1]), ()):
                _add_into(swapped, idx[:pos] + (l, k) + idx[pos + 2:], v * w)
        return [(word[:pos] + ("c", "x") + word[pos + 2:], swapped)]
    raise OmegaError(f"unexpected pair {a}{b}")


def _reduce_block(alg, word, coeff):
    """Canonical form of a block-ordered word: reduce a generator pair,
    then antisymmetrize the ghost blocks."""
    n = alg.n
    p = word.count("c")
    q = word.count("x")
    r = word.count("b")
    if p > P_MAX or q > Q_MAX or r > R_MAX:
        raise OmegaError(f"sector cap exceeded by word {''.join(word)}")
    results = []
    if q == 2:
        sig = alg.data.sigma
        cten = alg.data.c
        half = Fraction(1, 2)
        sym = {}
        lin = {}
        for idx, v in coeff.items():
            i, j = idx[p], idx[p + 1]
            _add_into(sym, idx, v * half)
            for (k1, k2, si, sj), sv in sig.items():
                if (si, sj) == (i, j):
                    _add_into(sym, idx[:p] + (k1, k2) + idx[p + 2:],
                              v * sv * half)
            for (k, ci, cj), cv in cten.items():
                if (ci, cj) == (i, j):
                    _add_into(lin, idx[:p] + (k,) + idx[p + 2:], v * cv * half)
        results.append(_project_ghosts(alg, word, sym, p, r))
        if lin:
            results.extend(
                _reduce_block(alg, word[:p] + ("x",) + word[p + 2:], lin))
        return results
    results.append(_project_ghosts(alg, word, coeff, p, r))
    return results


def _project_ghosts(alg, word, coeff, p, r):
    n = alg.n
    total = len(word)
    if p >= 2:
        a = alg.antisym[p]
        out = {}
        for idx, v in coeff.items():
            row = a.rows.get(flatten(tuple(reversed(idx[:p])), n))
            if not row:
                continue
            for col, w in row.items():
                new_c = tuple(reversed(unflatten(col, n, p)))
                _add_into(out, new_c + idx[p:], v * w)
        coeff = out
    if r >= 2:
        a = alg.antisym[r]
        out = {}
        for idx, v in coeff.items():
            row = a.rows.get(flatten(idx[total - r:], n))
            if not row:
                continue
            for col, w in row.items():
                _add_into(out, idx[:total - r] + unflatten(col, n, r), v * w)
        coeff = out
    return word, coeff


# -- the differential ------------------------------------------------------


def build_q(alg: OmegaAlgebra) -> OmegaElement:
    """The ghost differential c^i chi_i - (1/2) c c phi C b."""
    n = alg.n
    linear = {(i, i): RF_ONE for i in range(n)}
    cubic = {}
    half = Fraction(-1, 2)
    for (m, nn, y, x), pv in alg.twist.phi.items():
        for (k, ci, cj), cv in alg.data.c.items():
            if (ci, cj) == (m, nn):
                _add_into(cubic, (x, y, k), pv * cv * half)
    q = alg.element({("c", "x"): linear, ("c", "c", "b"): cubic})
    return q.canonicalized()


def verify_nilpotent(alg: OmegaAlgebra):
    """Square the differential in canonical form; returns (bool, residual)."""
    q = build_q(alg)
    sq = q * q
    return sq.is_zero(), sq
