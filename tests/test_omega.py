"""Ghost-extended constraint algebra: canonical forms, products, and the
differential, with an independent matrix-representation oracle."""

import dataclasses
import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest

from conftest import QLA_FILES, load_qla, qla_mutations, shifted
from wbrst.omega import OmegaAlgebra, OmegaError, build_q, verify_nilpotent
from wbrst.scalars import RF_ONE, RationalFunction, _add_into
from wbrst.tensors import (Mat, QlaData, flatten, lie_super_twist,
                           super_permutation, unflatten)


EPS = {t: 0 for t in itertools.product(range(3), repeat=3)}
for (i, j, k) in itertools.permutations(range(3)):
    sign = 1
    seq = [i, j, k]
    for a in range(2):
        for b in range(2 - a):
            if seq[b] > seq[b + 1]:
                seq[b], seq[b + 1] = seq[b + 1], seq[b]
                sign = -sign
    EPS[(i, j, k)] = sign


def test_chi_pair_reduction_so3(omega_algebras):
    # chi_1 chi_2 = (symmetric part) + (1/2) chi_3 by the defining relation
    alg = omega_algebras["so3.qla"]
    x = alg.word(("x", "x"), {(0, 1): 1})
    half = RationalFunction.const(Fraction(1, 2))
    sym = alg.word(("x", "x"), {(0, 1): Fraction(1, 2),
                                (1, 0): Fraction(1, 2)})
    lin = alg.word(("x",), {(2,): Fraction(1, 2)})
    assert x == sym + lin


def test_bc_contraction(omega_algebras):
    alg = omega_algebras["so3.qla"]
    for i in range(3):
        for j in range(3):
            prod = alg.word(("b",), {(i,): 1}) * alg.word(("c",), {(j,): 1})
            want = alg.scalar(1 if i == j else 0) + alg.word(
                ("c", "b"), {(j, i): -1})
            assert prod == want, (i, j)


def _within_caps(word):
    return (word.count("c") <= 4 and word.count("x") <= 2
            and word.count("b") <= 2)


def test_canonicalize_idempotent_on_random_elements(omega_algebras):
    rng = random.Random(7)
    for name, alg in omega_algebras.items():
        n = alg.n
        for _ in range(8):
            words = []
            while len(words) < 2:
                w = tuple(rng.choice("cxb") for _ in range(rng.randint(0, 3)))
                if _within_caps(w):
                    words.append(w)
            terms = {}
            for w in words:
                cf = {tuple(rng.randrange(n) for _ in w):
                      RationalFunction.const(rng.randint(-3, 3))}
                terms[w] = cf
            x = alg.element(terms).canonicalized()
            assert x == x.canonicalized(), name


def test_canonicalize_idempotent_high_ghost_blocks(omega_algebras):
    # four-c blocks exercise the rank-4 projector normalization
    for name, alg in omega_algebras.items():
        n = alg.n
        cf = {idx: RF_ONE for idx in itertools.product(range(n), repeat=4)}
        x = alg.element({("c",) * 4: cf}).canonicalized()
        assert x == x.canonicalized(), name


def test_multiply_associative_randomized(omega_algebras):
    rng = random.Random(11)
    for name, alg in omega_algebras.items():
        n = alg.n
        def rand_word(budget):
            while True:
                w = tuple(rng.choice("cxb") for _ in range(rng.randint(1, 2)))
                total = tuple(budget[i] + w.count(l)
                              for i, l in enumerate("cxb"))
                if total[0] <= 4 and total[1] <= 2 and total[2] <= 2:
                    return w, total
        for _ in range(6):
            budget = (0, 0, 0)
            elems = []
            for _ in range(3):
                w, budget = rand_word(budget)
                elems.append(alg.word(
                    w, {tuple(rng.randrange(n) for _ in w):
                        rng.randint(-2, 2)}))
            x, y, z = elems
            assert (x * y) * z == x * (y * z), name


def test_ghost_number(omega_algebras):
    alg = omega_algebras["so3.qla"]
    q = build_q(alg)
    assert q.ghost_number() == 1
    assert alg.word(("b",), {(0,): 1}).ghost_number() == -1
    assert alg.word(("c", "x", "b"), {(0, 1, 2): 1}).ghost_number() == 0
    mixed = alg.word(("c",), {(0,): 1}) + alg.word(("b",), {(0,): 1})
    assert mixed.ghost_number() is None


def test_ghost_number_additive(omega_algebras):
    alg = omega_algebras["super_ef.qla"]
    x = alg.word(("c",), {(1,): 1})
    y = alg.word(("c", "b"), {(0, 0): 1})
    xy = x * y
    if not xy.is_zero():
        assert xy.ghost_number() == x.ghost_number() + y.ghost_number()


def test_build_q_so3_ghost_term(omega_algebras):
    # Q = c^i chi_i - (1/2) eps^k_{ij} c^i c^j b_k for the permutation twist
    alg = omega_algebras["so3.qla"]
    linear = {(i, i): 1 for i in range(3)}
    cubic = {(i, j, k): Fraction(-EPS[(i, j, k)], 2)
             for (i, j, k) in itertools.permutations(range(3))}
    expected = (alg.word(("c", "x"), linear)
                + alg.word(("c", "c", "b"), cubic))
    assert build_q(alg) == expected


@pytest.mark.parametrize("name", QLA_FILES)
def test_differential_squares_to_zero(name, omega_algebras):
    ok, residual = verify_nilpotent(omega_algebras[name])
    assert ok, residual


def test_mutated_so3_gives_residual():
    # shifting C^1_{12} breaks the Jacobi-type cancellation and leaves a
    # three-ghost residual in the square of the differential
    d = load_qla("so3.qla")
    d2 = dataclasses.replace(d, c=shifted(d.c, flatten((0, 1), 3), 0))
    ok, residual = verify_nilpotent(OmegaAlgebra(d2))
    assert not ok
    assert ("c", "c", "c", "b") in residual.terms


# -- reference implementations: the hand-built exchange tables and the scans
# over tensor entries that the tables of OmegaAlgebra replace


def _upper_lower(m, n, upper):
    """The entries of a row-convention matrix on pairs, with ``upper``
    upper indices, keyed (upper..., lower...): (k, l, i, j) for
    sigma^{kl}_{ij} at [(i, j), (k, l)], and (k, i, j) for C^k_{ij} at
    [(i, j), k]."""
    out = {}
    for r, row in m.rows.items():
        lower = divmod(r, n)
        for col, v in row.items():
            out[(divmod(col, n) if upper == 2 else (col,)) + lower] = v
    return out


def _c_mat(entries, n):
    """The matrix [(i, j), k] of structure constants C^k_{ij} keyed
    (k, i, j)."""
    m = Mat(n * n, n)
    for (k, i, j), v in entries.items():
        m.set(i * n + j, k, v)
    return m


def _reference_tables(alg):
    """bc_swap, bx_swap, xc_swap, the sigma and C scans of the generator
    reduction and the cubic term of Q, each as {(known, output): value}."""
    n = alg.n
    phi = _upper_lower(alg.data.phi, n, 2).items()
    sigma = _upper_lower(alg.data.sigma, n, 2).items()
    c = _upper_lower(alg.data.c, n, 1).items()
    bc, bx, xc, sig, cst, cubic = {}, {}, {}, {}, {}, {}
    for r, row in alg.st_mat.rows.items():
        j1, i2 = unflatten(r, n, 2)
        for cc, v in row.items():
            n1, k2 = unflatten(cc, n, 2)
            bc[((i2, k2), (j1, n1))] = -v
    for (k, l, m, nn), v in phi:
        bx[((m, nn), (k, l))] = v
        xc[((nn, l), (m, k))] = v
    for i, j in itertools.product(range(n), repeat=2):
        for (k1, k2, si, sj), sv in sigma:
            if (si, sj) == (i, j):
                sig[((i, j), (k1, k2))] = sv
        for (k, ci, cj), cv in c:
            if (ci, cj) == (i, j):
                cst[((i, j), (k,))] = cv
    for (m, nn, y, x), pv in phi:
        for (k, ci, cj), cv in c:
            if (ci, cj) == (m, nn):
                _add_into(cubic, (x, y, k), pv * cv * Fraction(-1, 2))
    return bc, bx, xc, sig, cst, cubic


def _flat(table):
    return {(known, out): v for known, entries in table.items()
            for out, v in entries}


def _super_algebras():
    for parities in ((1,), (0, 1), (1, 1), (0, 1, 1)):
        phi, _ = lie_super_twist(parities)
        n = len(parities)
        # [x_1, x_j] = x_j for every odd j: a Lie superalgebra
        c = _c_mat({e: v for j in range(1, n) if parities[j]
                    for e, v in (((j, 0, j), 1), ((j, j, 0), -1))}, n)
        yield parities, OmegaAlgebra(
            QlaData(n, parities, super_permutation(parities), c, phi))


def test_tables_match_the_hand_built_reference(color_borel_omega):
    for label, alg in [("color_borel_q2", color_borel_omega),
                       *_super_algebras()]:
        bc, bx, xc, sig, cst, cubic = _reference_tables(alg)
        assert _flat(alg.exchange[("b", "c")]) == bc, label
        assert _flat(alg.exchange[("b", "x")]) == bx, label
        assert _flat(alg.exchange[("x", "c")]) == xc, label
        assert _flat(alg.sigma_rows) == sig, label
        assert _flat(alg.c_rows) == cst, label
        want = alg.element({("c", "x"): {(i, i): RF_ONE for i in range(alg.n)},
                            ("c", "c", "b"): cubic}).canonicalized()
        assert build_q(alg) == want, label


def test_exchange_rewrites_each_pair_by_its_relation(color_borel_omega):
    # b c, b x and x c on single index pairs, against the relations read
    # straight off sigma_tilde and phi
    alg = color_borel_omega
    n, st, phi = alg.n, alg.st_mat, alg.data.phi
    for i, k in itertools.product(range(n), repeat=2):
        got = alg.word(("b", "c"), {(i, k): 1})
        want = alg.scalar(1 if i == k else 0) + alg.word(("c", "b"), {
            (j, m): -st.get(flatten((j, i), n), flatten((m, k), n))
            for j, m in itertools.product(range(n), repeat=2)})
        assert got == want, (i, k)
        got = alg.word(("b", "x"), {(i, k): 1})
        want = alg.word(("x", "b"), {
            (j, m): phi.get(flatten((i, k), n), flatten((j, m), n))
            for j, m in itertools.product(range(n), repeat=2)})
        assert got == want, (i, k)
        got = alg.word(("x", "c"), {(i, k): 1})
        want = alg.word(("c", "x"), {
            (m, j): phi.get(flatten((m, i), n), flatten((j, k), n))
            for j, m in itertools.product(range(n), repeat=2)})
        assert got == want, (i, k)


BRST_VERDICTS = (pathlib.Path(__file__).resolve().parent / "golden"
                 / "qla_brst_verdicts.json")


def qla_brst_verdicts() -> dict:
    """The Q^2 outcome on each bundled dataset and on each of its
    single-entry +1 mutations (with the bundled twist): "nilpotent",
    "obstructed" with the residual sectors, or the OmegaError message."""
    table = {}
    for name in QLA_FILES:
        d = load_qla(name)
        variants = [("bundled", d)] + [
            (f"{kind} {' '.join(map(str, idx))} += 1", d2)
            for kind, idx, d2 in qla_mutations(d)]
        for label, d2 in variants:
            try:
                ok, residual = verify_nilpotent(OmegaAlgebra(d2))
            except OmegaError as err:
                verdict = f"error: {err}"
            else:
                verdict = "nilpotent" if ok else "obstructed: " + " ".join(
                    sorted("".join(w) for w in residual.terms))
            table[f"{name} {label}"] = verdict
    return table


def test_qla_brst_verdicts_match_the_recorded_table():
    # to record again, run ``PYTHONPATH=src python tests/test_omega.py``
    assert qla_brst_verdicts() == json.loads(
        BRST_VERDICTS.read_text(encoding="utf-8"))


# -- independent matrix oracle for so(3) -----------------------------------


def _mat(n):
    return [[Fraction(0)] * n for _ in range(n)]


def _mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * p for _ in range(n)]
    for i in range(n):
        for k in range(m):
            if a[i][k]:
                for j in range(p):
                    if b[k][j]:
                        out[i][j] += a[i][k] * b[k][j]
    return out


def _kron(a, b):
    na, nb = len(a), len(b)
    out = [[Fraction(0)] * (na * nb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(na):
            if a[i][j]:
                for k in range(nb):
                    for l in range(nb):
                        out[i * nb + k][j * nb + l] = a[i][j] * b[k][l]
    return out


def test_so3_differential_matches_matrix_representation():
    """Q in the adjoint representation with explicit fermionic ghost
    matrices on the 8-dimensional Clifford module squares to zero, and its
    construction mirrors build_q term by term."""
    # adjoint action: (X_k)_{m j} = eps_{k j m}
    X = [_mat(3) for _ in range(3)]
    for k in range(3):
        for j in range(3):
            for m in range(3):
                X[k][m][j] = Fraction(EPS[(k, j, m)])
    # ghost creation/annihilation on subsets of {0,1,2}
    subsets = [frozenset(s) for r in range(4)
               for s in itertools.combinations(range(3), r)]
    index = {s: i for i, s in enumerate(subsets)}
    C = [_mat(8) for _ in range(3)]
    B = [_mat(8) for _ in range(3)]
    for s in subsets:
        for i in range(3):
            if i not in s:
                sign = (-1) ** len([x for x in s if x < i])
                C[i][index[s | {i}]][index[s]] = Fraction(sign)
                B[i][index[s]][index[s | {i}]] = Fraction(sign)
    ident3 = [[Fraction(i == j) for j in range(3)] for i in range(3)]
    ident8 = [[Fraction(i == j) for j in range(8)] for i in range(8)]
    # anticommutators {c^i, b_j} = delta
    for i in range(3):
        for j in range(3):
            ac = [[a + b for a, b in zip(r1, r2)]
                  for r1, r2 in zip(_mul(C[i], B[j]), _mul(B[j], C[i]))]
            want = ident8 if i == j else _mat(8)
            assert ac == want
    q = [[Fraction(0)] * 24 for _ in range(24)]
    for i in range(3):
        term = _kron(C[i], X[i])
        q = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(q, term)]
    for (i, j, k), e in EPS.items():
        if e:
            gh = _mul(C[i], _mul(C[j], B[k]))
            term = _kron(gh, ident3)
            q = [[a - Fraction(e, 2) * b for a, b in zip(r1, r2)]
                 for r1, r2 in zip(q, term)]
    assert _mul(q, q) == [[Fraction(0)] * 24 for _ in range(24)]


if __name__ == "__main__":
    rows = [f" {json.dumps(k)}: {json.dumps(v)}"
            for k, v in qla_brst_verdicts().items()]
    BRST_VERDICTS.write_text("{\n" + ",\n".join(rows) + "\n}\n",
                             encoding="utf-8")
