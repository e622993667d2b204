"""Tensor layer: braid data, axiom suites, antisymmetrizers, twists."""

import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest

from conftest import QLA_FILES, load_color_borel, load_qla, qla_mutations
from wbrst.cli import main
from wbrst.linalg import solve, solve_columns
from wbrst.omega import OmegaAlgebra, OmegaError, verify_nilpotent
from wbrst.parsing import ParseError, parse_qla_file
from wbrst.scalars import RF_ONE, RF_ZERO
from wbrst.tensors import (Mat, QlaData, Tensor, antisymmetrizer, braid_mat,
                           c_mat, check_proof_identities, check_qla_axioms,
                           check_twist_axioms, embed, flatten,
                           lie_super_twist, super_permutation,
                           twist_from_phi, unflatten)


def test_super_permutation_signs():
    # all even: the plain flip
    s = super_permutation((0, 0))
    assert s.get((1, 0, 0, 1)) == RF_ONE
    assert s.get((0, 1, 0, 1)) == RF_ZERO
    # a single odd generator: a 1x1 sign
    s1 = super_permutation((1,))
    assert s1.get((0, 0, 0, 0)) == -RF_ONE
    # mixed: only the odd-odd block picks up the sign
    sm = super_permutation((0, 1))
    assert sm.get((1, 1, 1, 1)) == -RF_ONE
    assert sm.get((1, 0, 0, 1)) == RF_ONE


def test_lie_super_twist_conjugation_identity():
    for parities in ((0, 0), (1,), (0, 1), (1, 1), (0, 1, 1)):
        phi, st = lie_super_twist(parities)
        sigma = super_permutation(parities)
        m = braid_mat(st)
        assert twist_from_phi(phi).conjugate(braid_mat(sigma)) == m
        n = len(parities)
        assert (m @ m - Mat.identity(n * n)).is_zero()


def test_sigma_tilde_trivial_cases():
    # phi = sigma, and phi the identity: sigma_tilde = sigma
    s = braid_mat(super_permutation((0, 0, 0)))
    ident = Tensor(4, 3, {(i, j, i, j): 1
                          for i, j in itertools.product(range(3), repeat=2)})
    for phi in (super_permutation((0, 0, 0)), ident):
        assert _same(twist_from_phi(phi).conjugate(s), s)


@pytest.mark.parametrize("name", QLA_FILES)
def test_bundled_datasets_pass_all_suites(name):
    d, tw = load_qla(name)
    assert check_qla_axioms(d).all_pass
    assert check_twist_axioms(d.sigma, tw, d.c).all_pass
    assert check_proof_identities(d.sigma, d.c, tw).all_pass


def test_qla_axioms_report_witness():
    d, _ = load_qla("so3.qla")
    rep = check_qla_axioms(d)
    assert rep.passed("t_exists")
    # the witness really solves C = (1 - sigma) t
    t = rep.extras.get("t_witness")
    assert t is not None
    for k in range(d.n):
        for i in range(d.n):
            for j in range(d.n):
                lhs = t.get((k, i, j)) - sum(
                    (d.sigma.get((a, b, i, j)) * t.get((k, a, b))
                     for a in range(d.n) for b in range(d.n)), RF_ZERO)
                assert lhs == d.c.get((k, i, j)), (k, i, j)


@pytest.mark.parametrize("name", QLA_FILES)
def test_witness_equals_one_solve_per_upper_index(name):
    # one reduction of [1 - sigma | C^1 ... C^n] gives the t^i that a
    # separate solve of (1 - sigma) t^i = C^i gives
    d, _ = load_qla(name)
    pairs = list(itertools.product(range(d.n), repeat=2))
    matrix = [[(RF_ONE if lm == jk else RF_ZERO) - d.sigma.get(lm + jk)
               for lm in pairs] for jk in pairs]
    t = check_qla_axioms(d).extras["t_witness"]
    for i in range(d.n):
        x = solve(matrix, [d.c.get((i,) + jk) for jk in pairs],
                  RF_ZERO, RF_ONE)
        assert x == [t.get((i,) + lm) for lm in pairs]


def test_solve_columns_flags_each_inconsistent_column():
    zero, one = Fraction(0), Fraction(1)
    m = [[one, one], [2 * one, 2 * one]]
    assert solve_columns(m, [[1, 2], [1, 3], [0, 0]], zero, one) == [
        [1, 0], None, [0, 0]]
    assert solve_columns([], [[], [0]], zero, one) == [[], []]


def test_antisymmetrizer_permutation():
    sigma = super_permutation((0, 0))
    a2 = antisymmetrizer(sigma, 2)
    assert (a2 @ a2 - a2).is_zero()
    # no rank-3 antisymmetric tensors in two dimensions
    a3 = antisymmetrizer(sigma, 3)
    assert a3.is_zero()
    # in three dimensions the rank-3 projector has trace 1
    s3 = super_permutation((0, 0, 0))
    a = antisymmetrizer(s3, 3)
    assert (a @ a - a).is_zero()
    trace = RF_ZERO
    for i in range(27):
        trace = trace + a.get(i, i)
    assert trace == RF_ONE


def test_antisymmetrizer_idempotent_on_bundled(omega_algebras):
    for alg in omega_algebras.values():
        for k, a in alg.antisym.items():
            assert (a @ a - a).is_zero(), k


def _mutation_caught(d2, tw) -> bool:
    """Escalating battery: axiom suite, twist suite, proof identities,
    and finally the squared ghost differential."""
    if not check_qla_axioms(d2).all_pass:
        return True
    if not check_twist_axioms(d2.sigma, tw, d2.c).all_pass:
        return True
    if not check_proof_identities(d2.sigma, d2.c, tw).all_pass:
        return True
    try:
        ok, _ = verify_nilpotent(OmegaAlgebra(d2, tw))
    except OmegaError:
        return True
    return not ok


VERDICTS = pathlib.Path(__file__).resolve().parent / "golden" / "qla_axiom_verdicts.json"


def qla_axiom_verdicts() -> dict:
    """Pass/fail of every named check of ``check_qla_axioms`` on each
    bundled dataset and on each of its single-entry +1 mutations."""
    table = {}
    for name in QLA_FILES:
        d, _ = load_qla(name)
        variants = [("bundled", d)] + [
            (f"{kind} {' '.join(map(str, idx))} += 1", d2)
            for kind, idx, d2 in qla_mutations(d)]
        for label, d2 in variants:
            rep = check_qla_axioms(d2)
            table[f"{name} {label}"] = {check: rep.passed(check)
                                        for check in sorted(rep.residuals)}
    return table


def test_qla_axiom_verdicts_match_the_recorded_table():
    # recorded before the axiom checks became Mat identities; to record
    # again, run ``PYTHONPATH=src python tests/test_tensors.py``
    assert qla_axiom_verdicts() == json.loads(VERDICTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", QLA_FILES)
def test_every_single_entry_mutation_is_caught(name):
    d, tw = load_qla(name)
    missed = [(kind, idx) for kind, idx, d2 in qla_mutations(d)
              if not _mutation_caught(d2, tw)]
    assert missed == []


def test_so3_flipped_structure_constant_breaks_jacobi():
    d, _ = load_qla("so3.qla")
    ent = {k: v for k, v in d.c.items()}
    ent[(2, 0, 1)] = -RF_ONE  # C^3_{12}: +1 -> -1, nothing else
    d2 = QlaData(d.n, d.parities, d.sigma, Tensor(3, d.n, ent))
    rep = check_qla_axioms(d2)
    assert not rep.passed("jacobi")


def test_so3_mutated_c_is_caught_by_axiom_suite():
    d, _ = load_qla("so3.qla")
    ent = {k: v for k, v in d.c.items()}
    ent[(2, 0, 1)] = ent[(2, 0, 1)] + RF_ONE
    d2 = QlaData(d.n, d.parities, d.sigma, Tensor(3, d.n, ent))
    rep = check_qla_axioms(d2)
    assert not rep.all_pass
    assert not rep.passed("c_antisymmetry") or not rep.passed("jacobi")


def test_twist_round_trip_inverse():
    phi, _ = lie_super_twist((0, 1))
    tw = twist_from_phi(phi)
    assert (tw.phi_mat - braid_mat(phi)).is_zero()
    m = braid_mat(tw.phi) @ tw.phi_inverse_mat
    assert (m - Mat.identity(4)).is_zero()
    assert (tw.phi_inverse_mat @ braid_mat(tw.phi) - Mat.identity(4)).is_zero()


# -- reference implementations: the builders that the one ``embed`` replaces
# (a braid-only embed, cmat and _promote) and the dense Gaussian inverse
# that the linalg inverse of ``twist_from_phi`` replaces


def _reference_embed(m2, n, total, pos):
    left = total - pos - 2
    out = Mat(n ** total, n ** total)
    spect_a = list(itertools.product(range(n), repeat=pos))
    spect_b = list(itertools.product(range(n), repeat=left))
    for r, row in m2.rows.items():
        i1, i2 = unflatten(r, n, 2)
        for c, v in row.items():
            k1, k2 = unflatten(c, n, 2)
            for a in spect_a:
                for b in spect_b:
                    out.set(flatten(a + (i1, i2) + b, n),
                            flatten(a + (k1, k2) + b, n), v)
    return out


def _reference_cmat(c, total, pos):
    n = c.n
    out = Mat(n ** total, n ** (total - 1))
    spect_a = list(itertools.product(range(n), repeat=pos))
    spect_b = list(itertools.product(range(n), repeat=total - pos - 2))
    for (k, i, j), v in c.items():
        for a in spect_a:
            for b in spect_b:
                out.set(flatten(a + (i, j) + b, n), flatten(a + (k,) + b, n), v)
    return out


def _reference_promote(m, n, k, total):
    if k == total:
        return m
    rest = n ** (total - k)
    out = Mat(n ** total, n ** total)
    for r, row in m.rows.items():
        for c, v in row.items():
            for t in range(rest):
                out.set(r * rest + t, c * rest + t, v)
    return out


def _reference_inverse(m):
    n = m.nrows
    a = [[m.get(r, c) for c in range(n)] for r in range(n)]
    inv = [[RF_ONE if r == c else RF_ZERO for c in range(n)] for r in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    out = Mat(n, n)
    for r in range(n):
        for c in range(n):
            out.set(r, c, inv[r][c])
    return out


def _random_tensor(rng, rank, n, density=0.5):
    return Tensor(rank, n, {
        idx: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        for idx in itertools.product(range(n), repeat=rank)
        if rng.random() < density})


def _same(a, b):
    return (a.nrows, a.ncols, a.rows) == (b.nrows, b.ncols, b.rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_embed_matches_the_reference_builders(n):
    rng = random.Random(n)
    s = braid_mat(_random_tensor(rng, 4, n))
    c = _random_tensor(rng, 3, n)
    for total in (2, 3, 4):
        for pos in range(total - 1):
            assert _same(embed(s, n, total, pos),
                         _reference_embed(s, n, total, pos)), (total, pos)
            assert _same(embed(c_mat(c), n, total, pos),
                         _reference_cmat(c, total, pos)), (total, pos)
        for k in range(1, total + 1):
            m = Mat(n ** k, n ** k)
            for r in range(n ** k):
                for col in range(n ** k):
                    if rng.random() < 0.3:
                        m.set(r, col, rng.randint(-2, 2))
            assert _same(embed(m, n, total, 0),
                         _reference_promote(m, n, k, total)), (total, k)


def _phis():
    rng = random.Random(5)
    yield from (load_qla(name)[1].phi for name in QLA_FILES)
    yield load_color_borel()[1].phi
    for parities in ((1,), (0, 1), (0, 1, 1)):
        yield lie_super_twist(parities)[0]
    for n in (1, 2, 3):
        yield _random_tensor(rng, 4, n, density=0.7)


def test_twist_inverse_matches_the_dense_gaussian_inverse():
    for phi in _phis():
        try:
            want = _reference_inverse(braid_mat(phi))
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                twist_from_phi(phi)
            continue
        assert _same(twist_from_phi(phi).phi_inverse_mat, want), phi


def test_singular_phi_is_bad_input(tmp_path, capsys):
    # phi^{12}_{12} = phi^{21}_{12}: two equal rows
    f = tmp_path / "singular.qla"
    f.write_text("dim 2\nsigma 1 2 2 1 = 1\nsigma 2 1 1 2 = 1\n"
                 "sigma 1 1 1 1 = 1\nsigma 2 2 2 2 = 1\n"
                 "phi 1 1 1 1 = 1\nphi 2 2 2 2 = 1\n"
                 "phi 1 2 1 2 = 1\nphi 1 2 2 1 = 1\n"
                 "phi 2 1 1 2 = 1\nphi 2 1 2 1 = 1\n")
    with pytest.raises(ParseError, match="phi is singular"):
        parse_qla_file(f.read_text())
    for cmd in ("check", "brst"):
        assert main(["qla", cmd, str(f)]) == 2
        assert capsys.readouterr().err == "error: phi is singular at line 11\n"


if __name__ == "__main__":
    rows = [f" {json.dumps(k)}: {json.dumps(v)}"
            for k, v in qla_axiom_verdicts().items()]
    VERDICTS.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
