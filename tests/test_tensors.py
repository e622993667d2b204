"""Tensor layer: braid data, axiom suites, antisymmetrizers, twists."""

import dataclasses
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (MUTATED_QLA_FILES, QLA_FILES, TEST_DATA,
                      load_color_borel, load_qla, qla_mutations, shifted)
from wbrst.cli import main
from wbrst.linalg import rref
from wbrst.omega import OmegaAlgebra, OmegaError, verify_nilpotent
from wbrst.parsing import ParseError, parse_qla_file
from wbrst.scalars import RF_ONE, RF_ZERO, rf
from wbrst.tensors import (Mat, QlaData, antisymmetrizer_projectors,
                           check_proof_identities, check_qla_axioms,
                           check_twist_axioms, embed, flatten,
                           lie_super_twist, super_permutation, unflatten)


def _twisted(sigma, phi):
    """A dataset with braid sigma, twist phi and C = 0."""
    n = math.isqrt(sigma.nrows)
    return QlaData(n, (0,) * n, sigma, Mat(n * n, n), phi)


def test_super_permutation_signs():
    # entries at [(i1, i2), (k1, k2)]
    # all even: the plain flip
    s = super_permutation((0, 0))
    assert s.get(flatten((0, 1), 2), flatten((1, 0), 2)) == RF_ONE
    assert s.get(flatten((0, 1), 2), flatten((0, 1), 2)) == RF_ZERO
    # a single odd generator: a 1x1 sign
    s1 = super_permutation((1,))
    assert s1.get(0, 0) == -RF_ONE
    # mixed: only the odd-odd block picks up the sign
    sm = super_permutation((0, 1))
    assert sm.get(flatten((1, 1), 2), flatten((1, 1), 2)) == -RF_ONE
    assert sm.get(flatten((0, 1), 2), flatten((1, 0), 2)) == RF_ONE


def test_lie_super_twist_conjugation_identity():
    for parities in ((0, 0), (1,), (0, 1), (1, 1), (0, 1, 1)):
        phi, st = lie_super_twist(parities)
        assert _twisted(super_permutation(parities), phi).sigma_tilde == st
        n = len(parities)
        assert (st @ st - Mat.identity(n * n)).is_zero()


def test_sigma_tilde_trivial_cases():
    # phi = sigma, and phi the identity: sigma_tilde = sigma
    s = super_permutation((0, 0, 0))
    for phi in (super_permutation((0, 0, 0)), Mat.identity(9)):
        assert _same(_twisted(s, phi).sigma_tilde, s)


@pytest.mark.parametrize("name", QLA_FILES)
def test_bundled_datasets_pass_all_suites(name):
    d = load_qla(name)
    assert check_qla_axioms(d).all_pass
    assert check_twist_axioms(d).all_pass
    assert check_proof_identities(d).all_pass


@pytest.mark.parametrize("name, builds", [("so3.qla", 1),
                                          ("super_ef.qla", 2)])
def test_proof_identities_share_equal_antisymmetrizers(monkeypatch, name,
                                                       builds):
    # so3 has sigma_tilde = sigma, super_ef does not
    import wbrst.tensors
    calls = []
    build = wbrst.tensors.antisymmetrizer_projectors

    def counted(braid, n, kmax):
        calls.append(braid)
        return build(braid, n, kmax)

    monkeypatch.setattr(wbrst.tensors, "antisymmetrizer_projectors", counted)
    rep = check_proof_identities(load_qla(name))
    assert rep.all_pass
    assert len(calls) == builds
    assert (calls[0] == calls[-1]) == (builds == 1)


def test_qla_axioms_report_witness():
    d = load_qla("so3.qla")
    rep = check_qla_axioms(d)
    assert rep.passed("t_exists")
    # the witness t^k_{ab}, at [(a, b), k], really solves C = (1 - sigma) t
    t = rep.extras.get("t_witness")
    assert t is not None
    n = d.n
    for k, i, j in itertools.product(range(n), repeat=3):
        ij = flatten((i, j), n)
        lhs = t.get(ij, k) - sum(
            (d.sigma.get(ij, flatten((a, b), n)) * t.get(flatten((a, b), n), k)
             for a in range(n) for b in range(n)), RF_ZERO)
        assert lhs == d.c.get(ij, k), (k, i, j)


def _solve(matrix, rhs, ncols):
    """The solution of ``matrix @ x = rhs`` with its free variables 0, read
    from the pivot rows of [matrix | rhs]; None when rhs is a pivot."""
    red, pivots = rref([{**row, ncols: rhs[i]} if i in rhs else row
                        for i, row in enumerate(matrix)], ncols + 1)
    if ncols in pivots:
        return None
    return {col: row[ncols] for row, col in zip(red, pivots) if ncols in row}


@pytest.mark.parametrize("name", QLA_FILES)
def test_witness_equals_one_solve_per_upper_index(name):
    # the normal forms of C^1 ... C^n modulo the columns of 1 - sigma give
    # the t^i that a separate solve of (1 - sigma) t^i = C^i, by columns,
    # gives
    d = load_qla(name)
    pairs = range(d.n ** 2)
    matrix = [{lm: v for lm in pairs if (v := (RF_ONE if lm == jk else RF_ZERO)
                                         - d.sigma.get(jk, lm))}
              for jk in pairs]
    t = check_qla_axioms(d).extras["t_witness"]
    for i in range(d.n):
        x = _solve(matrix, {jk: v for jk in pairs if (v := d.c.get(jk, i))},
                   len(pairs))
        assert x == {lm: v for lm in pairs if (v := t.get(lm, i))}


def _antisymmetrizer(parities, k):
    """The rank-k antisymmetrizing projector of the graded permutation."""
    return antisymmetrizer_projectors(super_permutation(parities),
                                      len(parities), k)[k]


def test_antisymmetrizer_permutation():
    a2 = _antisymmetrizer((0, 0), 2)
    assert (a2 @ a2 - a2).is_zero()
    # no rank-3 antisymmetric tensors in two dimensions
    a3 = _antisymmetrizer((0, 0), 3)
    assert a3.is_zero()
    # in three dimensions the rank-3 projector has trace 1
    a = _antisymmetrizer((0, 0, 0), 3)
    assert (a @ a - a).is_zero()
    trace = RF_ZERO
    for i in range(27):
        trace = trace + a.get(i, i)
    assert trace == RF_ONE


def test_antisymmetrizer_idempotent_on_bundled(omega_algebras,
                                               color_borel_omega):
    # the color Borel's involutive braid is not a symmetric matrix
    for alg in (*omega_algebras.values(), color_borel_omega):
        for k, a in alg.antisym.items():
            assert (a @ a - a).is_zero(), k


def _mutation_caught(d2) -> bool:
    """Escalating battery: axiom suite, twist suite, proof identities,
    and finally the squared ghost differential."""
    if not check_qla_axioms(d2).all_pass:
        return True
    if not check_twist_axioms(d2).all_pass:
        return True
    if not check_proof_identities(d2).all_pass:
        return True
    try:
        ok, _ = verify_nilpotent(OmegaAlgebra(d2))
    except OmegaError:
        return True
    return not ok


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
# each suite whose pass/fail table is recorded, and its golden file
VERDICTS = {check_qla_axioms: GOLDEN / "qla_axiom_verdicts.json",
            check_proof_identities: GOLDEN / "qla_proof_verdicts.json"}


def qla_verdicts(check) -> dict:
    """Pass/fail of every named check of the suite ``check`` on each
    dataset of MUTATED_QLA_FILES and on each of its single-entry +1
    mutations."""
    table = {}
    for name in MUTATED_QLA_FILES:
        d = load_qla(name)
        variants = [("bundled", d)] + [
            (f"{kind} {' '.join(map(str, idx))} += 1", d2)
            for kind, idx, d2 in qla_mutations(d)]
        for label, d2 in variants:
            rep = check(d2)
            table[f"{name} {label}"] = {entry: rep.passed(entry)
                                        for entry in sorted(rep.residuals)}
    return table


def test_qla_axiom_verdicts_match_the_recorded_table():
    # recorded before the axiom checks became Mat identities; to record
    # again, run ``PYTHONPATH=src python tests/test_tensors.py``
    assert qla_verdicts(check_qla_axioms) == json.loads(
        VERDICTS[check_qla_axioms].read_text(encoding="utf-8"))


def test_qla_proof_verdicts_match_the_recorded_table():
    # recorded with the antisymmetrizers at the scale prod_{j<k} 1/j!, not
    # as projectors: every proof identity is linear and homogeneous in A_k,
    # so no verdict depends on the scale
    assert qla_verdicts(check_proof_identities) == json.loads(
        VERDICTS[check_proof_identities].read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", MUTATED_QLA_FILES)
def test_every_single_entry_mutation_is_caught(name):
    missed = [(kind, idx) for kind, idx, d2 in qla_mutations(load_qla(name))
              if not _mutation_caught(d2)]
    assert missed == []


def test_so3_flipped_structure_constant_breaks_jacobi():
    d = load_qla("so3.qla")
    # C^3_{12}, at [(1, 2), 3] 1-based: +1 -> -1, nothing else
    d2 = dataclasses.replace(d, c=shifted(d.c, flatten((0, 1), 3), 2, rf(-2)))
    rep = check_qla_axioms(d2)
    assert not rep.passed("jacobi")


def test_so3_mutated_c_is_caught_by_axiom_suite():
    d = load_qla("so3.qla")
    d2 = dataclasses.replace(d, c=shifted(d.c, flatten((0, 1), 3), 2))
    rep = check_qla_axioms(d2)
    assert not rep.all_pass
    assert not rep.passed("c_antisymmetry") or not rep.passed("jacobi")


def test_twist_round_trip_inverse():
    phi, _ = lie_super_twist((0, 1))
    d = _twisted(super_permutation((0, 1)), phi)
    assert (d.phi @ d.phi_inverse - Mat.identity(4)).is_zero()
    assert (d.phi_inverse @ d.phi - Mat.identity(4)).is_zero()


# -- reference implementations: the builders that the one ``embed`` replaces
# (a braid-only embed, cmat and _promote) and the dense Gaussian inverse
# that the linalg inverse of ``QlaData.phi_inverse`` replaces


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


def _reference_cmat(c, n, total, pos):
    out = Mat(n ** total, n ** (total - 1))
    spect_a = list(itertools.product(range(n), repeat=pos))
    spect_b = list(itertools.product(range(n), repeat=total - pos - 2))
    for r, row in c.rows.items():
        i, j = divmod(r, n)
        for k, v in row.items():
            for a in spect_a:
                for b in spect_b:
                    out.set(flatten(a + (i, j) + b, n),
                            flatten(a + (k,) + b, n), v)
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


def _random_mat(rng, nrows, ncols, density=0.5):
    m = Mat(nrows, ncols)
    for r, c in itertools.product(range(nrows), range(ncols)):
        if rng.random() < density:
            m.set(r, c, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return m


def _same(a, b):
    return (a.nrows, a.ncols, a.rows) == (b.nrows, b.ncols, b.rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_embed_matches_the_reference_builders(n):
    rng = random.Random(n)
    s = _random_mat(rng, n * n, n * n)
    c = _random_mat(rng, n * n, n)
    for total in (2, 3, 4):
        for pos in range(total - 1):
            assert _same(embed(s, n, total, pos),
                         _reference_embed(s, n, total, pos)), (total, pos)
            assert _same(embed(c, n, total, pos),
                         _reference_cmat(c, n, total, pos)), (total, pos)
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
    yield from (load_qla(name).phi for name in QLA_FILES)
    yield load_color_borel().phi
    for parities in ((1,), (0, 1), (0, 1, 1)):
        yield lie_super_twist(parities)[0]
    for n in (1, 2, 3):
        yield _random_mat(rng, n * n, n * n, density=0.7)


def test_twist_inverse_matches_the_dense_gaussian_inverse():
    for phi in _phis():
        d = _twisted(Mat(phi.nrows, phi.ncols), phi)
        try:
            want = _reference_inverse(phi)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                d.phi_inverse
            continue
        assert _same(d.phi_inverse, want), phi


def test_color_borel_sigma_is_read_in_row_convention():
    # the only non-symmetric braid: each ``sigma i j k l = v`` line is the
    # entry [(i, j), (k, l)] (1-based), and likewise ``c i j k = v`` the
    # entry [(i, j), k]; sigma_tilde is phi sigma phi^{-1}
    text = (TEST_DATA / "color_borel_q2.qla").read_text(encoding="utf-8")
    d = parse_qla_file(text)
    n = d.n
    lines = [line.split("#")[0].split() for line in text.splitlines()]
    read = {"sigma": 0, "c": 0}
    for parts in lines:
        if parts and parts[0] in read and "=" in parts:
            idx = [int(x) - 1 for x in parts[1:parts.index("=")]]
            want = rf(Fraction(parts[-1]))
            row, col = idx[0] * n + idx[1], idx[2:]
            col = col[0] * n + col[1] if parts[0] == "sigma" else col[0]
            assert getattr(d, parts[0]).get(row, col) == want, parts
            read[parts[0]] += 1
    assert read == {"sigma": 25, "c": 14}
    assert any(d.sigma.get(r, c) != d.sigma.get(c, r)
               for r in range(n * n) for c in range(n * n))
    assert _same(d.sigma_tilde, d.phi @ d.sigma @ _reference_inverse(d.phi))


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
    for check, path in VERDICTS.items():
        rows = [f" {json.dumps(k)}: {json.dumps(v)}"
                for k, v in qla_verdicts(check).items()]
        path.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")


# -- sparse matrix sums -------------------------------------------------------


def _reference_sub(a, b):
    """a - b as the negated copy of b added to a."""
    return a + b.scaled(-1)


_cells = st.tuples(st.integers(0, 3), st.integers(0, 3))
_entries = st.dictionaries(
    _cells, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
    max_size=10)


def _mat(entries):
    m = Mat(4, 4)
    for (r, c), v in entries.items():
        m.set(r, c, v)
    return m


@settings(max_examples=150, deadline=None)
@given(_entries, _entries, st.sets(_cells))
def test_subtraction_matches_adding_the_negated_copy(left, right, shared):
    # the cells of ``shared`` hold the same value in both, so their
    # difference cancels, whole rows of it included
    right = {**right, **{k: left[k] for k in shared if k in left}}
    a, b = _mat(left), _mat(right)
    got = a - b
    assert _same(got, _reference_sub(a, b))
    assert all(got.rows.values()) and all(v for row in got.rows.values()
                                          for v in row.values())
    left, right = ({k: v for k, v in d.items() if v} for d in (left, right))
    assert (a == b) == _reference_sub(a, b).is_zero() == (left == right)
    assert _same(a - a, Mat(4, 4)) and a == a


def test_matrices_of_different_shapes_differ():
    assert Mat(2, 2) != Mat(4, 4) and Mat(2, 3) != Mat(3, 2)
    a, b = Mat(2, 2), Mat(3, 5)
    a.set(1, 1, 7)
    b.set(1, 1, 7)
    assert a != b
    assert a == Mat(2, 2, {1: {1: RF_ONE * 7}})


def test_setting_zero_drops_an_emptied_row():
    m = Mat(2, 2)
    m.set(0, 0, 1)
    m.set(0, 1, 2)
    m.set(0, 0, 0)
    assert m.rows == {0: {1: RF_ONE + RF_ONE}}
    m.set(0, 1, 0)
    assert m.rows == {} and m.is_zero() and m == Mat(2, 2)
    m.set(1, 1, 0)
    assert m.rows == {}
