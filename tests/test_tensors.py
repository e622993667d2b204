"""Tensor layer: braid data, axiom suites, antisymmetrizers, twists."""

import itertools
import json
import pathlib

import pytest

from conftest import QLA_FILES, load_qla
from wbrst.omega import OmegaAlgebra, OmegaError, verify_nilpotent
from wbrst.scalars import RF_ONE, RF_ZERO, RationalFunction
from wbrst.tensors import (Mat, QlaData, Tensor, antisymmetrizer, braid_mat,
                           check_proof_identities, check_qla_axioms,
                           check_twist_axioms, lie_super_twist, sigma_tilde,
                           super_permutation, twist_from_phi)


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
        assert sigma_tilde(sigma, twist_from_phi(phi)).items() == st.items()
        m = braid_mat(st)
        n = len(parities)
        assert (m @ m - Mat.identity(n * n)).is_zero()


def test_sigma_tilde_trivial_cases():
    sigma = super_permutation((0, 0, 0))
    ident_phi = super_permutation((0, 0, 0))
    assert sigma_tilde(sigma, twist_from_phi(ident_phi)).items() == sigma.items()
    assert sigma_tilde(sigma, twist_from_phi(sigma)).items() == sigma.items()


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


def _mutations(d):
    one = RationalFunction.const(1)
    for idx in itertools.product(range(d.n), repeat=4):
        ent = {k: v for k, v in d.sigma.items()}
        ent[idx] = ent.get(idx, RF_ZERO) + one
        yield ("sigma", idx,
               QlaData(d.n, d.parities, Tensor(4, d.n, ent), d.c))
    for idx in itertools.product(range(d.n), repeat=3):
        ent = {k: v for k, v in d.c.items()}
        ent[idx] = ent.get(idx, RF_ZERO) + one
        yield ("c", idx,
               QlaData(d.n, d.parities, d.sigma, Tensor(3, d.n, ent)))


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
            for kind, idx, d2 in _mutations(d)]
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
    missed = [(kind, idx) for kind, idx, d2 in _mutations(d)
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


if __name__ == "__main__":
    rows = [f" {json.dumps(k)}: {json.dumps(v)}"
            for k, v in qla_axiom_verdicts().items()]
    VERDICTS.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
