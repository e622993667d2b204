"""Shared fixtures: bundled datasets and small helper algebras."""

import itertools
import pathlib

import pytest

from wbrst.omega import OmegaAlgebra
from wbrst.parsing import parse_algebra_file, parse_qla_file
from wbrst.scalars import RF_ONE, RF_ZERO
from wbrst.tensors import QlaData, Tensor

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "wbrst" / "data"
TEST_DATA = pathlib.Path(__file__).resolve().parent / "data"


def read_data(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def load_qla(name: str):
    return parse_qla_file(read_data(name))


def load_color_borel():
    """The color Lie algebra of ``tests/data/color_borel_q2.qla``: the only
    shipped braid that is not a symmetric matrix, with C != 0."""
    return parse_qla_file(
        (TEST_DATA / "color_borel_q2.qla").read_text(encoding="utf-8"))


def load_alg(name: str):
    return parse_algebra_file(read_data(name))


QLA_FILES = ("so3.qla", "super_ef.qla", "lyubashenko.qla")
ALG_FILES = ("w3.alg", "w3_printed.alg", "w3_ghosts.alg", "w3_ghosts_free.alg",
             "w32.alg", "w32_ghosts.alg", "w32_ghosts_free.alg")


def qla_mutations(d):
    """(kind, index, data) for every single-entry +1 mutation of sigma and
    of C, in index order: n^4 + n^3 datasets."""
    for idx in itertools.product(range(d.n), repeat=4):
        ent = dict(d.sigma.items())
        ent[idx] = ent.get(idx, RF_ZERO) + RF_ONE
        yield ("sigma", idx,
               QlaData(d.n, d.parities, Tensor(4, d.n, ent), d.c))
    for idx in itertools.product(range(d.n), repeat=3):
        ent = dict(d.c.items())
        ent[idx] = ent.get(idx, RF_ZERO) + RF_ONE
        yield ("c", idx,
               QlaData(d.n, d.parities, d.sigma, Tensor(3, d.n, ent)))


@pytest.fixture(scope="session")
def qla_datasets():
    return {name: load_qla(name) for name in QLA_FILES}


@pytest.fixture(scope="session")
def omega_algebras(qla_datasets):
    return {name: OmegaAlgebra(d, tw)
            for name, (d, tw) in qla_datasets.items()}


@pytest.fixture(scope="session")
def color_borel_omega():
    return OmegaAlgebra(*load_color_borel())
