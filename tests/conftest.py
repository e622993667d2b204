"""Shared fixtures: bundled datasets and small helper algebras."""

import dataclasses
import itertools
import os
import pathlib
import random

import pytest

from wbrst.fields import FieldExpr
from wbrst.omega import OmegaAlgebra
from wbrst.parsing import parse_algebra_file, parse_qla_file
from wbrst.scalars import RF_ONE
from wbrst.tensors import Mat, flatten

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "wbrst" / "data"
TEST_DATA = pathlib.Path(__file__).resolve().parent / "data"


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail a test that leaves a child process, running or unreaped;
    subprocess.run waits for its own."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test: waitpid gave "
                f"{(pid, status)}")


def read_data(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def load_qla(name: str):
    """A dataset by file name: a bundled one, else one of ``tests/data``."""
    path = DATA / name if (DATA / name).exists() else TEST_DATA / name
    return parse_qla_file(path.read_text(encoding="utf-8"))


def load_color_borel():
    """The color Lie algebra of ``tests/data/color_borel_q2.qla``: a braid
    that is not a symmetric matrix, with C != 0."""
    return load_qla("color_borel_q2.qla")


def load_alg(name: str):
    return parse_algebra_file(read_data(name))


QLA_FILES = ("so3.qla", "super_ef.qla", "lyubashenko.qla")
# the datasets whose single-entry +1 mutations the recorded verdict tables
# cover: the bundled ones and the abelian color algebra of tests/data (the
# color Borel's 750 mutations would cost too much)
MUTATED_QLA_FILES = QLA_FILES + ("color_abelian_q2.qla",)
ALG_FILES = ("w3.alg", "w3_printed.alg", "w3_ghosts.alg", "w3_ghosts_free.alg",
             "w32.alg", "w32_ghosts.alg", "w32_ghosts_free.alg")


def random_normal_products(algebra, seed, count, factors=3, orders=2):
    """``count`` seeded random pairs of normal products of a table's
    generators: each side nests one to ``factors`` generators to the right,
    each with a derivative order from 0 to ``orders``.  A product that
    vanishes is drawn again."""
    rng = random.Random(seed)
    ctx = algebra.context()

    def draw():
        while True:
            x = None
            for _ in range(rng.randint(1, factors)):
                g = ctx.derivative(FieldExpr.generator(
                    algebra, rng.choice(algebra.names)), rng.randint(0, orders))
                x = g if x is None else ctx.normal_product(g, x)
            if not x.is_zero:
                return x

    return [(draw(), draw()) for _ in range(count)]


def shifted(m, row, col, by=RF_ONE):
    """A copy of the matrix m with ``by`` added at [row, col]."""
    out = Mat(m.nrows, m.ncols, {r: dict(es) for r, es in m.rows.items()})
    out.set(row, col, m.get(row, col) + by)
    return out


def qla_mutations(d):
    """(kind, index, data) for every single-entry +1 mutation of sigma and
    of C, with the dataset's own phi, in index order: n^4 + n^3 datasets.
    The index is 0-based, upper indices first: (k, l, i, j) for
    sigma^{kl}_{ij} and (k, i, j) for C^k_{ij}, as the recorded verdict
    tables name them."""
    n = d.n
    for k, l, i, j in itertools.product(range(n), repeat=4):
        yield ("sigma", (k, l, i, j), dataclasses.replace(d, sigma=shifted(
            d.sigma, flatten((i, j), n), flatten((k, l), n))))
    for k, i, j in itertools.product(range(n), repeat=3):
        yield ("c", (k, i, j), dataclasses.replace(
            d, c=shifted(d.c, flatten((i, j), n), k)))


@pytest.fixture(scope="session")
def qla_datasets():
    return {name: load_qla(name) for name in QLA_FILES}


@pytest.fixture(scope="session")
def omega_algebras(qla_datasets):
    return {name: OmegaAlgebra(d) for name, d in qla_datasets.items()}


@pytest.fixture(scope="session")
def color_borel_omega():
    return OmegaAlgebra(load_color_borel())
