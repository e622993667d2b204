"""Every name of the package that the benchmark under ``perfbench/``
reaches by name still exists.  The tracer finds its layers, counted
methods and cache by name, and the worker imports the package; a rename
here would break the benchmark, not the package.  The benchmark files
are parsed, never imported, so running this test writes nothing there."""

import ast
import importlib
import inspect
import pathlib
from fractions import Fraction

import pytest

import wbrst.cli
from wbrst.fields import OpeAlgebra
from wbrst.linalg import left_nullspace
from wbrst.modes import BcSystem, FockSlice
from wbrst.scalars import _cancel_cached

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _module(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _constant(tree, name):
    """The literal value bound to ``name`` at the top of a module."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no literal {name} in the module")


def _resolve(qualname):
    """The object named ``layer.attr.attr...`` under the package."""
    layer, *path = qualname.split(".")
    obj = importlib.import_module(f"wbrst.{layer}")
    for attr in path:
        obj = getattr(obj, attr)
    return obj


TRACING = _module("tracing.py")


@pytest.mark.parametrize("layer", _constant(TRACING, "LAYERS"))
def test_traced_layers_exist(layer):
    importlib.import_module(f"wbrst.{layer}")


@pytest.mark.parametrize("qualname", sorted(_constant(TRACING,
                                                      "CALL_COUNTERS")))
def test_counted_calls_exist(qualname):
    assert callable(_resolve(qualname))


def test_traced_cache_and_slice_basis_exist():
    # the tracer times the cancel cache's own function, and counts the
    # states of every slice by its basis
    assert callable(_cancel_cached.__wrapped__)
    assert len(FockSlice([BcSystem("b", "c", Fraction(2))], 1).basis) > 0


def test_linalg_cells_read_left_nullspace_shape():
    # the tracer counts left_nullspace's cells as args[1] * args[2]
    params = list(inspect.signature(left_nullspace).parameters)
    assert params == ["matrix", "nrows", "ncols"]


def test_worker_imports_exist():
    names = []
    for node in ast.walk(_module("worker.py")):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("wbrst"):
            module = importlib.import_module(node.module)
            names += [(module, a.name) for a in node.names]
    assert names
    for module, name in names:
        assert hasattr(module, name), (module.__name__, name)
    # the worker sorts factors by the algebra's key and runs the CLI
    assert callable(OpeAlgebra.factor_key)
    assert callable(wbrst.cli.main)
