"""Every name of the package that the benchmark under ``perfbench/``
reaches by name still exists, and every command line it issues parses.
The tracer finds its layers, counted methods and cache by name, and the
worker imports the package; a rename here would break the benchmark, not
the package.  The benchmark files are parsed or executed from their
source, never imported, so running this test writes nothing there."""

import ast
import importlib
import inspect
import itertools
import json
import pathlib
from fractions import Fraction

import pytest

import wbrst.cli
import wbrst.linalg
from wbrst.algebras import w3_ghosts
from wbrst.analysis import derivative_system
from wbrst.fields import OpeAlgebra
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


def _compiled(tree, name):
    """The top-level function ``name`` of a parsed benchmark module,
    compiled on its own: the module is not imported and nothing is
    written next to it."""
    node, = (n for n in tree.body
             if isinstance(n, ast.FunctionDef) and n.name == name)
    namespace = {}
    exec(compile(ast.Module([node], type_ignores=[]), name, "exec"),
         namespace)
    return namespace[name]


def test_linalg_cells_count_real_arguments():
    # the tracer calls _linalg_cells on the positional arguments of every
    # linalg entry point; on sparse rows it must still give a count, and
    # every public function of the module is called here
    cells = _compiled(TRACING, "_linalg_cells")
    _, targets, rows = derivative_system(w3_ghosts().context(), 0, 0, 2,
                                         ())
    assert any(rows)
    red, pivots = wbrst.linalg.rref(rows, len(targets))
    calls = [
        ("rref", (rows, len(targets))),
        ("normal_form", (red, pivots, rows[0])),
        ("rref", ([], 0)),
        ("normal_form", ([], [], {})),
        ("normal_form", ([], [], {0: Fraction(1)})),
    ]
    public = {name for name, fn in inspect.getmembers(wbrst.linalg,
                                                      inspect.isfunction)
              if fn.__module__ == wbrst.linalg.__name__
              and not name.startswith("_")}
    assert public == {name for name, _ in calls}
    for name, args in calls:
        getattr(wbrst.linalg, name)(*args)
        assert isinstance(cells(name, args), int), name


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


def test_every_benchmark_command_parses_without_argparse(tmp_path):
    # every command line of every workload, seeds 1-3 and passes 0-2 (the
    # derive_brst library calls aside), takes the CLI's plain-argv path:
    # the option spellings the benchmark issues stay valid, and no
    # benchmark command pays for building the argparse tree.  The module
    # is executed from its source, not imported, and its .qla files go
    # to tmp_path
    source = BENCH / "generate.py"
    generate = {}
    exec(compile(source.read_text(encoding="utf-8"), str(source), "exec"),
         generate)
    answers = json.loads((BENCH / "known_answers.json").read_text(
        encoding="utf-8"))
    data = pathlib.Path(wbrst.cli.__file__).parent / "data"
    argvs = []
    for name, seed, k in itertools.product(("cft", "qla", "oracle"),
                                           (1, 2, 3), range(3)):
        workdir = tmp_path / f"{name}-{seed}-{k}"
        workdir.mkdir()
        argvs += [argv for check in generate["workload"](
                      name, seed, k, answers, data, workdir)
                  for argv in check["commands"] if argv[0] != "derive_brst"]
    assert {argv[0] for argv in argvs} == {"cft", "qla", "oracle"}
    assert [argv for argv in argvs
            if wbrst.cli._match(argv + ["--json"]) is None] == []
