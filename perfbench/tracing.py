"""Per-layer trace of the ``wbrst`` package, installed from outside it.

``Tracer.install()`` wraps the public functions and methods of every layer
module (plus the constructors and arithmetic operators of its public
classes, exceptions aside) and rebinds every
name that a ``from .x import y`` bound to the original, so calls between
layers pass through the wrappers.  Each wrapper keeps a call stack, so a
layer's self time is its wall time minus the time of the wrapped calls it
made into any layer.  Counts are exact and repeat across runs of the same
inputs; times do not.

Not wrapped, so their time stays with the calling layer: the hot leaf
accessors and value-type constructors in ``HOT_LEAVES`` (called tens or
hundreds of thousands of times, nearly always from their own layer or for
a few attribute stores) and properties.
Everything else public is timed, including the scalar arithmetic
operators.  Cancellation is traced by replacing ``scalars._cancel_cached``
with an equally unbounded cache over a timed copy of the function it
caches, so ``scalars.gcd_calls`` counts cache misses, each a call into
sympy.  ``MultiPoly.to_sympy`` and ``MultiPoly.from_sympy`` are called only
from that function; they are left unwrapped, so all of the cancellation's
sympy time counts in ``scalars.gcd_s`` and none in ``scalars.self_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("scalars", "linalg", "fields", "engine", "analysis", "algebras",
          "brst", "modes", "tensors", "omega", "parsing", "cli")

ARITHMETIC = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__matmul__"))

HOT_LEAVES = frozenset((
    "scalars.MultiPoly.__init__", "scalars.RationalFunction.__init__",
    "fields.Monomial.__init__", "fields.FieldExpr.__init__",
    "scalars.MultiPoly.const", "scalars.MultiPoly.constant_value",
    "scalars.MultiPoly.to_sympy", "scalars.MultiPoly.from_sympy",
    "scalars.RationalFunction.constant_value", "fields.OpeAlgebra.decl",
    "modes.FockSlice.weight", "modes.FockSlice.op_key",
    "modes.FockSlice.is_creation", "modes.FockSlice.level_of",
    "modes.FockSlice.apply_op", "modes.field_modes_single"))

# per-layer counters: qualified name -> metric it increments on every call
CALL_COUNTERS = {
    "engine.OpeContext.ope_mono": "engine.ope_calls",
    "engine.OpeContext.nmono_single": "engine.nprod_calls",
    "engine.OpeContext.nmono2": "engine.nprod_calls",
    "engine.OpeContext.deriv_mono": "engine.deriv_calls",
    "fields.FieldExpr.__add__": "fields.adds",
    "modes.field_modes": "modes.field_modes_calls",
    "tensors.Mat.__matmul__": "tensors.matmuls",
    "omega.OmegaElement.__mul__": "omega.products",
}
SCALAR_OPS = frozenset(
    f"scalars.RationalFunction.{op}" for op in ARITHMETIC | {"inverse"})

COUNT_METRICS = ("scalars.ops", "scalars.gcd_calls", "engine.ope_calls",
                 "engine.nprod_calls", "engine.deriv_calls", "fields.adds",
                 "linalg.cells", "modes.pole_solves",
                 "modes.field_modes_calls", "modes.slice_states",
                 "tensors.matmuls", "omega.products")


def _linalg_cells(name, args):
    """rows x cols of the matrix a linalg entry point was given."""
    matrix = args[0]
    if name in ("rref", "nullspace"):
        return len(matrix) * args[1]
    if name == "left_nullspace":
        return args[1] * args[2]
    return len(matrix) * len(matrix[0]) if matrix else 0


class Tracer:
    def __init__(self):
        # per layer: [calls in from another layer, total s, self s, depth]
        self.layers = {name: [0, 0.0, 0.0, 0] for name in LAYERS + ("gcd",)}
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._stack = []

    def _wrap(self, layer, qualname, fn):
        acc = self.layers[layer]
        stack, counts = self._stack, self.counts
        perf = time.perf_counter
        metric = CALL_COUNTERS.get(qualname)
        if qualname in SCALAR_OPS:
            metric = "scalars.ops"
        elif layer == "gcd":
            metric = "scalars.gcd_calls"
        cells = (functools.partial(_linalg_cells, qualname.split(".")[-1])
                 if layer == "linalg" else None)
        modes_acc = self.layers["modes"]

        def wrapper(*args, **kwargs):
            if metric is not None:
                counts[metric] += 1
            if not stack or stack[-1][0] is not acc:
                acc[0] += 1
                if cells is not None:
                    counts["linalg.cells"] += cells(args)
                    if stack and stack[-1][0] is modes_acc:
                        counts["modes.pole_solves"] += 1
            frame = [acc, 0.0]
            stack.append(frame)
            outer = acc[3] == 0
            acc[3] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                acc[3] -= 1
                acc[2] += dt - frame[1]
                if outer:
                    acc[1] += dt
                if stack:
                    stack[-1][1] += dt

        return functools.wraps(fn)(wrapper)

    def install(self):
        """Wrap every layer of the already imported package."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"wbrst.{layer}")
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    if f"{layer}.{name}" not in HOT_LEAVES:
                        replaced[obj] = self._wrap(layer, f"{layer}.{name}", obj)
                        setattr(module, name, replaced[obj])
                elif inspect.isclass(obj) and not name.startswith("_") \
                        and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        scalars = sys.modules["wbrst.scalars"]
        cancel = scalars._cancel_cached
        scalars._cancel_cached = functools.lru_cache(maxsize=None)(
            self._wrap("gcd", "scalars._cancel_cached", cancel.__wrapped__))
        self._count_slices(sys.modules["wbrst.modes"].FockSlice)
        for name, module in list(sys.modules.items()):
            if name == "wbrst" or name.startswith("wbrst."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(module, attr, replaced[obj])

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            qualname = f"{layer}.{cls.__name__}.{name}"
            if (name.startswith("_") and name not in ARITHMETIC
                    and name != "__init__") or qualname in HOT_LEAVES:
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                wrapped = type(attr)(self._wrap(layer, qualname, attr.__func__))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(layer, qualname, attr)
            else:
                continue
            setattr(cls, name, wrapped)

    def _count_slices(self, cls):
        init, counts = cls.__init__, self.counts

        @functools.wraps(init)
        def counted_init(slc, *args, **kwargs):
            init(slc, *args, **kwargs)
            counts["modes.slice_states"] += len(slc.basis)

        cls.__init__ = counted_init

    def report(self) -> dict:
        out = dict(self.counts, **{"scalars.gcd_s": self.layers["gcd"][1]})
        for layer, (calls, total, self_s, _) in self.layers.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.total_s"] = total
            out[f"{layer}.self_s"] = self_s
        return out
