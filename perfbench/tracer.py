"""Outside-in span tracing of the equirep layers.

A ``Tracer`` wraps every public function of each equirep module (the names in
its ``__all__``; for ``cli``, which has none, the public functions it
defines).  While installed, every reference to such a function held in the
``equirep.*`` module dicts points at its wrapper, so calls made through
``from .x import f`` copies are caught too.  The
O(d^2) helpers in ``SKIPPED`` stay unwrapped: they are called too often and
too cheaply to time without swamping what they sit in.

Spans are recorded only while a benchmark op span is open, so the output
checks that run after an op never add spans.  They are kept in memory and
summarised when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("linalg", "groups", "representations", "decompose", "twirl",
          "equivariant", "tasks", "serialize", "cli")

SKIPPED = {"dagger", "comm", "frob", "kron", "hs_inner", "vectorize"}

OP = "bench.op"


def _bytes_superoperator(args, kwargs, result):
    n = args[0].shape[0]
    return n ** 4 * 16          # complex128 n^2 x n^2 output


def _bytes_report(args, kwargs, result):
    return len(result.encode())


def _cols_null_space(args, kwargs, result):
    m = args[0]
    return m.shape[-1] if getattr(m, "ndim", 0) else 1


# Computed sizes recorded per call: (metric suffix, reducer, function).
SIZES = {
    "linalg.commutator_superoperator": ("bytes", sum, _bytes_superoperator),
    "serialize.dumps_report": ("bytes", sum, _bytes_report),
    "linalg.null_space": ("max_cols", max, _cols_null_space),
}


class Tracer:
    """Span recorder; spans are (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.sizes: dict[str, list[int]] = {k: [] for k in SIZES}
        self._stack: list[int] = []
        self._binds = self._bindings()

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    def op(self, fn):
        """Run one benchmark op inside a root span; returns its result."""
        idx = self._open(OP)
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if size is not None:
                self.sizes[name].append(size[2](args, kwargs, result))
            return result

        return traced

    # -- installation ---------------------------------------------------

    def _bindings(self):
        """(module dict, key, original, wrapper) for every reference to rebind."""
        modules = {layer: importlib.import_module(f"equirep.{layer}") for layer in LAYERS}
        wrapped: dict[int, tuple] = {}
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None)
            if names is None:
                names = [n for n, v in vars(mod).items()
                         if inspect.isfunction(v) and not n.startswith("_")]
            for n in names:
                fn = getattr(mod, n)
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and n not in SKIPPED and not n.startswith("is_")):
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{n}", fn))
        out = []
        for modname, mod in list(sys.modules.items()):
            if modname == "equirep" or modname.startswith("equirep."):
                d = vars(mod)
                for key, value in d.items():
                    hit = wrapped.get(id(value))
                    if hit is not None and hit[0] is value:
                        out.append((d, key, value, hit[1]))
        return out

    def install(self):
        for d, key, _, wrapper in self._binds:
            d[key] = wrapper

    def uninstall(self):
        for d, key, original, _ in self._binds:
            d[key] = original

    # -- summary ----------------------------------------------------------

    def summary(self, passes: int) -> dict[str, float]:
        """Per-pass totals: layer calls and self time, per-function figures.

        Self time of a span is its duration minus its direct children's.
        Inclusive time of a function counts only its outermost spans, so a
        nested call of the same function is not counted twice.  The
        benchmark's own time inside ops is the self time of the op spans;
        with it, the layer self times must add up to the op span time.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        op_s = bench_self_s = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            if name == OP:
                op_s += dur
                bench_self_s += dur - child_time[i]
                continue
            layer = name.split(".", 1)[0]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += dur - child_time[i]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
        self_sum = bench_self_s + sum(out[f"{layer}.self_s"] for layer in LAYERS)
        out["trace.op_s"] = op_s
        out = {k: v / passes for k, v in out.items()}
        for name, (suffix, reduce, _) in SIZES.items():
            vals = self.sizes[name]
            total = reduce(vals) if vals else 0
            out[f"{name}.{suffix}"] = total / passes if reduce is sum else total
        out["trace.self_sum_error_s"] = abs(self_sum - op_s)
        return out
