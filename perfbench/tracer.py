"""Outside-in layer tracer.

It replaces, for the length of one timed operation, every public function
of the fimlab layers and the public methods of their main classes with a
wrapper that records a span: its duration, the part of it covered by child
spans, and counts.  A layer's self time is the sum of its spans' durations
minus their children's.  ``src/fimlab`` itself is not modified.

A function is replaced wherever it is bound: in the module that defines it
and in every fimlab module that did ``from .x import name``, so calls that
never pass through the defining module's namespace are still seen.
"""

from __future__ import annotations

import sys
import time
import types

# Layers in bottom-up order; the kernel is the binding ``linalg.rref_int``.
LAYERS = ("kernel", "linalg", "modules", "functors", "homology", "theorems",
          "category", "symrep")
MODULE_LAYER = {
    "fimlab.linalg": "linalg",
    "fimlab.modules": "modules",
    "fimlab.functors": "functors",
    "fimlab.homology": "homology",
    "fimlab.theorems": "theorems",
    "fimlab.category": "category",
    "fimlab.symrep": "symrep",
}
CLASSES = {
    "fimlab.linalg": ("RationalMatrix", "Subspace"),
    "fimlab.modules": ("TruncatedModule", "NaturalitySolver", "ModuleMap"),
}
# Special methods worth a span; other dunders are too small to time.
DUNDERS = ("__init__", "__mul__", "__add__", "__sub__", "__neg__")
# Named groups of wrapped callables: every entry is a call, and only the
# outermost entry into a group adds to its inclusive time.
GROUPS = {
    "linalg.solve": ("linalg.solve", "linalg.solve_matrix"),
    "linalg.inverse": ("linalg.inverse",),
    "linalg.kernel_basis": ("linalg.kernel_basis",),
    "linalg.matrix_new": ("linalg.RationalMatrix.__init__",),
    "linalg.matmul": ("linalg.RationalMatrix.__mul__",),
    "modules.hom": ("modules.hom_space",),
    "modules.quotient": ("modules.quotient",),
    "modules.json": tuple(
        f"modules.TruncatedModule.{m}"
        for m in ("to_dict", "from_dict", "to_json", "from_json", "save", "load")
    ),
    "homology.h1": ("homology.h1",),
    "homology.free_cover": ("homology.free_cover",),
}
CACHE_LAYERS = ("category", "symrep")


def _max_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            b = abs(x).bit_length()
            if b > best:
                best = b
    return best


class Tracer:
    """Span accounting for the fimlab layers.

    Build it after fimlab is imported; ``install()`` and ``uninstall()``
    swap the wrappers in and out, and ``stats()`` reads what was recorded
    while they were in.
    """

    def __init__(self):
        import fimlab.homology

        self._inconclusive_status = fimlab.homology.INCONCLUSIVE
        self._patches = []  # (namespace, attribute, original, wrapper)
        self._names = []  # qualified name of each wrapped callable
        self._caches = {layer: [] for layer in CACHE_LAYERS}
        self._build()
        self.stack = [0.0]
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(self._names)
        self.group_calls = dict.fromkeys(GROUPS, 0)
        self.group_incl = dict.fromkeys(GROUPS, 0.0)
        self.group_depth = dict.fromkeys(GROUPS, 0)
        self.hook_s = 0.0
        self.kernel = {"cells": 0, "max_rows": 0, "max_cols": 0, "max_bits": 0}
        self.hom = {"params": 0, "constraint_rows": 0}
        self.inconclusive = 0
        self.cache = {layer: [0, 0] for layer in CACHE_LAYERS}

    def _cache_totals(self):
        out = {}
        for layer, fns in self._caches.items():
            info = [fn.cache_info() for fn in fns]
            out[layer] = (sum(i.hits for i in info), sum(i.misses for i in info))
        return out

    def stats(self) -> dict:
        """Per-layer figures recorded so far."""
        out = {}
        for layer, s in zip(LAYERS, self.self_s):
            out[f"{layer}.self_s"] = s
        layer_calls = dict.fromkeys(LAYERS, 0)
        for name, n in zip(self._names, self.calls):
            layer_calls[name.split(".", 1)[0]] += n
        for layer, n in layer_calls.items():
            out[f"{layer}.calls"] = n
        for k, v in self.kernel.items():
            out[f"kernel.{k}"] = v
        for g in GROUPS:
            out[f"{g}.calls"] = self.group_calls[g]
            out[f"{g}.incl_s"] = self.group_incl[g]
        out["modules.hom.params"] = self.hom["params"]
        out["modules.hom.constraint_rows"] = self.hom["constraint_rows"]
        out["theorems.inconclusive"] = self.inconclusive
        for layer, (hits, misses) in self.cache.items():
            out[f"{layer}.cache_hits"] = hits
            out[f"{layer}.cache_misses"] = misses
        out["trace.attributed_s"] = self.stack[0]
        out["trace.hook_s"] = self.hook_s
        return out

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, qualname: str, post=None):
        layer = LAYERS.index(qualname.split(".", 1)[0])
        index = len(self._names)
        self._names.append(qualname)
        group = next((g for g, members in GROUPS.items() if qualname in members), None)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            tracer.calls[index] += 1
            if group is not None:
                tracer.group_calls[group] += 1
                tracer.group_depth[group] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer.self_s[layer] += dt - stack.pop()
                stack[-1] += dt
                if group is not None:
                    tracer.group_depth[group] -= 1
                    if not tracer.group_depth[group]:
                        tracer.group_incl[group] += dt
            if post is not None:
                # Hook time is booked as a child of the caller, so no layer's
                # self time carries it.
                h0 = clock()
                post(args, result)
                h = clock() - h0
                tracer.hook_s += h
                stack[-1] += h
            return result

        return wrapper

    def _kernel_post(self, args, result):
        rows, ncols = args[0], args[1]
        k = self.kernel
        k["cells"] += len(rows) * ncols
        k["max_rows"] = max(k["max_rows"], len(rows))
        k["max_cols"] = max(k["max_cols"], ncols)
        k["max_bits"] = max(k["max_bits"], _max_bits(rows), _max_bits(result[1]))

    def _solver_post(self, args, result):
        solver = args[0]
        self.hom["params"] += solver.nparams
        self.hom["constraint_rows"] += len(solver.rows)

    def _theorems_post(self, args, result):
        if getattr(result, "status", None) == self._inconclusive_status:
            self.inconclusive += 1

    def _build(self):
        import fimlab.linalg

        replace = {}  # id(original) -> wrapper; the originals stay alive
        kernel = fimlab.linalg.rref_int
        replace[id(kernel)] = self._wrap(kernel, "kernel.rref_int", self._kernel_post)
        for modname, layer in MODULE_LAYER.items():
            mod = sys.modules[modname]
            post = self._theorems_post if layer == "theorems" else None
            for name, obj in vars(mod).items():
                if (isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != modname):
                    continue
                # Private cached helpers are counted but not wrapped.
                if layer in CACHE_LAYERS and hasattr(obj, "cache_info"):
                    self._caches[layer].append(obj)
                if not name.startswith("_") and id(obj) not in replace:
                    replace[id(obj)] = self._wrap(obj, f"{layer}.{name}", post)
            for cname in CLASSES.get(modname, ()):
                self._build_class(getattr(mod, cname), layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "fimlab" and not modname.startswith("fimlab."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, name, obj, wrapper))

    def _build_class(self, cls, layer: str):
        post = self._solver_post if cls.__name__ == "NaturalitySolver" else None
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(attr.__func__, qual))
            elif isinstance(attr, classmethod):
                new = classmethod(self._wrap(attr.__func__, qual))
            elif isinstance(attr, types.FunctionType):
                new = self._wrap(attr, qual, post if name == "__init__" else None)
            else:
                continue
            self._patches.append((cls, name, attr, new))

    def install(self):
        self._cache_base = self._cache_totals()
        for ns, name, _, wrapper in self._patches:
            setattr(ns, name, wrapper)

    def uninstall(self):
        for ns, name, original, _ in self._patches:
            setattr(ns, name, original)
        # Caches are counted only while installed, so untraced runs in
        # between leave the figures alone.
        for layer, (hits, misses) in self._cache_totals().items():
            base = self._cache_base[layer]
            self.cache[layer][0] += hits - base[0]
            self.cache[layer][1] += misses - base[1]
