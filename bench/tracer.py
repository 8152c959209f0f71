"""In-memory span tracer for the curvspec layers.

A traced run replaces every public function of the layer modules, and the
``__init__`` and public methods of their public classes, by a wrapper that
records a span (layer, name, start, end, parent, root, operation id).  Names
another curvspec module imported (``verify.smallest_eigenpairs``,
``cli.compute_curvature``) are rebound too, so every call into a layer is
seen wherever it is made from.

scipy's ``splu``, ``SuperLU.solve``, ``eigsh`` and dense ``scipy.linalg.eigh``
are wrapped as counters.  A counter is charged to the innermost open
curvspec span, which is how ARPACK's own shift-invert ``splu`` lands on the
``eigen`` span that called ``eigsh``.  Spans stay in memory until the run
ends.  Untraced runs never construct a Tracer, so they run unwrapped code.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "mesh", "surfaces", "curvature", "assemble", "verify",
          "identities", "birman", "eigen")

# span fields, in the order they are stored and written
SPAN_FIELDS = ("layer", "name", "start", "end", "parent", "root", "op")


class _CountedLU:
    """SuperLU stand-in that charges each ``solve`` to the open span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.charge("solves")
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans = []           # lists in SPAN_FIELDS order
        self.counts = defaultdict(Counter)   # span index -> counter -> value
        self.arg_ids = {}         # span index -> id() of the first argument
        self.op = None
        self._stack = []
        self._restore = []        # (owner, attribute, original)

    # ------------------------------------------------------------ recording
    def charge(self, counter, amount=1):
        span = self._stack[-1] if self._stack else -1
        self.counts[span][counter] += amount

    def _wrap(self, fn, layer, name):
        spans, stack, arg_ids = self.spans, self._stack, self.arg_ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else idx
            span = [layer, name, 0.0, 0.0, parent, root, self.op]
            spans.append(span)
            if args:
                arg_ids[idx] = id(args[0])
            stack.append(idx)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    def _counted(self, fn, counter, time_counter=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.charge(counter)
            if time_counter is None:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.charge(time_counter, clock() - t0)

        return wrapper

    def _counted_splu(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lu = fn(*args, **kwargs)
            self.charge("factorizations")
            self.charge("fill_nnz", int(lu.nnz))
            return _CountedLU(lu, self)

        return wrapper

    # ---------------------------------------------------------- installation
    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the layer modules of ``package`` and the scipy entry points."""
        import scipy.linalg
        import scipy.sparse.linalg
        from scipy.sparse.linalg._eigen.arpack import arpack

        wrapped = {}   # id(original function) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, layer, f"{layer}.{name}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                                meth == "__init__" or not meth.startswith("_")):
                            self._patch(obj, meth, self._wrap(
                                fn, layer, f"{layer}.{name}.{meth}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, name, wrapped[id(obj)])

        splu = self._counted_splu(scipy.sparse.linalg.splu)
        self._patch(scipy.sparse.linalg, "splu", splu)
        self._patch(arpack, "splu", splu)
        self._patch(scipy.sparse.linalg, "eigsh",
                    self._counted(scipy.sparse.linalg.eigsh, "eigsh_calls"))
        self._patch(scipy.linalg, "eigh",
                    self._counted(scipy.linalg.eigh, "dense_calls", "dense_s"))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- analysis
    def op_summary(self, op):
        """Per-layer calls, self seconds and counters for one operation."""
        calls = Counter()
        self_s = Counter()
        counters = defaultdict(Counter)
        child_s = Counter()
        own = [i for i, s in enumerate(self.spans) if s[6] == op]
        for i in own:
            start, end, parent = self.spans[i][2:5]
            if parent >= 0:
                child_s[parent] += end - start
        curvature_calls = 0
        meshes = set()
        for i in own:
            layer, name, start, end, _, root = self.spans[i][:6]
            calls[layer] += 1
            self_s[layer] += (end - start) - child_s[i]
            counters[layer].update(self.counts.get(i, {}))
            if name == "curvature.compute_curvature":
                curvature_calls += 1
                meshes.add((root, self.arg_ids.get(i)))
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counters": {k: dict(v) for k, v in counters.items()},
            "spans": len(own),
            "curvature_calls": curvature_calls,
            "meshes": len(meshes),
        }

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                **meta,
                "span_fields": list(SPAN_FIELDS),
                "spans": self.spans,
                "counts": {str(k): dict(v) for k, v in self.counts.items()},
            }, fh)
