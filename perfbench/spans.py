"""In-memory span recorder and the wrappers that place spans around
public ``prarray`` calls.

A traced round rebinds each listed function, in every ``prarray`` module
that holds it, to a wrapper that records one span per call: (name,
start, end, parent span index, operation id).  Untraced rounds run the
original functions; nothing here is imported by the program itself.
"""

from __future__ import annotations

import sys
import time

# (module, function) pairs timed as layers.  Calls are charged to the
# outermost span of a name, so a function reached twice on one stack
# counts its time once.
PUBLIC_LAYERS = {
    "criteria": (
        "setpoly_test",
        "trace_independence_test",
        "det_test",
        "window_positions",
        "vee",
        "classify_construction",
    ),
    "verify": ("window_census",),
    "folding": ("fold_zero_factor",),
    "lfsr": ("zero_factor",),
    "gf2poly": ("is_irreducible", "exponent", "factor", "classify", "enumerate_irreducible"),
}

# Private hooks read only in a traced run; a missing hook is reported
# absent rather than as an error.
PRIVATE_LAYERS = {
    "criteria._vee_by_matrix": "criteria.vee.matrix_s",
    "criteria._vee_by_sequences": "criteria.vee.sequences_s",
}
PRIVATE_CACHES = {
    "gf2poly._factorint": "gf2poly.factorint_cache.hit_ratio",
    "folding._fold_indices": "folding.fold_indices_cache.hit_ratio",
}


def _work_counts(name, args, result):
    """Work done by one call, read from its arguments and result."""
    if name == "verify.window_census":
        return {"windows": result.detail.get("windows_total", 0), "arrays": len(args[0])}
    if name == "folding.fold_zero_factor":
        return {"cells": len(result) * args[1] * args[2]}
    if name == "lfsr.zero_factor":
        return {"states": len(result.cycles) * result.exponent, "cycles": len(result.cycles)}
    if name == "criteria.det_test":
        return {"rank_dim": result.detail.get("matrix_size", 0)}
    if name == "gf2poly.enumerate_irreducible":
        return {"polys": len(result)}
    return None


class Tracer:
    """Spans and per-name work counters of one traced run."""

    def __init__(self, spent):
        # spent() is the calibration time so far; it is left out of
        # each span's busy time
        self.spent = spent
        self.spans = []  # [name, start, end, parent, op_id, outermost, busy]
        self.counts = {}
        self.op_id = None
        self._stack = []
        self._depth = {}

    def open(self, name):
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        # busy holds the calibration time at open until the span closes
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, depth == 0, self.spent()])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[6] = span[2] - span[1] - (self.spent() - span[6])
        self._stack.pop()
        name = span[0]
        self._depth[name] -= 1

    def count(self, name, key, n):
        per = self.counts.setdefault(name, {})
        per[key] = per.get(key, 0) + n

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            work = _work_counts(name, args, result)
            if work:
                for key, n in work.items():
                    tracer.count(name, key, n)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_totals(self, names):
        """{name: (calls, busy_s)} from outermost spans only."""
        calls = {n: 0 for n in names}
        busy = {n: 0.0 for n in names}
        for name, _, _, _, _, outer, span_busy in self.spans:
            if name in calls:
                calls[name] += 1
                if outer:
                    busy[name] += span_busy
        return {n: (calls[n], busy[n]) for n in names}

    def export(self):
        return [s[:5] for s in self.spans]


def _prarray_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("prarray") and m]


def _rebind(old, new):
    """Point every prarray module binding of ``old`` at ``new``."""
    for mod in _prarray_modules():
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


class Instrumented:
    """Context manager: wrap the layer functions while active."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.swaps = []
        self.absent = []

    def __enter__(self):
        import prarray

        for mod_name, funcs in PUBLIC_LAYERS.items():
            mod = getattr(prarray, mod_name)
            for fn_name in funcs:
                self._swap(f"{mod_name}.{fn_name}", getattr(mod, fn_name))
        for hook, label in PRIVATE_LAYERS.items():
            mod_name, fn_name = hook.split(".")
            fn = getattr(getattr(prarray, mod_name), fn_name, None)
            if fn is None:
                self.absent.append(label)
            else:
                self._swap(label, fn)
        # FieldElement.order is a method: wrap it on the class.
        cls = prarray.gf2field.FieldElement
        self._order = cls.order
        cls.order = self.tracer.wrap("gf2field.order", self._order)
        return self

    def _swap(self, name, fn):
        wrapped = self.tracer.wrap(name, fn)
        _rebind(fn, wrapped)
        self.swaps.append((fn, wrapped))

    def __exit__(self, *exc):
        import prarray

        prarray.gf2field.FieldElement.order = self._order
        for fn, wrapped in reversed(self.swaps):
            _rebind(wrapped, fn)
        return False


def cache_snapshot():
    """(hits, misses) of each private lru cache that still exists."""
    import prarray

    out = {}
    for hook, label in PRIVATE_CACHES.items():
        mod_name, fn_name = hook.split(".")
        fn = getattr(getattr(prarray, mod_name), fn_name, None)
        info = getattr(fn, "cache_info", None)
        if info is not None:
            ci = info()
            out[label] = (ci.hits, ci.misses)
    return out
