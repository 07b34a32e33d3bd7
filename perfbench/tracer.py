"""Span tracer that wraps kleinfib's entry points from outside the package.

`Tracer.install()` replaces the public functions of every kleinfib module,
and the arithmetic methods of `FieldElement` and `MultiPoly`, with wrappers
that record spans.  A function bound elsewhere with `from ... import` is
replaced in every kleinfib module that holds it, so all call paths are seen.

A span is (name, start, end, parent, run id).  Spans of the arithmetic
layers (tower, multipoly) are only opened at the outermost call into the
layer: a multiplication made inside another tower operation belongs to that
operation.  Every span is added to per-name totals when it closes; spans of
the other layers are also kept in full, but arithmetic spans are not, as a
reproduction makes tens of thousands of them.  Self time of a span is its
duration minus the durations of its child spans.
"""

import functools
import importlib
import inspect
import json
import time

LAYERS = ("tower", "multipoly", "univariate", "geometry", "curves", "orbits",
          "numeric", "lattice", "autos", "cli")

# Layers whose nested calls stay inside the outermost span.
FLAT = {"tower", "multipoly"}

# Wrapped methods of the arithmetic classes, with the operation they count
# as.  FieldElement.__truediv__ is left alone so that its inversion and
# multiplication are each counted as an outermost call.
METHODS = {
    ("tower", "FieldElement"): {
        "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
        "invert": "invert", "__add__": "add_sub", "__radd__": "add_sub",
        "__sub__": "add_sub", "__rsub__": "add_sub", "__neg__": "add_sub"},
    ("multipoly", "MultiPoly"): {
        "__mul__": "mul", "__rmul__": "mul", "scale": "mul", "__pow__": "pow",
        "__add__": "add_sub", "__radd__": "add_sub", "__sub__": "add_sub",
        "__rsub__": "add_sub", "__neg__": "add_sub",
        "substitute": "substitute", "evaluate": "evaluate",
        "exact_div": "divide", "div_univariate": "divide",
        "reduce_mod": "divide"},
}


class Tracer:
    def __init__(self):
        self.run_id = None
        self.spans = []          # kept spans: (name, start, end, parent, run)
        self.totals = {}         # name -> [calls, inclusive_s, self_s]
        self._stack = [[None, None, 0.0, 0.0, -1]]
        self._open = {}          # name -> open spans of that name
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module("kleinfib." + layer)
                   for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or \
                        inspect.isclass(fn) or \
                        getattr(fn, "__module__", None) != mod.__name__:
                    continue
                replaced[id(fn)] = (fn, self._wrap(fn, layer,
                                                   "%s.%s" % (layer, attr)))
        for (layer, cls_name), ops in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for attr, op in ops.items():
                fn = cls.__dict__[attr]
                self._restore.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(fn, layer,
                                              "%s.%s" % (layer, op)))
        # rebind every module-level name that refers to a wrapped function,
        # including names bound with `from .module import fn`
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def _wrap(self, fn, layer, name):
        stack, spans, totals, opened = \
            self._stack, self.spans, self.totals, self._open
        clock = time.perf_counter
        flat = layer in FLAT
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if flat and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [name, layer, clock(), 0.0,
                     parent[4] if flat else len(spans)]
            if not flat:
                spans.append(None)
            stack.append(frame)
            opened[name] = opened.get(name, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened[name] -= 1
                dur = end - frame[2]
                parent[3] += dur
                tot = totals.get(name)
                if tot is None:
                    tot = totals[name] = [0, 0.0, 0.0]
                tot[0] += 1
                if not opened[name]:
                    tot[1] += dur        # inclusive time, outermost only
                tot[2] += dur - frame[3]
                if not flat:
                    spans[frame[4]] = (name, frame[2], end, parent[4],
                                       tracer.run_id)
        return traced

    # -- results ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "a") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run}) + "\n")
