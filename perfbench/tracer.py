"""Spans and counters around calls into skewring's modules.

The tracer wraps the public functions of each module from outside:
it replaces every binding of a function in the loaded ``skewring.*``
modules (intra-package imports bind names at import time, so
``structure.poly_mul`` is patched as well as ``poly.poly_mul``) and the
``__mul__``/``__call__``/``power_apply`` methods of the element and
twist classes. Nothing under ``src/`` changes, and ``uninstall``
restores every original binding.

A call nested directly inside a span of the same layer is transparent:
``calls`` counts entries into a layer from outside it, and a layer's
self time is its span time minus the time of the spans it caused.
The leaf layers (``rings``, ``linalg``, ``maps`` and ``poly.mul``) run
up to millions of times per pass, so they are aggregated per parent
layer; the coarse layers keep every raw span (name, parent, start,
end, self time, and counts such as the ``rings.mul`` calls inside it).
"""

from __future__ import annotations

import importlib
import sys

# leaf layers: aggregated per (layer, parent layer), no raw spans
LEAF_LAYERS = ("rings.mul", "rings.invert", "linalg.solve", "maps.twist", "maps.pi",
               "poly.mul")

# layer -> (module, function names); every binding of each function in
# the loaded skewring modules is wrapped
FUNCTION_LAYERS = {
    "rings.invert": ("rings", ("invert",)),
    "linalg.solve": ("linalg", ("solve",)),
    "maps.pi": ("maps", ("pi_apply", "pi_word_sum")),
    "poly.mul": ("poly", ("poly_mul",)),
    "poly.dstructure": ("poly", ("validate_d_structure",)),
    "series.mul": ("series", ("series_mul",)),
    "series.invert": ("series", ("series_invert",)),
    "structure.scan": ("structure", ("nucleus_membership", "associativity_certificate")),
    "structure.reduce": ("structure", ("monic_left_reduce", "right_reduce",
                                       "replay_reduction", "central_reduction")),
    "structure.probe": ("structure", ("simplicity_probe",)),
    "parsing.parse": ("parsing", ("parse_poly", "parse_series")),
    "parsing.format": ("parsing", ("format_poly", "format_series", "format_monomial",
                                   "format_element", "format_coefficient")),
    "config.load": ("config", ("load_config", "load_config_file")),
}

# layer -> (module, class names, method names)
METHOD_LAYERS = {
    "rings.mul": ("rings", ("AlgebraElement", "MatrixElement"), ("__mul__",)),
    "rings.invert": ("rings", ("AlgebraSpec", "MatrixRing"), ("invert",)),
}
TWIST_METHODS = ("__call__", "power_apply")

# the Ore product's pi row lives in poly but computes the maps-layer
# pi family; wrapped under maps.pi when present
PRIVATE_PI_ROW = ("poly", "_pi_row")


class Tracer:
    """Per-layer call counts and times for one traced pass."""

    def __init__(self, clock):
        self.clock = clock
        # open spans: [layer, coarse span index or None, child time]
        self.stack = [["root", None, 0.0]]
        self.leaf = {}  # (layer, parent layer) -> [calls, self seconds]
        self.spans = []  # coarse: [layer, parent index, start, end, self, info]
        self.ring_muls = 0
        self.ring_mul_repeats = 0
        self._pairs_seen = set()
        self.shrinks = 0
        self.useful_shrinks = 0
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _parent_index(self):
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def open(self, layer):
        """Open a coarse span; returns the token ``close`` takes."""
        index = len(self.spans)
        self.spans.append([layer, self._parent_index(), self.clock(), None, 0.0, None])
        frame = [layer, index, 0.0]
        self.stack.append(frame)
        return frame

    def close(self, frame):
        end = self.clock()
        span = self.spans[frame[1]]
        self.stack.pop()
        duration = end - span[2]
        span[3] = end
        span[4] = duration - frame[2]
        self.stack[-1][2] += duration

    def _leaf_wrapper(self, layer, fn, before=None):
        stack = self.stack
        leaf = self.leaf
        clock = self.clock

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            frame = [layer, None, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[2] += duration
                key = (layer, parent[0])
                slot = leaf.get(key)
                if slot is None:
                    leaf[key] = [1, duration - frame[2]]
                else:
                    slot[0] += 1
                    slot[1] += duration - frame[2]

        wrapper.__wrapped__ = fn
        return wrapper

    def _coarse_wrapper(self, layer, fn, describe=None):
        stack = self.stack

        def wrapper(*args, **kwargs):
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = self.open(layer)
            muls_before = self.ring_muls
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(frame)
                info = {"ring_muls": self.ring_muls - muls_before}
                if describe is not None and result is not None:
                    info.update(describe(args, kwargs, result))
                self.spans[frame[1]][5] = info

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-layer hooks ---------------------------------------------------

    def _note_ring_mul(self, args):
        a, b = args[0], args[1]
        self.ring_muls += 1
        key = (getattr(a.ring, "name", None), hash(a), hash(b))
        if key in self._pairs_seen:
            self.ring_mul_repeats += 1
        else:
            self._pairs_seen.add(key)

    def _shrink_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if any(frame[0] == "structure.probe" for frame in self.stack):
                self.shrinks += 1
                if result:
                    self.useful_shrinks += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _set(self, owner, name, value):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _rebind(self, original, wrapper):
        """Point every module-level binding of ``original`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "skewring" or mod_name.startswith("skewring.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self):
        mods = {name: importlib.import_module(f"skewring.{name}")
                for name in ("rings", "linalg", "maps", "poly", "series", "structure",
                             "parsing", "config", "cli")}
        describe = {
            "structure.scan": _describe_scan,
            "structure.reduce": _describe_reduce,
        }
        for layer, (mod, names) in FUNCTION_LAYERS.items():
            for name in names:
                original = getattr(mods[mod], name, None)
                if original is None:
                    continue
                if layer in LEAF_LAYERS:
                    wrapper = self._leaf_wrapper(layer, original)
                else:
                    wrapper = self._coarse_wrapper(layer, original, describe.get(layer))
                self._rebind(original, wrapper)
        mod, name = PRIVATE_PI_ROW
        original = getattr(mods[mod], name, None)
        if original is not None:
            self._rebind(original, self._leaf_wrapper("maps.pi", original))
        shrink = getattr(mods["structure"], "shrink", None)
        if shrink is not None:
            self._rebind(shrink, self._shrink_wrapper(shrink))

        for layer, (mod, classes, methods) in METHOD_LAYERS.items():
            before = self._note_ring_mul if layer == "rings.mul" else None
            for cls_name in classes:
                cls = getattr(mods[mod], cls_name, None)
                for method in methods:
                    if cls is not None and method in cls.__dict__:
                        self._set(cls, method,
                                  self._leaf_wrapper(layer, cls.__dict__[method], before))
        base = getattr(mods["maps"], "TwistMap", None)
        for cls in vars(mods["maps"]).values():
            if isinstance(cls, type) and base is not None and issubclass(cls, base):
                for method in TWIST_METHODS:
                    if method in cls.__dict__:
                        self._set(cls, method,
                                  self._leaf_wrapper("maps.twist", cls.__dict__[method]))
        return self

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def layer_totals(self):
        """layer -> [calls, self seconds], leaf and coarse layers alike."""
        totals = {}
        for (layer, _parent), (calls, self_s) in self.leaf.items():
            slot = totals.setdefault(layer, [0, 0.0])
            slot[0] += calls
            slot[1] += self_s
        for layer, _parent, _start, _end, self_s, _info in self.spans:
            slot = totals.setdefault(layer, [0, 0.0])
            slot[0] += 1
            slot[1] += self_s
        return totals

    def summary(self):
        """JSON-ready aggregates (what a traced child process hands back)."""
        scans = [s for s in self.spans if s[0] == "structure.scan"]
        passing = [s for s in scans if s[5] and s[5].get("passed")]
        return {
            "layers": self.layer_totals(),
            "ring_muls": self.ring_muls,
            "ring_mul_repeats": self.ring_mul_repeats,
            "scan_pairs": sum(s[5]["pairs"] for s in passing),
            "scan_pass_s": sum(s[3] - s[2] for s in passing),
            "scan_pass_ring_muls": sum(s[5]["ring_muls"] for s in passing),
            "reduce_steps": sum(
                (s[5] or {}).get("steps", 0) for s in self.spans if s[0] == "structure.reduce"
            ),
            "shrinks": self.shrinks,
            "useful_shrinks": self.useful_shrinks,
        }


def _span_size(config, bound):
    """len(config.spanning_set(bound)) without filling the config's cache."""
    coefficients = len(config.coefficients.spanning_set(bound))
    window = 2 * bound + 1 if config.shape == "laurent" else bound + 1
    return coefficients * window


def _describe_scan(args, kwargs, result):
    if args and hasattr(args[0], "element"):  # nucleus_membership(query)
        query = args[0]
        pairs = _span_size(query.element.config, query.degree_bound) ** 2
    else:  # associativity_certificate(config, degree_bound)
        config = args[0] if args else kwargs["config"]
        bound = args[1] if len(args) > 1 else kwargs["degree_bound"]
        pairs = _span_size(config, bound) ** 3
    return {"passed": bool(result), "pairs": pairs}


def _describe_reduce(args, kwargs, result):
    steps = getattr(result, "steps", None)
    return {"steps": len(steps) if steps is not None else 0}


def merge_summaries(summaries):
    """Sum the aggregates of several traced processes."""
    out = {"layers": {}}
    for summary in summaries:
        for layer, (calls, self_s) in summary["layers"].items():
            slot = out["layers"].setdefault(layer, [0, 0.0])
            slot[0] += calls
            slot[1] += self_s
        for key, value in summary.items():
            if key != "layers":
                out[key] = out.get(key, 0) + value
    return out
