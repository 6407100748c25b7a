"""Spans and counts around the public functions of the wresolve layers.

Everything happens from the benchmark side: ``install`` replaces each
public function of a layer module, in every module that binds it (for
example ``riemannroch`` and ``cli`` import ``normalize_cyclic`` by
name), with a wrapper.  The wrapper records a span -- name, start, end,
parent span, request id -- or, for the highest-frequency helpers, only
a call count, since a span there would cost more than the call.

A span's self time is its duration minus the time its child spans
cover; time in a count-only helper is charged to its caller, as is time
in ``rationals`` and ``errors``, which are too thin to time.
"""

from __future__ import annotations

import gzip
import inspect
import json
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("baskets", "germs", "riemannroch", "neighborhoods", "chains",
          "traces", "sweeps", "cli")

COUNT_ONLY = frozenset({
    "germs.cyclic_depth_search", "germs.nu", "germs.axial_weight",
    "chains.beta_k", "chains.gamma_k", "chains.delta_k", "chains.beta_k_b",
    "chains.gamma_k_b", "chains.chain_weights",
})

# function groups behind the per-layer metrics; a layer's plain
# ``calls`` / ``self_s`` cover all of its wrapped functions
GROUPS = {
    "germs.search": ("germs.depth_search", "germs.resolution_tree"),
    "germs.blowup": ("germs.blowup_step",),
    "germs.cyclic": ("germs.cyclic_depth_search",),
    "germs.invariants": ("germs.axial_weight", "germs.nu", "germs.tvalue",
                         "germs.depth_formula"),
}


class Tracer:
    """Spans kept in memory as columns, plus per-function counts."""

    def __init__(self, request_roots=()):
        self.request_roots = frozenset(request_roots)
        self.request = 0
        self.calls = Counter()
        self.self_s = Counter()
        self.steps_checked = 0
        self.stages = 0
        self.names: list[str] = []
        self.span_id = array("l")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_request = array("l")
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time covered by children]

    def new_request(self) -> None:
        self.request += 1

    def counter(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def spanned(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        calls, self_s, stack = self.calls, self.self_s, self._stack
        starts_request = name in self.request_roots
        if name == "traces.validate_trace":
            def after(args, result):
                self.steps_checked += len(args[0].steps)
        elif name in ("chains.chain_simulate", "chains.chain_stages_b"):
            def after(args, result):
                self.stages += len(result)
        else:
            after = None

        def spanned(*args, **kwargs):
            calls[name] += 1
            if starts_request:
                self.request += 1
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self.span_id.append(span_id)
                self.span_name.append(name_id)
                self.span_start.append(start)
                self.span_end.append(end)
                self.span_parent.append(parent)
                self.span_request.append(self.request)
            if after is not None:
                after(args, result)
            return result

        return spanned

    def install(self, package) -> None:
        """Wrap every public function of each layer module of ``package``
        wherever the package's modules bind it."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{layer}.{attr}"
                make = self.counter if name in COUNT_ONLY else self.spanned
                wrappers[id(obj)] = (obj, make(name, obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def counts(self) -> dict:
        """Everything countable; two runs on one seed must agree exactly."""
        return {**self.calls, "traces.steps_checked": self.steps_checked,
                "chains.stages": self.stages, "spans": self._next_id}

    def layer_metrics(self) -> dict:
        def total(counter, names):
            return sum(counter[n] for n in names)

        def layer(prefix):
            return [n for n in self.calls if n.startswith(prefix + ".")]

        m = {}
        for group, names in GROUPS.items():
            m[f"{group}.calls"] = total(self.calls, names)
        m["germs.search.self_s"] = total(self.self_s, GROUPS["germs.search"])
        m["germs.invariants.self_s"] = total(self.self_s, GROUPS["germs.invariants"])
        searches = m["germs.search.calls"]
        m["germs.blowups_per_search"] = m["germs.blowup.calls"] / searches if searches else 0.0
        for name in ("baskets", "traces", "chains", "neighborhoods", "riemannroch"):
            m[f"{name}.calls"] = total(self.calls, layer(name))
            m[f"{name}.self_s"] = total(self.self_s, layer(name))
        m["traces.steps_checked"] = self.steps_checked
        m["chains.stages"] = self.stages
        m["sweeps.self_s"] = total(self.self_s, layer("sweeps"))
        return m

    def write_spans(self, path) -> None:
        """Columns id, name, start, end, parent (an id, -1 at the root) and
        request, one row per span in the order the spans ended."""
        payload = {
            "names": self.names,
            "id": self.span_id.tolist(),
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "request": self.span_request.tolist(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
