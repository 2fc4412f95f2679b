"""Span tracing of bgraph's public functions, installed from outside.

`Tracer.install()` wraps every public function of every bgraph module,
plus `Graph.from_edges`, and puts the wrapper in each bgraph module that
holds the function, so calls between modules are traced too.  A span is
(name, start, end, parent index); spans stay in memory until `dump`.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

MODULES = ("cli", "graph", "mis", "extendability", "csma", "kernelize", "transforms",
           "reduce3sat", "unitdisk")

CSMA_CALLS = ("csma.throughput", "csma.throughput_limit", "csma.starvation_report",
              "csma.theta_sweep")

class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.reported_vertices = 0  # vertices in is_one_extendable reports
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if name == "extendability.is_one_extendable":
                self.reported_vertices += len(result.verdicts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        from bgraph.graph import Graph

        names = {}
        for short in MODULES:
            mod = sys.modules[f"bgraph.{short}"]
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    names[val] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "bgraph" and not modname.startswith("bgraph."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        original = Graph.__dict__["from_edges"]
        self._restore.append((Graph, "from_edges", original))
        Graph.from_edges = staticmethod(self._wrap("graph.Graph.from_edges",
                                                   original.__func__))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    def _has_ancestor(self, idx: int, names) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_values(self, passes: int, names) -> dict[str, float]:
        """Per-pass value of each named "<layer>.calls" and "<layer>.self_s"
        metric, and the two ratios."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start)
            if parent >= 0:
                pname = self.spans[parent][0]
                self_s[pname] = self_s.get(pname, 0.0) - (end - start)
        out: dict[str, float] = {}
        for metric in names:
            layer, kind = metric.rsplit(".", 1)
            if kind == "calls":
                out[metric] = calls.get(layer, 0) / passes
            elif kind == "self_s":
                out[metric] = self_s.get(layer, 0.0) / passes
        queries = sum(1 for i, s in enumerate(self.spans) if s[0] == "mis.find_independent_set"
                      and self._has_ancestor(i, ("extendability.is_one_extendable",)))
        csma_calls = sum(calls.get(name, 0) for name in CSMA_CALLS)
        polys = sum(1 for i, s in enumerate(self.spans) if s[0] == "mis.independence_polynomial"
                    and self._has_ancestor(i, CSMA_CALLS))
        out["extendability.queries_per_vertex"] = (
            queries / self.reported_vertices if self.reported_vertices else 0.0)
        out["csma.polys_per_call"] = polys / csma_calls if csma_calls else 0.0
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)
