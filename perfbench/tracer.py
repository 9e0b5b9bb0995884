"""Spans around waringcert's public callables, installed from outside the package.

``Tracer.install`` rebinds every callable named in ``waringcert.__all__``
(functions and ``lru_cache`` objects directly, classes through their
``__init__``), plus ``Matrix.rank``, ``PointSet.from_rows``,
``cli.parse_point_file`` and ``cli.run``, at every module attribute of the
package that binds the original object, so calls between modules are seen
as well as the benchmark's own calls.  A name that no longer exists is
skipped.  A span's layer is the module that defines the callable.

Spans (name, start, end, parent, op id) are kept in memory in flat arrays
and written out by ``dump``.  Self time is a span's duration minus the
durations of its child spans.

Attribution caveats:

* code that calls a private helper directly is charged to the caller's
  layer; ``kruskal`` calls ``linalg._bareiss_rank`` for its subset sweeps,
  so that elimination time counts as ``kruskal.self_s``, not ``linalg``;
* the wrappers sit outside the library's ``lru_cache``s, so ``*.calls``
  counts requests, cache hits included.
"""

from __future__ import annotations

import enum
import json
import sys
import time
from array import array

LAYERS = ("geometry", "linalg", "hilbert", "kruskal", "terracini", "certify", "cli")

# Extra callables that are not in __all__: (module, owner class or None, attribute).
EXTRA = (
    ("waringcert.linalg", "Matrix", "rank"),
    ("waringcert.geometry", "PointSet", "from_rows"),
    ("waringcert.cli", None, "parse_point_file"),
    ("waringcert.cli", None, "run"),
)

# Spans whose inclusive time is reported on its own: metric name -> span name.
INCLUSIVE = {
    "hilbert.profile_s": "hilbert.hilbert_profile",
    "kruskal.veronese_rank_s": "kruskal.veronese_kruskal_rank",
    "terracini.dimension_s": "terracini.terracini_dimension",
    "geometry.collinear_s": "geometry.max_collinear_subset_size",
    "cli.import_s": "cli.import",
}
COUNTED = {
    "linalg.rank_calls": "linalg.Matrix.rank",
    "hilbert.function_calls": "hilbert.hilbert_function",
    "kruskal.veronese_rank_calls": "kruskal.veronese_kruskal_rank",
    "terracini.dimension_calls": "terracini.terracini_dimension",
    "geometry.veronese_embed_calls": "geometry.veronese_embed",
    "certify.generic_sweep_steps": "terracini.generic_terracini_dimension",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.cells = 0
        self.max_cells = 0

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span timed by the caller."""
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack, names, parents, ops = self._stack, self.name, self.parent, self.op
        starts, ends, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_rank(self, fn):
        traced = self.wrap("linalg.Matrix.rank", fn)

        def rank(matrix):
            cells = matrix.rows * matrix.cols
            self.cells += cells
            if cells > self.max_cells:
                self.max_cells = cells
            return traced(matrix)

        return rank

    def install(self) -> None:
        """Wrap the package's public callables wherever the package binds them."""
        import waringcert
        modules = [m for key, m in sys.modules.items()
                   if key == "waringcert" or key.startswith("waringcert.")]
        replace: dict[int, object] = {}
        for attr in waringcert.__all__:
            obj = getattr(waringcert, attr, None)
            layer = getattr(obj, "__module__", "").rpartition(".")[2]
            if not callable(obj) or layer not in LAYERS:
                continue
            name = f"{layer}.{attr}"
            if not isinstance(obj, type):
                replace[id(obj)] = self.wrap(name, obj)
            elif not isinstance(obj, enum.EnumMeta) and "__init__" in vars(obj):
                obj.__init__ = self.wrap(name, vars(obj)["__init__"])
        for module_name, owner, attr in EXTRA:
            module = sys.modules.get(module_name)
            target = getattr(module, owner, None) if owner else module
            raw = vars(target).get(attr) if target is not None else None
            if raw is None:
                continue
            layer = module_name.rpartition(".")[2]
            name = f"{layer}.{owner}.{attr}" if owner else f"{layer}.{attr}"
            if isinstance(raw, classmethod):
                setattr(target, attr, classmethod(self.wrap(name, raw.__func__)))
            elif owner == "Matrix" and attr == "rank":
                setattr(target, attr, self._wrap_rank(raw))
            elif owner:
                setattr(target, attr, self.wrap(name, raw))
            else:
                replace[id(raw)] = self.wrap(name, raw)
        for module in modules:
            for key, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(module, key, wrapper)

    def summary(self) -> dict:
        """Per-layer self time, call counts and the named inclusive times."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [name.partition(".")[0] for name in self.names]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        per_name = [0] * len(self.names)
        top_level = 0.0
        for i in range(n):
            nid = self.name[i]
            layer = layer_of[nid]
            out[f"{layer}.self_s"] += dur[i] - child[i]
            out[f"{layer}.calls"] += 1
            per_name[nid] += 1
            if self.parent[i] < 0:
                top_level += dur[i]
        ids = self._name_ids
        for metric, span in INCLUSIVE.items():
            nid = ids.get(span)
            total = 0.0
            for i in range(n):
                if self.name[i] != nid:
                    continue
                p = self.parent[i]
                while p >= 0 and self.name[p] != nid:
                    p = self.parent[p]
                if p < 0:
                    total += dur[i]
            out[metric] = total
        for metric, span in COUNTED.items():
            nid = ids.get(span)
            out[metric] = per_name[nid] if nid is not None else 0
        out["linalg.cells"] = self.cells
        out["linalg.max_cells"] = self.max_cells
        out["trace.top_level_s"] = top_level
        out["trace.spans"] = n
        return out

    def dump(self, path: str) -> dict:
        """Write the summary and every span, as [name, start, end, parent, op]
        rows, to a JSON file; returns the summary."""
        summary = self.summary()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "summary": summary,
                "names": self.names,
                "columns": ["name", "start", "end", "parent", "op"],
                "spans": [[self.name[i], round(self.start[i], 7), round(self.end[i], 7),
                           self.parent[i], self.op[i]] for i in range(len(self.name))],
            }, handle, separators=(",", ":"))
        return summary


def merge(summaries: list[dict]) -> dict:
    """Combine the summaries of several traced processes."""
    out: dict[str, float] = {}
    for summary in summaries:
        for key, value in summary.items():
            if key == "linalg.max_cells":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out
