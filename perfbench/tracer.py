"""Span and call-count recorder installed from outside the package.

`Recorder.install()` replaces every public function of the layer modules
with a timing wrapper, under every name that binds it: the defining
module, each module that imported it with `from .x import f`, the package
namespace, and module-level dicts such as `cli.SUITE_FUNCS`.  Calls made
inside the package therefore go through the wrappers too.  `uninstall()`
puts the originals back, so untraced operations run the unmodified code.

Each call becomes one span: function, start, end, parent span and, where
tracemalloc runs, the peak traced bytes above the span's starting level.
Spans stay in memory; `summary()` and `sidecar()` turn them into
per-function and per-module figures when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc

LAYERS = (
    "clifford",
    "bilinears",
    "polar",
    "connections",
    "dynamics",
    "fields",
    "trajectories",
    "cli",
)
PACKAGE = "polardirac"
# tracemalloc runs only inside spans of these (the array-heavy code whose
# peaks are reported): it slows pure-Python code several-fold, e.g. one
# single-point interp_values call from 0.29 to 2.4 ms, which would swamp
# the self times of the flow-line layers
MEMORY_LAYERS = ("connections", "dynamics")
MEMORY_FUNCTIONS = ("fields.grid_gradient",)
MB = 1024.0 * 1024.0


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


class Recorder:
    """Spans of the calls into the layer modules, grouped by operation."""

    def __init__(self):
        self.names: list[str] = []  # function id -> "<layer>.<function>"
        self.spans: list[tuple] = []  # (op, fid, start, end, parent, peak)
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._patches: list[tuple] = []
        # [span index, traced bytes at entry or None, highest bytes seen]
        self._stack: list[list] = []
        self._op = -1
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in _public_functions(module):
                fid = len(self.names)
                self.names.append(f"{layer}.{name}")
                self._wrappers[id(fn)] = self._wrap(fid, fn)

    def _wrap(self, fid, fn):
        rec = self
        watch = self.names[fid].split(".")[0] in MEMORY_LAYERS or (
            self.names[fid] in MEMORY_FUNCTIONS
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack
            owner = watch and not tracemalloc.is_tracing()
            if owner:
                tracemalloc.start()
            frame = [len(rec.spans), None, 0]
            if tracemalloc.is_tracing():
                cur, peak = tracemalloc.get_traced_memory()
                if stack and stack[-1][1] is not None:
                    stack[-1][2] = max(stack[-1][2], peak)
                tracemalloc.reset_peak()
                frame[1:] = [cur, cur]
            parent = stack[-1][0] if stack else -1
            rec.spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                peak = None
                if frame[1] is not None:
                    seen = max(frame[2], tracemalloc.get_traced_memory()[1])
                    if stack and stack[-1][1] is not None:
                        stack[-1][2] = max(stack[-1][2], seen)
                    tracemalloc.reset_peak()
                    peak = seen - frame[1]
                if owner:
                    tracemalloc.stop()
                rec.spans[frame[0]] = (rec._op, fid, start, end, parent, peak)

        return traced

    def install(self, op: int) -> None:
        """Patch every binding of every target; spans get operation `op`."""
        self._op = op
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, name, value, None))
                    setattr(module, name, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        wrapper = self._wrappers.get(id(item))
                        if wrapper is not None:
                            self._patches.append((module, name, item, key))
                            value[key] = wrapper

    def uninstall(self) -> None:
        for module, name, original, key in reversed(self._patches):
            if key is None:
                setattr(module, name, original)
            else:
                getattr(module, name)[key] = original
        self._patches.clear()

    def op_totals(self, op: int) -> dict:
        """{function: [calls, self seconds, peak bytes]} for one operation."""
        child = {}
        for op_i, _, start, end, parent, _ in self.spans:
            if op_i == op and parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {}
        for idx, (op_i, fid, start, end, _, peak) in enumerate(self.spans):
            if op_i != op:
                continue
            row = out.setdefault(self.names[fid], [0, 0.0, 0])
            row[0] += 1
            row[1] += (end - start) - child.get(idx, 0.0)
            if peak is not None:
                row[2] = max(row[2], peak)
        return out

    def summary(self, ops: list[int]) -> dict:
        """Per function and per layer: calls and self time per operation
        (median over the traced operations) and the largest span peak."""
        per_op = [self.op_totals(op) for op in ops]
        zero = [0, 0.0, 0]

        def stats(rows):
            return {
                "calls": statistics.median(r[0] for r in rows),
                "self_s": statistics.median(r[1] for r in rows),
                "peak_mb": max(r[2] for r in rows) / MB,
            }

        functions = {
            name: stats([t.get(name, zero) for t in per_op])
            for name in self.names
        }
        modules = {}
        for layer in LAYERS:
            mine = [n for n in self.names if n.startswith(layer + ".")]
            modules[layer] = stats([
                [sum(t.get(n, zero)[0] for n in mine),
                 sum(t.get(n, zero)[1] for n in mine),
                 max(t.get(n, zero)[2] for n in mine)]
                for t in per_op
            ])
        return {"functions": functions, "modules": modules}

    def sidecar(self, ops: list[int]) -> dict:
        """Summary plus every recorded span, as compact rows."""
        doc = self.summary(ops)
        doc["traced_ops"] = len(ops)
        doc["span_columns"] = [
            "op", "function", "start_s", "end_s", "parent", "peak_bytes"
        ]
        doc["function_names"] = self.names
        doc["spans"] = [list(s) for s in self.spans]
        return doc
