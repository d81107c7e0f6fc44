"""Spans and counters around latgauge's layer functions, installed from
outside the package.

Every wrapper replaces the original function object wherever a latgauge
module holds it under a global name, so ``latgauge.cli.run_protocol``
and ``latgauge.fme.run_protocol`` both reach the same wrapper. Spans are
kept in memory as ``[name, start, end, parent, op]`` and written out
when the run ends; a span's self time is its duration minus the
durations of its direct children (spans nest, so children never
overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types
from collections import Counter

from layers import LAYERS


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0  # 0 while setting up, then 1, 2, ... per op
        self.cache_bytes_read = 0
        self.trace_bytes: int | None = None
        self.leapfrog_steps = 0
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, on_return=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name, self.op > 0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_load(self, args, kwargs, _table):
        if self.op > 0:
            self.cache_bytes_read += os.path.getsize(kwargs.get("path", args[0]))

    def _on_protocol(self, _args, _kwargs, trace):
        if self.trace_bytes is None and self.op > 0:
            self.trace_bytes = unique_array_bytes(trace)

    def _on_step(self, args, kwargs, _state):
        if self.op > 0:
            self.leapfrog_steps += kwargs.get("n_steps", args[3] if len(args) > 3 else 0)

    # -- install / remove ------------------------------------------------

    def install(self) -> None:
        hooks = {
            "spectral.load_kernels": self._on_load,
            "fme.run_protocol": self._on_protocol,
            "dynamics.step_leapfrog": self._on_step,
        }
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(layer["module"])
            for kind, names in (("span", layer["spans"]), ("count", layer["counts"])):
                for fn_name in names:
                    name = f"{layer['layer']}.{fn_name}"
                    original = getattr(module, fn_name, None)
                    if not callable(original):
                        raise LookupError(f"{name} does not exist; update perfbench/layers.py")
                    if kind == "span":
                        replacements[id(original)] = self._span(name, original, hooks.get(name))
                    else:
                        replacements[id(original)] = self._count(name, original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "latgauge" or mod_name.startswith("latgauge.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_n, start, end, _p, _o), c in zip(self.spans, child)]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def unique_array_bytes(root) -> int:
    """Bytes of the distinct ndarray buffers reachable from ``root``,
    following containers, instance dicts and slots; a view counts as
    its base array."""
    import numpy as np

    seen: set[int] = set()
    buffers: dict[int, int] = {}
    todo = [root]
    leaves = (str, bytes, int, float, complex, type, types.ModuleType,
              types.FunctionType, types.BuiltinFunctionType, np.generic, np.dtype)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or obj is None or isinstance(obj, leaves):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            buffers[id(base)] = base.nbytes
            seen.add(id(base))
            if obj.dtype == object:
                todo.extend(obj.ravel().tolist())
            continue
        if isinstance(obj, dict):
            todo.extend(obj.keys())
            todo.extend(obj.values())
            continue
        if isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
            continue
        todo.extend(getattr(obj, "__dict__", {}).values())
        for cls in type(obj).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                if isinstance(slot, str) and hasattr(obj, slot):
                    todo.append(getattr(obj, slot))
    return sum(buffers.values())


def layer_metrics(tracer: Tracer, n_ops: int, speed: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced op: calls and self seconds of each
    wrapped function, plus the derived cache, memory and step figures.
    Spans of the traced set-up feed only ``spectral.setup_self_s``.
    Times are multiplied by ``speed`` to give reference seconds."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    inclusive: Counter = Counter()
    setup_spectral = 0.0
    for (name, start, end, _parent, op), own in zip(tracer.spans, tracer.self_times()):
        if op > 0:
            calls[name] += 1
            self_s[name] += own * speed
            inclusive[name] += (end - start) * speed
        elif name.startswith("spectral."):
            setup_spectral += own * speed
    for (name, in_ops), count in tracer.counts.items():
        if in_ops:
            calls[name] += count

    per_op = 1.0 / max(n_ops, 1)
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        for fn_name in layer["spans"] + layer["counts"]:
            name = f"{layer['layer']}.{fn_name}"
            out[f"{name}.calls"] = (calls[name] * per_op, "count/op")
            if fn_name in layer["spans"]:
                self_name = layer.get("self_metric", {}).get(fn_name, f"{name}.self_s")
                out[self_name] = (self_s[name] * per_op, "s/op")

    lookups = calls["spectral.load_or_build_kernels"]
    hits = lookups - calls["spectral.build_kernels"]
    out["spectral.cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    out["spectral.cache_mb_read"] = (tracer.cache_bytes_read / 2**20 * per_op, "MiB/op")
    out["spectral.setup_self_s"] = (setup_spectral, "s")
    out["fme.trace_mb"] = ((tracer.trace_bytes or 0) / 2**20, "MiB")
    steps = tracer.leapfrog_steps
    out["dynamics.steps"] = (steps * per_op, "count/op")
    out["dynamics.us_per_step"] = (
        inclusive["dynamics.step_leapfrog"] / steps * 1e6 if steps else 0.0, "us")
    return out


def silent_layers(tracer: Tracer, workload: str) -> list[str]:
    """Layers that the table expects on ``workload`` but that recorded
    no call during the traced ops."""
    active = {name.split(".")[0] for name, *_rest, op in tracer.spans if op > 0}
    active |= {name.split(".")[0] for (name, in_ops), n in tracer.counts.items() if in_ops and n}
    return [layer["layer"] for layer in LAYERS
            if workload in layer["expect"] and layer["layer"] not in active]
