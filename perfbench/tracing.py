"""In-memory spans around fpplab's public calls, installed from outside.

``Tracer.install`` wraps every public module-level function of the layer
modules and the methods named in ``layers.METHODS``.  A function is rebound
everywhere a caller can reach it: its own module attribute and every copy a
``from fpplab.x import f`` made in another fpplab module.  Each call records
one span (id, parent id, name, start, end, job, outermost flag, work) in a
list; nothing is written until ``dump``.  ``uninstall`` restores every
binding, so untraced passes in the same process run the original code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

from layers import METHODS, MODULES, SPANS, WORK


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, depth, ids = self.spans, self._stack, self._depth, self._ids
        count = WORK.get(name)
        sig = inspect.signature(fn) if count else None
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            outermost = depth[name] == 0
            stack.append(sid)
            depth[name] += 1
            work = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    work = count(bound.arguments, result)
                return result
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                spans.append((sid, parent, name, start, end, tracer.job, outermost, work))

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped = {}
        for layer in MODULES:
            mod = importlib.import_module(f"fpplab.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
            for spec in METHODS.get(layer, ()):
                cls_name, meth = spec.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(f"{layer}.{spec}", cls.__dict__[meth]))
        for name, mod in list(sys.modules.items()):
            if name != "fpplab" and not name.startswith("fpplab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, job, _, work in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "start": start,
                       "end": end, "job": job}
                if work is not None:
                    rec["work"] = work
                fh.write(json.dumps(rec) + "\n")


def summarize(spans) -> dict[str, float]:
    """Per-layer metric values (see ``layers.SPANS``) from one pass's spans."""
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    work: Counter = Counter()
    in_children: defaultdict = defaultdict(float)
    for sid, parent, name, start, end, _, outermost, w in spans:
        if parent is not None:
            in_children[parent] += end - start
    for sid, parent, name, start, end, _, outermost, w in spans:
        calls[name] += 1
        if outermost:
            busy[name] += end - start
        own[name] += end - start - in_children[sid]
        if w is not None:
            work[name] += w

    out: dict[str, float] = {}
    for name, quantities in SPANS.items():
        b = busy[name]
        for q in quantities:
            if q == "calls":
                v = calls[name]
            elif q == "busy_s":
                v = b
            elif q == "self_s":
                v = own[name]
            elif q == "mean_us":
                v = 1e6 * b / calls[name] if calls[name] else 0.0
            elif q == "configs":
                v = work[name]
            else:  # configs_per_s, fields_per_s
                v = work[name] / b if b > 0 else 0.0
            out[f"{name}.{q}"] = v
    for layer in MODULES:
        out[f"{layer}.self_s"] = sum(v for name, v in own.items()
                                     if name.split(".", 1)[0] == layer)
    return out
