"""Span tracer for the benchmark's traced run.

The tracer replaces public slnkit functions by wrappers that record one
span per call: name, start, end, parent span and op id.  It rebinds every
module attribute that holds the function, not only the defining one, so a
call through a name the caller imported (checker's decide_sentence,
verify's check) is attributed too.  Spans stay in memory; layer totals and
the optional JSON-lines dump are computed when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

ROOT_SPAN = "bench.op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, observers: dict | None = None) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.observers = observers or {}
        self.op = -1

    # -- recording

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrapper(self, name: str, fn):
        observe = self.observers.get(name)

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if observe is not None:
                observe(self.spans[idx].info, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installing

    def install(self, targets: dict[str, object], package: str) -> None:
        """Rebind each target function wherever a loaded module of the
        package holds it.  targets maps span names to function objects."""
        wrapped = {id(fn): (fn, self.wrapper(name, fn)) for name, fn in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, entry[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- analysis

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def outermost(self, prefix: str) -> list[Span]:
        """Spans of a layer that have no ancestor in the same layer."""
        picked = []
        inside: list[bool] = []
        for s in self.spans:
            mine = s.name.startswith(prefix)
            ancestor = s.parent >= 0 and (inside[s.parent] or
                                          self.spans[s.parent].name.startswith(prefix))
            inside.append(ancestor)
            if mine and not ancestor:
                picked.append(s)
        return picked

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                      "parent": s.parent, "op": s.op, **s.info},
                                     default=lambda o: f"{type(o).__name__}@{id(o):x}") + "\n")
