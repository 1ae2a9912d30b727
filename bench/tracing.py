"""Span tracing at the boundaries between ``fareyulfp`` modules.

``Tracer.instrument`` wraps each public function of the package where
another module calls into it: every name a module imports from a sibling
module is rebound to a wrapper labelled with the defining module, e.g.
``projections.geodesics`` becomes a ``farey.geodesics`` span.  Each
module's own attributes are wrapped too, because ``cli`` enters several
modules through them (``projections.ulfp_witness``), so calls between the
public functions of one module are spans as well (``check_P_all`` ->
``check_P``).  ``farey`` is the exception: it is the kernel, imported by
name only, and its internal calls (each ``Geodesic`` re-checks its length
with ``distance``) stay in the caller's self time.

Spans live in memory: per-layer totals for every call, and the span
records themselves up to ``SPAN_CAP``, written out as JSON lines at exit.
A span's self time is its duration minus the time covered by its child
spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import pkgutil
import time
from pathlib import Path

SPAN_CAP = 100_000
KERNEL_MODULES = ("farey",)  # wrapped only where other modules import them


def _digits(value: int) -> int:
    value = abs(value)
    digits = max(1, int(value.bit_length() * math.log10(2)))
    while 10**digits <= value:
        digits += 1
    while digits > 1 and 10 ** (digits - 1) > value:
        digits -= 1
    return digits


# Counts recorded from a layer's return value, keyed by span name.
COUNTERS = {
    "farey.geodesics": lambda r: {"paths": len(r)},
    "projections.candidate_subsurfaces": lambda r: {"subsurfaces": len(r)},
    "projections.check_P_all": lambda r: {"checked_subsurfaces": r.checked_subsurfaces},
    "projections.ulfp_witness": lambda r: {"witnesses": int(r.witness is not None)},
    "projections.bgit_audit": lambda r: {"pairs_audited": r.pairs_audited},
    "slices.verify_slice_bounds": lambda r: {"members": len(r.members)},
    "bounds.n_bound": lambda r: {"exact_digits": _digits(r.exact) if r.exact is not None else 0},
}


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, duration, self, counts]
        self.spans: list[list] = []  # [name, parent, op, start, end]
        self.dropped = 0
        self._stack: list[list] = []  # open spans: [span index, child time]
        self.op = -1

    def wrap(self, name: str, fn):
        """Return fn recording a span named ``name`` around each call."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0, {}])
        stack = self._stack
        spans = self.spans
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if len(spans) < SPAN_CAP:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                self.dropped += 1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if index >= 0:
                    spans[index] = [name, parent, self.op, start, end]
            if counter is not None:
                counts = totals[3]
                for key, value in counter(result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        traced.__traced__ = fn
        return traced

    def instrument(self, package) -> None:
        """Wrap the public functions of every module of ``package``."""
        prefix = package.__name__ + "."
        modules = {name[len(prefix):]: module for name, module in _submodules(package)}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                origin = getattr(obj, "__module__", "") or ""
                if not origin.startswith(prefix):
                    continue
                owner = origin[len(prefix):]
                if owner == short and owner in KERNEL_MODULES:
                    continue
                setattr(module, attr, self.wrap(f"{owner}.{attr}", obj))
        graph = modules["graphcore"].FiniteGraph
        parse = graph.parse.__func__
        graph.parse = classmethod(self.wrap("graphcore.parse", parse))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for record in self.spans:
                if record is not None:
                    name, parent, op, start, end = record
                    fh.write(json.dumps({"name": name, "parent": parent, "op": op,
                                         "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"dropped": self.dropped}) + "\n")


def _submodules(package):
    prefix = package.__name__ + "."
    return [
        (prefix + info.name, importlib.import_module(prefix + info.name))
        for info in pkgutil.iter_modules(package.__path__)
    ]
