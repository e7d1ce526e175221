"""Span tracer that wraps the public functions of the qsteiner modules.

The tracer lives entirely in the benchmark: it patches module globals
from the outside and puts every original back on ``uninstall``.  A
public function is a callable whose name does not start with ``_``,
that is not a class, and whose ``__module__`` is the module that
defines it.  The wrapper replaces the function in the defining module
and in every other ``qsteiner`` module that imported it by name, so
calls through ``from .counting import gaussian`` are seen too.

Each call is one span: name, start, end, busy time, self time, parent
span and benchmark operation id.  A generator function's span covers
its whole consumption: busy time is the sum of the intervals spent
inside the generator between resumptions, and the consumer is charged
only for the time outside it.  Self time is busy time minus the busy
time of direct child spans, accumulated as spans close.

Spans are kept in typed arrays and written out by ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

# Spans kept one by one (46 bytes each); later ones only add to the totals.
MAX_SPANS = 1_000_000
SPAN_COLUMNS = (("seq", "i"), ("parent", "i"), ("name", "H"), ("op", "i"),
                ("start", "d"), ("end", "d"), ("busy", "d"), ("self", "d"))


def qsteiner_modules() -> list:
    """Every imported ``qsteiner`` module, package first."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qsteiner" or name.startswith("qsteiner."))]


def public_functions(module) -> dict:
    """Public functions defined in ``module``, by attribute name."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__}


class FunctionStats:
    __slots__ = ("calls", "yields", "busy", "self")

    def __init__(self) -> None:
        self.calls = self.yields = 0
        self.busy = self.self = 0.0


class Tracer:
    """Records spans for the wrapped functions while installed.

    ``op`` is set by the caller to the id of the benchmark operation in
    progress; every span records it.
    """

    def __init__(self, layers: tuple) -> None:
        self.layers = layers              # short module names, e.g. "subspaces"
        self.names: list = []             # name id -> "module.function"
        self.stats: dict = {}             # "module.function" -> FunctionStats
        self.layer_errors = {layer: 0 for layer in layers}
        self.spans = {col: array(code) for col, code in SPAN_COLUMNS}
        self.stored = 0                   # spans kept in self.spans
        self.spans_dropped = 0
        self._appends = tuple(self.spans[col].append for col, _ in SPAN_COLUMNS)
        self.op = 0
        self._stack: list = []            # open frames: [child busy time, seq, layer]
        self._seq = 0
        self._patches: list = []          # (module, attribute, original)
        self._result_hooks: dict = {}     # "module.function" -> hook

    # -- installation -----------------------------------------------------

    def on_result(self, name: str, hook) -> None:
        """Call ``hook(args, kwargs, result)`` after each successful call of
        ``name``; used for counters that need a function's arguments or
        result, such as equations checked per verify."""
        self._result_hooks[name] = hook

    def install(self) -> None:
        modules = qsteiner_modules()
        wrappers: dict = {}               # id(original) -> (original, wrapper)
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in self.layers:
                continue
            for attr, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", layer, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- span bookkeeping -------------------------------------------------

    def _record(self, nid: int, stats: FunctionStats, frame: list, parent,
                start: float, end: float, busy: float, failed: bool) -> None:
        self_time = busy - frame[0]
        stats.busy += busy
        stats.self += self_time
        # count an exception once per layer it leaves
        if failed and (parent is None or parent[2] != frame[2]):
            self.layer_errors[frame[2]] += 1
        if self.stored == MAX_SPANS:
            self.spans_dropped += 1
            return
        self.stored += 1
        seq, par, name, op, t0, t1, bsy, slf = self._appends
        seq(frame[1])
        par(parent[1] if parent else 0)
        name(nid)
        op(self.op)
        t0(start)
        t1(end)
        bsy(busy)
        slf(self_time)

    def _register(self, name: str) -> tuple:
        self.names.append(name)
        stats = self.stats[name] = FunctionStats()
        return len(self.names) - 1, stats

    def _wrap(self, name: str, layer: str, fn):
        nid, stats = self._register(name)
        hook = self._result_hooks.get(name)
        stack = self._stack

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                stats.calls += 1
                return self._consume(nid, stats, layer, fn(*args, **kwargs))
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats.calls += 1
            self._seq += 1
            frame = [0.0, self._seq, layer]
            stack.append(frame)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += end - start
                self._record(nid, stats, frame, parent, start, end, end - start, failed)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    def _consume(self, nid: int, stats: FunctionStats, layer: str, gen):
        """Re-yield ``gen``, charging it only for the time spent inside it.

        Each resumption pushes the generator's frame, so spans opened
        while it runs become its children, and credits the interval to
        the frame that resumed it.
        """
        stack = self._stack
        self._seq += 1
        frame = [0.0, self._seq, layer]
        parent = None
        busy = 0.0
        first = None
        failed = False
        try:
            while True:
                if first is None:
                    parent = stack[-1] if stack else None
                    first = perf_counter()
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException:
                    failed = True
                    raise
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    busy += dt
                    if stack:
                        stack[-1][0] += dt
                stats.yields += 1
                yield item
        finally:
            gen.close()
            if first is not None:
                self._record(nid, stats, frame, parent, first, perf_counter(),
                             busy, failed)

    # -- output -----------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(s.self for name, s in self.stats.items()
                   if name.partition(".")[0] == layer)

    def write(self, stem: str) -> None:
        """Write the spans as ``stem.spans`` (one array per column, in
        SPAN_COLUMNS order) and ``stem.json`` describing them."""
        with open(stem + ".spans", "wb") as fh:
            for col, _ in SPAN_COLUMNS:
                self.spans[col].tofile(fh)
        index = {
            "columns": [[col, code, array(code).itemsize] for col, code in SPAN_COLUMNS],
            "count": self.stored,
            "dropped": self.spans_dropped,
            "names": self.names,
            "note": "seq/parent ids start at 1; parent 0 is a root span; "
                    "times are perf_counter seconds",
        }
        with open(stem + ".json", "w", encoding="ascii") as fh:
            json.dump(index, fh, indent=1)
