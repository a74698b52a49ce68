"""Layer tracing from outside the program: wrappers around public functions.

`install` replaces every public module-level function of the five altperms
modules with a span-recording wrapper at every name another layer binds it
to (`altperms.decompose.count_occurrences`, `altperms.cli.count`,
`altperms.formulas.table1_oracle`, ...) and in the package namespace, which
the benchmark calls through.  Calls inside one layer (`formulas.convolution_*`
-> `catalan`) keep the plain function: they cannot change that layer's self
time, and the hot ones run millions of times per traced pass.  A few of them
are counted (COUNTED_WITHIN).  Generators are timed per resumption, so time
spent in their consumer is not charged to them.

Spans live in flat arrays until the run ends.  A span's self time is its busy
time minus the busy time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("perm_core", "enumeration", "formulas", "decompose", "cli")
HARNESS = "harness"
#: Functions whose integer result is the number of permutations they produced.
LEAF_COUNTS = {"enumeration.count", "enumeration.table1_oracle"}
#: Functions whose largest first argument is recorded.
MAX_ARG = {"formulas.catalan"}
#: Functions also counted when their own layer calls them.
COUNTED_WITHIN = {"decompose.split", "decompose.reconstruct", "formulas.catalan"}
#: Prefix of the stderr line on which a traced child process hands over its spans.
SPANS_MARK = b"\x1ebench-spans "

_clock = time.perf_counter


class Tracer:
    """Span store plus call counters; one per process."""

    def __init__(self) -> None:
        self.active = False
        self.request = -1
        self.layer = HARNESS
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.calls: list[int] = []
        self.max_arg: dict[str, int] = {}
        # span columns; `busy` is summed over resumptions for generators
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_request = array("i")
        self.s_caller = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_busy = array("d")
        self.s_child = array("d")
        self.s_items = array("q")
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._resumed: list[float] = []

    def name_id(self, name: str) -> int:
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self.name_index[name]

    def new_span(self, name_id: int) -> int:
        idx = len(self.s_name)
        self.s_name.append(name_id)
        self.s_parent.append(self._stack[-1] if self._stack else -1)
        self.s_request.append(self.request)
        self.s_caller.append(self.name_id(self.layer))
        self.s_start.append(0.0)
        self.s_end.append(0.0)
        self.s_busy.append(0.0)
        self.s_child.append(0.0)
        self.s_items.append(0)
        return idx

    def enter(self, idx: int, layer: str) -> None:
        now = _clock()
        if self.s_start[idx] == 0.0:
            self.s_start[idx] = now
        self._stack.append(idx)
        self._layers.append(self.layer)
        self._resumed.append(now)
        self.layer = layer

    def leave(self) -> None:
        now = _clock()
        idx = self._stack.pop()
        self.layer = self._layers.pop()
        spent = now - self._resumed.pop()
        self.s_end[idx] = now
        self.s_busy[idx] += spent
        if self._stack:
            self.s_child[self._stack[-1]] += spent

    def graft(self, parent: int, payload: dict) -> None:
        """Append spans and counters recorded by a child process under `parent`."""
        base = len(self.s_name)
        ids = [self.name_id(name) for name in payload["names"]]
        for name, count in zip(payload["names"], payload["calls"]):
            self.calls[self.name_id(name)] += count
        for name, value in payload["max_arg"].items():
            self.max_arg[name] = max(self.max_arg.get(name, value), value)
        for name_id, par, caller, start, end, busy, child, items in payload["spans"]:
            self.s_name.append(ids[name_id])
            self.s_parent.append(parent if par < 0 else base + par)
            self.s_request.append(self.request)
            self.s_caller.append(ids[caller])
            self.s_start.append(start)
            self.s_end.append(end)
            self.s_busy.append(busy)
            self.s_child.append(child)
            self.s_items.append(items)
            if par < 0:
                self.s_child[parent] += busy

    def export(self) -> dict:
        """Spans and counters as plain lists, for a child process to hand over."""
        spans = [
            list(row)
            for row in zip(self.s_name, self.s_parent, self.s_caller, self.s_start, self.s_end,
                           self.s_busy, self.s_child, self.s_items)
        ]
        return {"names": self.names, "calls": self.calls, "max_arg": self.max_arg, "spans": spans}

    def summary(self) -> dict:
        """Per-name span self time and span items, plus call counters."""
        self_s: dict[str, float] = {}
        items: dict[str, int] = {}
        spans: dict[str, int] = {}
        oracle_from_formulas = 0
        formulas_id = self.name_index.get("formulas", -1)
        for idx, name_id in enumerate(self.s_name):
            name = self.names[name_id]
            self_s[name] = self_s.get(name, 0.0) + self.s_busy[idx] - self.s_child[idx]
            items[name] = items.get(name, 0) + self.s_items[idx]
            spans[name] = spans.get(name, 0) + 1
            if name == "enumeration.table1_oracle" and self.s_caller[idx] == formulas_id:
                oracle_from_formulas += 1
        calls = {name: self.calls[i] for i, name in enumerate(self.names) if self.calls[i]}
        return {
            "self_s": self_s,
            "items": items,
            "spans": spans,
            "calls": calls,
            "max_arg": dict(self.max_arg),
            "oracle_from_formulas": oracle_from_formulas,
        }


def span_wrapper(tracer: Tracer, fn, layer: str, name: str):
    """`fn` recording a span per call from another layer (per generator, for
    generator functions, timed per resumption)."""
    name_id = tracer.name_id(name)
    leaf_count = name in LEAF_COUNTS
    max_arg = name in MAX_ARG

    if inspect.isgeneratorfunction(fn):

        def resumptions(gen, idx):
            try:
                while True:
                    tracer.enter(idx, layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.leave()
                    tracer.s_items[idx] += 1
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if not tracer.active or tracer.layer == layer:
                return fn(*args, **kwargs)
            tracer.calls[name_id] += 1
            return resumptions(fn(*args, **kwargs), tracer.new_span(name_id))

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active or tracer.layer == layer:
            return fn(*args, **kwargs)
        tracer.calls[name_id] += 1
        if max_arg and args[0] > tracer.max_arg.get(name, -1):
            tracer.max_arg[name] = args[0]
        idx = tracer.new_span(name_id)
        tracer.enter(idx, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if leaf_count:
            tracer.s_items[idx] = result
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, fn, name: str):
    """`fn` counted (and its largest first argument kept) but not timed."""
    name_id = tracer.name_id(name)
    max_arg = name in MAX_ARG

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.calls[name_id] += 1
            if max_arg and args[0] > tracer.max_arg.get(name, -1):
                tracer.max_arg[name] = args[0]
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Rebind the public functions of every layer wherever another layer, or
    the package namespace the benchmark calls through, refers to them."""
    import altperms

    modules = {layer: importlib.import_module(f"altperms.{layer}") for layer in LAYERS}
    originals = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                originals[id(value)] = (layer, f"{layer}.{attr}", value)
    for home, module in [*modules.items(), (HARNESS, altperms)]:
        for attr, value in list(vars(module).items()):
            if id(value) not in originals:
                continue
            layer, name, fn = originals[id(value)]
            if layer != home:
                setattr(module, attr, span_wrapper(tracer, fn, layer, name))
            elif name in COUNTED_WITHIN:
                setattr(module, attr, _count_wrapper(tracer, fn, name))
