"""Outside-in tracing of the truemper layers.

The installer rebinds public library functions to timing wrappers in
every ``truemper`` module that binds them, so calls made between modules
(and the module-global lookups a module makes into itself) go through the
wrapper while no file of the library changes.

Two kinds of target:

* span targets record one span per call: name, start, end, parent span
  and operation id.  Spans stay in memory until ``write_spans``.
* counter targets are hot primitives (tens of thousands of calls per
  operation); they only feed the aggregate counters.

Both kinds feed the aggregates: calls, self time (duration minus the time
covered by wrapped callees), total time of the outermost activation, and
the number of calls that returned something other than ``None``.
Wrappers record nothing outside ``operation`` blocks, so input generation
and correctness checks stay out of the figures.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# Span targets, as "<defining module>.<function>", rebound in every module.
SPAN_TARGETS = (
    "graph.parse_edge_list",
    "recognize.recognize_only_prism",
    "recognize.recognize_only_pyramid",
    "recognize.recognize_universally_signable",
    "cutset.clique_decomposition_tree",
    "cutset.find_clique_cutset",
    "cutset.blocks_of_clique_split",
    "twojoin.two_join_decomposition_tree",
    "twojoin.find_2join",
    "twojoin.is_consistent",
    "twojoin.blocks_of_2join",
    "basic.classify_basic",
    "basic.is_lg_tf_chordless",
    "basic.is_pyramid_basic",
    "oracle.scan_configs",
    "oracle.contains_config",
)

# Hot primitives: (metric name, defining target, binding module or None for
# every module).
# cutset.components_masks counts only the calls made from cutset, which is
# about the number of cliques the cutset search enumerates.
COUNTER_TARGETS = (
    ("graph.induced_subgraph", "graph.induced_subgraph", None),
    ("twojoin.validate_split", "twojoin.validate_split", None),
    ("cutset.components_masks", "graph.components_masks", "truemper.cutset"),
)


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "hits", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.hits = 0
        self.active = 0


class Tracer:
    """Spans and aggregate counters for the wrapped library functions."""

    def __init__(self) -> None:
        self.op_id: int | None = None
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []  # [start, child_s, span index]
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def _enter(self, keep_span: bool) -> list:
        index = -1
        if keep_span:
            index = len(self.spans)
            self.spans.append(None)  # filled in on exit
        frame = [perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, stat: Stat, frame: list, result: object) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        start, child_s, index = frame
        duration = end - start
        stat.calls += 1
        stat.self_s += duration - child_s
        if stat.active == 0:
            stat.total_s += duration
        if result is not None:
            stat.hits += 1
        parent = -1
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][2]
        if index >= 0:
            self.spans[index] = (name, start, end, parent, self.op_id)

    def wrap(self, name: str, fn, keep_span: bool):
        tracer = self
        stat = self._stat(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            frame = tracer._enter(keep_span)
            stat.active += 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stat.active -= 1
                tracer._exit(name, stat, frame, result)

        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation."""
        self.op_id = op_id
        self._stack.clear()
        frame = self._enter(True)
        try:
            yield
        finally:
            self._exit("op", self._stat("op"), frame, None)
            self.op_id = None

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark's own code (inside an operation)."""
        frame = self._enter(True)
        try:
            yield
        finally:
            self._exit(name, self._stat(name), frame, None)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Rebind every target in every loaded truemper module."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "truemper"
                                           or name.startswith("truemper."))}
        plan = [(target, target, None, True) for target in SPAN_TARGETS]
        plan += [(name, target, binding, False)
                 for name, target, binding in COUNTER_TARGETS]
        for metric, target, binding, keep_span in plan:
            mod_name, func_name = target.split(".")
            original = getattr(modules[f"truemper.{mod_name}"], func_name)
            wrapper = self.wrap(metric, original, keep_span)
            before = len(self._installed)
            for name, mod in modules.items():
                if binding is not None and name != binding:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))
            if len(self._installed) == before:
                # e.g. a refactor stopped binding the primitive there
                raise RuntimeError(f"{target} is not bound in {binding}")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # -- output ----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One JSON object per line; "parent" is the line index of the
        enclosing span, -1 for an operation's root span."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
