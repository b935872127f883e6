"""Spans recorded from outside the library.

A span is (id, parent id, name, start, end, instance id). The benchmark opens
spans around the public entry points it calls, and `Tracer.patched()` opens
them around cross-module calls inside protomerge by rebinding, for the length
of a traced pass, the names a module imported from another protomerge
module. Calls a module makes to its own functions are never wrapped.

A span's self time is its duration minus the time its child spans cover,
including the tracer's own bookkeeping for those children, so the
bookkeeping lands in no layer's self time.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# module -> imported name -> span name. Every name here is imported by the
# module from another protomerge module.
REBOUND = {
    "protomerge.merge": {
        "entails": "logic.entails",
        "dtype_equiv": "logic.dtype_equiv",
        "merged_context": "logic.context",
        "singleton_env": "logic.context",
        # Called once per merge_types call; counts pairwise merges.
        "domain_of": "logic.context",
        "compact_protocol": "syntax.render",
        "print_proposition": "syntax.render",
        "print_datatype": "syntax.render",
    },
    "protomerge.oracle": {
        "dtype_equiv": "logic.dtype_equiv",
        "unfold_foreach": "merge.unfold",
    },
}


def untraced(name, fn, *args, **kwargs):
    """Same signature as Tracer.run, without a span."""
    return fn(*args, **kwargs)


class Tracer:
    """Collects spans and per-name totals for one pass at a time."""

    def __init__(self):
        self.instance = ""
        self.keep = False
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 1
        self.reset()

    def reset(self) -> None:
        # name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        # (instance id, name) -> total seconds
        self.by_instance: dict[tuple[str, str], float] = {}
        self.bookkeeping_s = 0.0
        self._asked: set = set()

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def run(self, name, fn, *args, **kwargs):
        return self._span(name, None, fn, args, kwargs)

    def _span(self, name, note, fn, args, kwargs):
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0.0]
        if name == "merge":
            self._asked = set()
        stack.append(frame)
        start = perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = perf_counter()
            stack.pop()
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += end - start
            total[2] += end - start - frame[1]
            key = (self.instance, name)
            self.by_instance[key] = self.by_instance.get(key, 0.0) + end - start
            if ok and note is not None:
                note(self, args, result)
            if self.keep:
                parent = stack[-1][0] if stack else 0
                self.spans.append((span_id, parent, name, start, end, self.instance))
            done = perf_counter()
            self.bookkeeping_s += done - end
            if stack:
                stack[-1][1] += done - start
        return result

    def wrap(self, name, fn, note=None):
        def traced(*args, **kwargs):
            return self._span(name, note, fn, args, kwargs)

        return traced

    @contextmanager
    def patched(self):
        """Rebind REBOUND's names to span-recording wrappers, then restore."""
        saved = []
        try:
            for module_name, names in REBOUND.items():
                module = importlib.import_module(module_name)
                for attr, span in names.items():
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(span, original, _NOTES.get(attr)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,name,start_s,end_s,instance\n")
            for span_id, parent, name, start, end, instance in self.spans:
                out.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f},{instance}\n")


def _note_entails(tracer: Tracer, args, verdict) -> None:
    tracer.count("logic.entails." + verdict.value.lower())
    key = (args[0], args[1])
    if key in tracer._asked:
        tracer.count("logic.entails.repeats")
    else:
        tracer._asked.add(key)


def _note_render(tracer: Tracer, args, text) -> None:
    tracer.count("syntax.render_chars", len(text))


def _note_domain(tracer: Tracer, args, result) -> None:
    tracer.count("merge.calls")


def _note_merged_context(tracer: Tracer, args, result) -> None:
    tracer.count("merge.ranks")


_NOTES = {
    "entails": _note_entails,
    "compact_protocol": _note_render,
    "print_proposition": _note_render,
    "print_datatype": _note_render,
    "domain_of": _note_domain,
    "merged_context": _note_merged_context,
}
