"""In-memory span recorder and the call-site wrapping that feeds it.

A span is one call into a layer: name, start, end, parent span and run id,
plus a few counts taken from the call's arguments or result. Spans stay in
a list until the repetition ends. Self time is a span's duration minus the
part of it that its child spans cover.

`instrument` replaces a function at every binding callers look it up
through (the defining module, modules that imported the name, dispatch
dicts) and restores the originals on exit. The same wrapper also runs
correctness hooks on the function's result; hook time is kept apart so it
can be taken out of the measured time.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

CHECK_SPAN = "bench.check"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    run_id: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans for one run id; parent links follow the call stack."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.hook_wall = 0.0
        self.hook_cpu = 0.0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               run_id=self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def self_times(self) -> list[float]:
        """Duration minus the union of direct children's intervals."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            children.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.duration - covered)
        return out

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run_id": s.run_id, "attrs": s.attrs}
                for s in self.spans]


@dataclass
class Probe:
    """What to do around one function.

    name: span name, or a callable (args, kwargs) -> span name.
    attrs: callable (args, kwargs, result) -> dict of counts for the span.
    hook: callable (args, kwargs, result) -> None, a correctness check.
    """

    name: object
    attrs: object = None
    hook: object = None


def _wrap(fn, probe: Probe, rec: Recorder):
    trace = rec.enabled
    name_of = probe.name if callable(probe.name) else None

    def wrapper(*args, **kwargs):
        if trace:
            index = rec.open(name_of(args, kwargs) if name_of else probe.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = rec.close(index)
            if probe.attrs is not None:
                span.attrs.update(probe.attrs(args, kwargs, result))
        else:
            result = fn(*args, **kwargs)
        if probe.hook is not None:
            w0, c0 = time.perf_counter(), time.process_time()
            if trace:
                with rec.span(CHECK_SPAN):
                    probe.hook(args, kwargs, result)
            else:
                probe.hook(args, kwargs, result)
            rec.hook_wall += time.perf_counter() - w0
            rec.hook_cpu += time.process_time() - c0
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def instrument(rec: Recorder, bindings):
    """Wrap each binding for the duration of the block.

    bindings: iterable of (container, key, probe). A container is a module
    (the key is an attribute name) or a dict (the key is a dict key). When
    tracing is off, only bindings with a hook are wrapped.
    """
    originals = []
    wrapped_by_fn = {}
    try:
        for container, key, probe in bindings:
            if not rec.enabled and probe.hook is None:
                continue
            is_dict = isinstance(container, dict)
            fn = container[key] if is_dict else getattr(container, key)
            wrapper = wrapped_by_fn.get(id(fn))
            if wrapper is None:
                wrapper = wrapped_by_fn[id(fn)] = _wrap(fn, probe, rec)
            originals.append((container, key, fn, is_dict))
            if is_dict:
                container[key] = wrapper
            else:
                setattr(container, key, wrapper)
        yield rec
    finally:
        for container, key, fn, is_dict in reversed(originals):
            if is_dict:
                container[key] = fn
            else:
                setattr(container, key, fn)
