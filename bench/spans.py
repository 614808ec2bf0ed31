"""Span tracing attached from outside the program.

A `Tracer` wraps functions so that each call records a span: its duration,
the time its child spans covered, and whatever an observer extracts from the
result. Spans are aggregated in memory per name (calls, busy time, self time,
optional per-call durations and observer counts); nothing is written while
the program runs.

`instrument` attaches wrappers by function identity. A module-level function
is replaced under every name that refers to it in every loaded module of the
package, because callers look functions up through their own module globals
(`p2c` calls its own `feasible_servers`, `exact` its own `latency_reach`). A
method is replaced on its class. The originals are put back on exit, and a
function that no longer exists is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence


@dataclass
class SpanStats:
    calls: int = 0
    # wall time of outermost activations (recursive re-entries not added twice)
    busy_s: float = 0.0
    # wall time minus the time covered by child spans
    self_s: float = 0.0
    # per-call durations in seconds, kept only where a percentile is reported
    durations: list[float] | None = None
    # observer counts, e.g. candidates returned or paths found
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


Observer = Callable[[SpanStats, Any], None]


@dataclass(frozen=True)
class Span:
    """One layer boundary: `attr` names a function of `module`, or a method
    as `Class.method`. Untimed spans only count calls, for primitives whose
    microsecond bodies a timer would distort."""
    name: str
    module: str
    attr: str
    timed: bool = True
    durations: bool = False
    observe: Observer | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        # child time accumulated by each open span, innermost last
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}

    def stat(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def wrap(self, span: Span, fn: Callable) -> Callable:
        st = self.stat(span.name)
        observe = span.observe
        if not span.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                st.calls += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(st, result)
                return result
            return counted

        if span.durations and st.durations is None:
            st.durations = []
        name, clock, stack, depth = span.name, self.clock, self._stack, self._depth

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            depth[name] = depth.get(name, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                st.calls += 1
                st.self_s += elapsed - child[0]
                if depth[name] == 0:
                    st.busy_s += elapsed
                if st.durations is not None:
                    st.durations.append(elapsed)
            if observe is not None:
                observe(st, result)
            return result
        return timed


def _package_modules(package: str) -> list[Any]:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


def _resolve(span: Span) -> tuple[Any, str, Callable] | None:
    """(owner, attribute, original) for a method span, (None, attribute,
    original) for a module function, None when the function is absent."""
    try:
        module = importlib.import_module(span.module)
    except ImportError:
        return None
    owner_name, _, attr = span.attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        original = vars(owner).get(attr) if isinstance(owner, type) else None
    else:
        owner, original = None, getattr(module, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


@contextmanager
def instrument(tracer: Tracer, spans: Sequence[Span]) -> Iterator[list[str]]:
    """Attach `spans` for the duration of the block; yields the names of
    spans whose function does not exist."""
    patches: list[tuple[Any, str, Callable]] = []
    absent: list[str] = []
    try:
        for span in spans:
            found = _resolve(span)
            if found is None:
                absent.append(span.name)
                continue
            owner, attr, original = found
            wrapper = tracer.wrap(span, original)
            if owner is not None:
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            package = span.module.split(".")[0]
            for mod in _package_modules(package):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield absent
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
