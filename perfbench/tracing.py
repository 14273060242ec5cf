"""Outside-in span recorder for the benchmark's traced run.

The program is not instrumented for this: the recorder replaces public
functions of each layer (``repro.<layer>``) with timing wrappers while a
traced unit of work runs, and restores the originals afterwards.  Each
span records its name, layer, start, end, parent span and request id.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import itertools
import json
import time
from dataclasses import dataclass

_CURRENT_SPAN: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_REQUEST: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_request", default=None
)


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    request: int | None
    detail: object = None


class request_scope:
    """Tag every span opened inside the ``with`` body with ``request_id``.

    The tag rides the :mod:`contextvars` context, so pool threads started
    through ``repro.concurrency`` inherit it.
    """

    def __init__(self, request_id: int):
        self._request_id = request_id
        self._token = None

    def __enter__(self):
        self._token = _REQUEST.set(self._request_id)
        return self

    def __exit__(self, *exc):
        _REQUEST.reset(self._token)


class SpanRecorder:
    """Wraps ``(owner, attribute)`` pairs with span-recording timers.

    ``targets`` is a list of ``(owner, attribute, span_name, detail)``:
    ``owner`` is a class (the wrapper replaces the method for every
    instance) or a module (the wrapper replaces a module-level name other
    code looks up at call time); ``detail`` is ``None`` or a function of
    the call's positional arguments whose value the span keeps.  The
    layer of a span is the package under ``repro`` that defines the
    wrapped function.
    """

    def __init__(self, targets):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._originals = []
        for owner, attribute, name, detail in targets:
            original = owner.__dict__[attribute]
            wrapper = self._wrap(original, name, detail)
            self._originals.append((owner, attribute, original, wrapper))
        self.installed = False

    def _wrap(self, original, name: str, detail):
        module = getattr(original, "__module__", "") or ""
        layer = module.split(".")[1] if module.startswith("repro.") else "bench"
        spans, ids = self.spans, self._ids

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = _CURRENT_SPAN.get()
            token = _CURRENT_SPAN.set(span_id)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT_SPAN.reset(token)
                spans.append(
                    Span(
                        span_id,
                        name,
                        layer,
                        start,
                        end,
                        parent,
                        _REQUEST.get(),
                        detail(args) if detail is not None else None,
                    )
                )

        return wrapper

    def install(self) -> None:
        if not self.installed:
            for owner, attribute, __, wrapper in self._originals:
                setattr(owner, attribute, wrapper)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for owner, attribute, original, __ in self._originals:
                setattr(owner, attribute, original)
            self.installed = False

    def span(self, name: str, layer: str = "bench"):
        """A span around benchmark code (the unit of work itself)."""
        return _ManualSpan(self, name, layer)

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__, separators=(",", ":")) + "\n")


class _ManualSpan:
    def __init__(self, recorder: SpanRecorder, name: str, layer: str):
        self._recorder = recorder
        self._name = name
        self._layer = layer

    def __enter__(self):
        self._id = next(self._recorder._ids)
        self._parent = _CURRENT_SPAN.get()
        self._token = _CURRENT_SPAN.set(self._id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        _CURRENT_SPAN.reset(self._token)
        self._recorder.spans.append(
            Span(
                self._id,
                self._name,
                self._layer,
                self._start,
                end,
                self._parent,
                _REQUEST.get(),
            )
        )


def outermost(spans: list[Span], predicate) -> list[Span]:
    """Spans matching ``predicate`` with no matching ancestor."""
    by_id = {s.span_id: s for s in spans}
    found = []
    for span in spans:
        if not predicate(span):
            continue
        parent = by_id.get(span.parent)
        while parent is not None and not predicate(parent):
            parent = by_id.get(parent.parent)
        if parent is None:
            found.append(span)
    return found


def inclusive_seconds(spans: list[Span], name: str) -> float:
    """Summed duration of the outermost spans called ``name``.

    Nested calls of the same function are inside their caller's interval
    already, so counting them again would double their time.
    """
    return sum(s.end - s.start for s in outermost(spans, lambda s: s.name == name))


def self_seconds(spans: list[Span], name: str) -> float:
    """Summed self time of every span called ``name``.

    A span's self time is its duration minus the part of that interval
    its child spans cover (children on parallel threads can overlap, so
    the covered part is the union of their intervals).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        covered, cursor = 0.0, span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        total += (span.end - span.start) - covered
    return total


def layer_rollup(spans: list[Span], windows: list[tuple[float, float]]) -> dict:
    """Split the traced wall time between layers; the rest is unattributed.

    ``windows`` are the traced intervals (one per traced unit of work).
    Within them, each instant is charged to the innermost open spans —
    those with no open child — shared equally when several run at once
    on parallel threads, and to ``unattributed`` when no span is open.
    The per-layer seconds plus ``unattributed`` therefore add up to the
    summed window length exactly.
    """
    events = []
    for span in spans:
        events.append((span.start, 1, span))
        events.append((span.end, 0, span))
    events.sort(key=lambda e: (e[0], e[1]))
    edges = sorted(windows)
    seconds: dict[str, float] = {}
    open_spans: dict[int, Span] = {}
    open_children: dict[int, int] = {}

    first_window = 0

    def charge(lo: float, hi: float) -> None:
        # Clip [lo, hi) to the traced windows and charge the leaves.
        # Segments arrive in time order, so the window scan resumes
        # where the previous segment left it.
        nonlocal first_window
        while first_window < len(edges) and edges[first_window][1] <= lo:
            first_window += 1
        width, index = 0.0, first_window
        while index < len(edges) and edges[index][0] < hi:
            width += max(0.0, min(hi, edges[index][1]) - max(lo, edges[index][0]))
            index += 1
        if width <= 0:
            return
        leaves = [
            s
            for s in open_spans.values()
            if open_children.get(s.span_id, 0) == 0 and s.layer != "bench"
        ]
        if not leaves:
            seconds["unattributed"] = seconds.get("unattributed", 0.0) + width
            return
        share = width / len(leaves)
        for leaf in leaves:
            seconds[leaf.layer] = seconds.get(leaf.layer, 0.0) + share

    cursor = None
    for at, kind, span in events:
        if cursor is not None and at > cursor:
            charge(cursor, at)
        cursor = at
        if kind == 1:
            open_spans[span.span_id] = span
            if span.parent is not None and span.parent in open_spans:
                open_children[span.parent] = open_children.get(span.parent, 0) + 1
        else:
            open_spans.pop(span.span_id, None)
            if span.parent is not None and span.parent in open_spans:
                open_children[span.parent] -= 1
    total = sum(hi - lo for lo, hi in edges)
    covered = sum(seconds.values())
    # Gaps inside the windows with no span events at all.
    seconds["unattributed"] = seconds.get("unattributed", 0.0) + max(0.0, total - covered)
    seconds["wall"] = total
    return seconds
