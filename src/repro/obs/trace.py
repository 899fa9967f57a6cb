"""Structured tracing: nested wall-clock/CPU spans with attributes.

The experiment pipeline is a chain of opaque numeric stages — candidate
enumeration, LP filtering, probe batches, Monte-Carlo sweeps — and the
only way to see where a run spends its time is to time the stages as a
tree.  :func:`span` is the single instrumentation point::

    with span("discovery.probe_batch", level=3, boxes=128) as sp:
        ...
        sp.set(settled=17)

Spans nest by lexical scope through a process-global :class:`Tracer`
(``TRACER``); the finished tree is exported as plain dicts for the run
manifest and can be *grafted* back under a live span — which is how
worker processes ship their sub-trees to the ``--jobs N`` parent so a
parallel run produces the same tree shape as a serial one.

Tracing is off by default and the disabled path allocates nothing: a
disabled tracer hands every ``span(...)`` call the same singleton no-op
context manager, so instrumentation left in hot code costs one method
call and no garbage.  Timing uses ``time.perf_counter`` (wall) and
``time.process_time`` (CPU of this process; a span that waits on worker
processes shows wall >> CPU, which is exactly the signal wanted).
"""

from __future__ import annotations

import time
from typing import Any, Mapping

__all__ = ["Span", "Tracer", "TRACER", "span"]


class Span:
    """One timed node of a trace tree."""

    __slots__ = (
        "name", "attrs", "children",
        "wall_start", "wall_end", "cpu_start", "cpu_end",
    )

    def __init__(
        self, name: str, attrs: "Mapping[str, Any] | None" = None
    ) -> None:
        self.name = name
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        self.wall_start = 0.0
        self.wall_end = 0.0
        self.cpu_start = 0.0
        self.cpu_end = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span (probe counts, cache keys...)."""
        self.attrs.update(attrs)

    @property
    def wall_seconds(self) -> float:
        return max(self.wall_end - self.wall_start, 0.0)

    @property
    def cpu_seconds(self) -> float:
        return max(self.cpu_end - self.cpu_start, 0.0)

    def to_dict(self) -> dict[str, Any]:
        """Manifest form: name, attrs, durations, children."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        """Rebuild a span (tree) from its :meth:`to_dict` form."""
        node = cls(str(data["name"]), data.get("attrs") or {})
        node.wall_end = float(data.get("wall_seconds", 0.0))
        node.cpu_end = float(data.get("cpu_seconds", 0.0))
        node.children = [
            cls.from_dict(child) for child in data.get("children", ())
        ]
        return node


class _NullSpan:
    """Shared no-op stand-in handed out while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager that opens/closes one span on a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", node: Span) -> None:
        self._tracer = tracer
        self._span = node

    def __enter__(self) -> Span:
        tracer = self._tracer
        node = self._span
        stack = tracer._stack
        parent = stack[-1] if stack else None
        (parent.children if parent is not None
         else tracer.roots).append(node)
        stack.append(node)
        node.cpu_start = time.process_time()
        node.wall_start = time.perf_counter()
        return node

    def __exit__(self, *exc: object) -> bool:
        node = self._span
        node.wall_end = time.perf_counter()
        node.cpu_end = time.process_time()
        stack = self._tracer._stack
        if stack and stack[-1] is node:
            stack.pop()
        return False


class Tracer:
    """Process-global span collector.

    ``enabled`` gates everything: while False, :meth:`span` returns a
    shared null context manager and no :class:`Span` is ever allocated.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded spans; the enabled flag is kept."""
        self.roots = []
        self._stack = []

    def span(self, name: str, **attrs: Any):
        """Context manager timing one named stage (yields the span)."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanHandle(self, Span(name, attrs))

    @property
    def current(self) -> "Span | None":
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def export(self) -> list[dict[str, Any]]:
        """The finished tree(s) as manifest-ready dicts."""
        return [node.to_dict() for node in self.roots]

    def graft(self, exported: "list[dict[str, Any]] | None") -> None:
        """Attach exported span dicts under the current span.

        This is how ``--jobs N`` workers contribute their sub-trees:
        the worker exports, the parent grafts, and the combined tree is
        indistinguishable in shape from a serial run.
        """
        if not self.enabled or not exported:
            return
        target = (
            self._stack[-1].children if self._stack else self.roots
        )
        for data in exported:
            target.append(Span.from_dict(data))


#: The process-global tracer every ``span(...)`` call goes through.
TRACER = Tracer()


def span(name: str, **attrs: Any):
    """``TRACER.span(...)`` — the module-level instrumentation point."""
    return TRACER.span(name, **attrs)
