"""Deterministic span-based tracing for the reduction pipeline.

A :class:`Tracer` records a tree of named :class:`Span` objects — one
per pipeline stage (profile, cluster, select, evaluate) and one per
task (per-codelet profile, fidelity probe, representative benchmark,
cache lookup, retry round).  Unlike a conventional tracer it records
**no wall-clock values**: every attribute is a pure function of the run
inputs (suite content, seed, fault plan), so replaying a run serialises
to a byte-identical trace — the property the ``trace-replay`` verify
invariant enforces.  Where a span carries a "time", it is *modelled*
time from the analytical machine model, which is deterministic.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

#: Bumped whenever the on-disk trace layout changes; ``repro trace``
#: refuses files written by a different format.
TRACE_FORMAT = "repro-trace-v1"


def _clean(value: Any) -> Any:
    """Coerce an attribute to a JSON-stable scalar.

    Numpy scalars serialise differently across versions, so they are
    converted to their Python twins; anything exotic becomes ``str``.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if hasattr(value, "item"):            # numpy scalar
        try:
            return _clean(value.item())
        except Exception:                 # pragma: no cover - defensive
            pass
    return str(value)


class Span:
    """One node of the trace tree: a name, scalar attributes, children."""

    __slots__ = ("name", "attrs", "children")

    def __init__(self, name: str, **attrs: Any):
        self.name = str(name)
        self.attrs: Dict[str, Any] = {}
        self.children: List["Span"] = []
        for key, value in attrs.items():
            self.set(key, value)

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on the span."""
        self.attrs[str(key)] = _clean(value)

    def to_json(self) -> dict:
        return {"name": self.name,
                "attrs": dict(self.attrs),
                "children": [c.to_json() for c in self.children]}

    def __repr__(self) -> str:   # pragma: no cover - cosmetic
        return (f"Span({self.name!r}, attrs={self.attrs}, "
                f"children={len(self.children)})")


class Tracer:
    """Builds the span tree; spans nest via the context-manager API."""

    def __init__(self):
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- recording ------------------------------------------------------------

    def _attach(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a nested span; children recorded inside nest under it."""
        span = Span(name, **attrs)
        self._attach(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()

    def event(self, name: str, **attrs: Any) -> Span:
        """Record a leaf span (no children) under the current span."""
        span = Span(name, **attrs)
        self._attach(span)
        return span

    # -- inspection -----------------------------------------------------------

    def walk(self) -> Iterator[Span]:
        """Every span, depth-first in recording order."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def find(self, name: str) -> List[Span]:
        """All spans whose name equals ``name``."""
        return [s for s in self.walk() if s.name == name]

    def __len__(self) -> int:
        return sum(1 for _ in self.walk())

    # -- rendering ------------------------------------------------------------

    def to_json(self) -> str:
        """Deterministic JSON export (byte-identical on replay)."""
        return json.dumps({
            "format": TRACE_FORMAT,
            "spans": [s.to_json() for s in self.roots],
        }, indent=2, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
