"""In-memory spans around the package's public entry points.

The benchmark never edits ``src/``: a :class:`Tracer` replaces an entry
point (a module function or a class attribute) with a wrapper that
records one span per call -- name, layer, start, end, parent and the
serve ticket in flight -- and restores every original on
:meth:`Tracer.restore`.  Spans stay in memory until the run ends.

A function that other modules imported by name (``from x import f``)
is patched in every loaded module that holds the same object, so the
wrapper sees calls from all of them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

#: Marks an attribute the owner did not define itself (inherited).
_ABSENT = object()

#: Layers whose self time is reported (the package's modules on the
#: three paths; ``soc`` and ``workloads`` run inside ``sim``).
LAYERS = ("browser", "sim", "core", "models", "experiments", "runtime", "serve")


class Tracer:
    """Records spans while :attr:`active`; a no-op pass-through otherwise.

    Args:
        clock: Span timestamps in seconds; the benchmark passes its op
            clock (:meth:`gauge.Gauge.now`), which leaves out the time
            spent sampling the host.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.active = False
        #: Ticket of the serve request being handled (``None`` elsewhere).
        self.ticket: int | None = None
        #: ``[name, layer, start, end, parent, ticket]`` per span.
        self.spans: list[list] = []
        #: Counters added by span hooks (e.g. simulated steps).
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(
        self, owner, attr: str, name: str, layer, on_return=None,
        everywhere: bool = True,
    ) -> None:
        """Record a span for every call of ``owner.attr``.

        Args:
            owner: Module, class or object holding the entry point.
            attr: Attribute name of the entry point.
            name: Span name.
            layer: Layer name, or a callable mapping the call's
                arguments to one.
            on_return: Optional ``hook(tracer, args, kwargs, result)``
                run after the call to add counters.
            everywhere: For a module function, also patch every loaded
                module that imported it by name.
        """
        original = getattr(owner, attr)
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = len(spans)
            span_layer = layer(*args, **kwargs) if callable(layer) else layer
            span = [name, span_layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.ticket]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        owners = [owner]
        if everywhere and isinstance(owner, types.ModuleType):
            owners = [
                module for module in list(sys.modules.values())
                if isinstance(module, types.ModuleType)
                and module.__dict__.get(attr) is original
            ]
        for target in owners:
            self._restore.append((target, attr, target.__dict__.get(attr, _ABSENT)))
            setattr(target, attr, traced)

    def restore(self) -> None:
        """Put every wrapped entry point back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    def calls(self, name: str, since: int = 0) -> int:
        """Spans called ``name`` recorded from index ``since`` on."""
        return sum(1 for span in self.spans[since:] if span[0] == name)

    def seconds(self, name: str, since: int = 0) -> float:
        """Total duration of the spans called ``name`` recorded from
        index ``since`` on."""
        return sum(span[3] - span[2] for span in self.spans[since:] if span[0] == name)

    def durations(self, name: str) -> list[float]:
        """Durations of the spans called ``name``, in call order."""
        return [span[3] - span[2] for span in self.spans if span[0] == name]

    def _self_times(self) -> list[float]:
        """Each span's duration minus the durations of its children."""
        own = [span[3] - span[2] for span in self.spans]
        for span in self.spans:
            if span[4] >= 0:
                own[span[4]] -= span[3] - span[2]
        return own

    def self_seconds(self, since: int = 0) -> dict[str, float]:
        """Per-layer self time of the spans recorded from ``since`` on."""
        own = self._self_times()
        totals = dict.fromkeys(LAYERS, 0.0)
        for index in range(since, len(self.spans)):
            layer = self.spans[index][1]
            totals[layer] = totals.get(layer, 0.0) + own[index]
        return totals

    def self_seconds_of(self, name: str, since: int = 0) -> float:
        """Self time of the spans called ``name``."""
        own = self._self_times()
        return sum(
            own[index]
            for index in range(since, len(self.spans))
            if self.spans[index][0] == name
        )

    def root_seconds(self, since: int = 0) -> float:
        """Wall time covered by top-level spans (they never overlap)."""
        return sum(span[3] - span[2] for span in self.spans[since:] if span[4] < 0)

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, layer, start, end, parent, ticket in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "ticket": ticket,
                        }
                    )
                    + "\n"
                )
