"""Span tracer: nested monotonic wall-clock intervals with tags.

A :class:`Span` is a context manager; entering starts the clock, exiting
records one *complete event* (Chrome ``ph: "X"``) on the owning
:class:`Tracer`.  Spans nest naturally -- the tracer tracks depth so both
the JSONL and the Chrome export reconstruct the flame graph.

Export formats:

* :meth:`Tracer.write_jsonl` -- one JSON object per line, each already in
  the Chrome ``trace_event`` schema (``name``/``ph``/``ts``/``dur`` with
  microsecond timestamps).  Perfetto and ``chrome://tracing`` accept the
  bare newline-separated form; strict consumers can wrap the lines in
  ``{"traceEvents": [...]}``.
* :meth:`Tracer.write_chrome` -- the fully bracketed
  ``{"traceEvents": [...]}`` JSON document.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, IO, List, Optional, Union


class Span:
    """One timed interval.  Created by :meth:`Tracer.span`; use as::

        with tracer.span("parse", bytes=1024):
            ...
    """

    __slots__ = ("name", "tags", "depth", "start_us", "duration_us", "_tracer", "_t0")

    def __init__(self, tracer: "Tracer", name: str, tags: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.tags = tags
        self.depth = 0
        self.start_us = 0.0
        self.duration_us = 0.0
        self._t0 = 0.0

    def tag(self, key: str, value: object) -> "Span":
        """Attach a tag after entry (e.g. a result computed inside)."""
        self.tags[key] = value
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.depth = tracer._depth
        tracer._depth += 1
        self._t0 = tracer._clock()
        self.start_us = (self._t0 - tracer._origin) * 1e6
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        end = tracer._clock()
        if tracer._depth > 0:
            tracer._depth -= 1
        else:
            # An exit with no matching live entry (cross-thread misuse, or a
            # span exited twice).  Clamping keeps subsequent spans at
            # sane depths instead of going negative forever; the counter
            # makes the misuse visible instead of silent.
            tracer._note_depth_underflow(self.name)
        self.duration_us = (end - self._t0) * 1e6
        event: Dict[str, object] = {
            "name": self.name,
            "cat": str(self.tags.get("cat", "repro")),
            "ph": "X",
            "ts": round(self.start_us, 3),
            "dur": round(self.duration_us, 3),
            "pid": 0,
            "tid": 0,
        }
        if exc_type is not None:
            self.tags["error"] = exc_type.__name__
        tracer._append(event, self.tags)


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Tracer:
    """Collects completed span events; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._origin = clock()
        self._depth = 0
        #: Spans that exited with no matching live entry (see
        #: ``Span.__exit__``); mirrored into the ``tracer.depth_underflow``
        #: counter when an :class:`~repro.obs.observer.Observer` owns us.
        self.depth_underflows = 0
        self.on_depth_underflow: Optional[Callable[[str], None]] = None
        self.events: List[Dict[str, object]] = []
        #: Current run identity; while set, every recorded event's ``args``
        #: carries it, so spans folded in from worker processes land in the
        #: same logical trace as the parent's (see repro.obs.runctx).
        self.run_id: Optional[str] = None

    def _note_depth_underflow(self, name: str) -> None:
        self.depth_underflows += 1
        if self.on_depth_underflow is not None:
            self.on_depth_underflow(name)

    def _append(self, event: Dict[str, object], tags: Dict[str, object]) -> None:
        if self.run_id is not None and "run_id" not in tags:
            tags = dict(tags)
            tags["run_id"] = self.run_id
        if tags:
            event["args"] = {k: _jsonable(v) for k, v in tags.items()}
        self.events.append(event)

    def span(self, name: str, **tags: object) -> Span:
        return Span(self, name, tags)

    def complete(
        self,
        name: str,
        start: float,
        seconds: float,
        tid: int = 0,
        **tags: object,
    ) -> None:
        """Record an interval measured elsewhere (e.g. in a worker process).

        ``start`` is a value of this tracer's own clock (the caller notes
        it before handing work off); ``seconds`` is the duration the
        worker reported.  ``tid`` separates parallel tracks so folded
        worker spans render side by side in the flame graph.
        """
        event: Dict[str, object] = {
            "name": name,
            "cat": str(tags.get("cat", "repro")),
            "ph": "X",
            "ts": round((start - self._origin) * 1e6, 3),
            "dur": round(seconds * 1e6, 3),
            "pid": 0,
            "tid": tid,
        }
        self._append(event, tags)

    def instant(self, name: str, **tags: object) -> None:
        """Record a zero-duration marker (Chrome ``ph: "i"``)."""
        event: Dict[str, object] = {
            "name": name,
            "cat": str(tags.get("cat", "repro")),
            "ph": "i",
            "ts": round((self._clock() - self._origin) * 1e6, 3),
            "pid": 0,
            "tid": 0,
            "s": "g",
        }
        self._append(event, tags)

    # -- export ---------------------------------------------------------------
    def to_trace_events(self) -> List[Dict[str, object]]:
        return list(self.events)

    def iter_jsonl(self):
        for event in self.events:
            yield json.dumps(event, sort_keys=True)

    def write_jsonl(self, destination: Union[str, IO[str]]) -> None:
        """One Chrome ``trace_event`` object per line."""
        if isinstance(destination, str):
            with open(destination, "w", encoding="utf-8") as handle:
                self.write_jsonl(handle)
            return
        for line in self.iter_jsonl():
            destination.write(line + "\n")

    def write_chrome(self, destination: Union[str, IO[str]]) -> None:
        """The bracketed ``{"traceEvents": [...]}`` document."""
        document = {"traceEvents": self.events, "displayTimeUnit": "ms"}
        if isinstance(destination, str):
            with open(destination, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            return
        json.dump(document, destination)

    def write(self, path: str) -> None:
        """Write ``path``: ``.jsonl`` gets JSONL, anything else the Chrome doc."""
        if path.endswith(".jsonl"):
            self.write_jsonl(path)
        else:
            self.write_chrome(path)

    def total_time_us(self, name: Optional[str] = None) -> float:
        return sum(
            float(e.get("dur", 0.0))
            for e in self.events
            if e["ph"] == "X" and (name is None or e["name"] == name)
        )

    def __len__(self) -> int:
        return len(self.events)
