"""Trace model: the tracer's output, parsed back into a span tree.

:class:`~repro.obs.tracer.Tracer` writes flat Chrome ``trace_event``
records (JSONL or the bracketed ``{"traceEvents": [...]}`` document);
this module is the inverse -- :class:`Trace` loads either form and
reconstructs the hierarchy the spans had when they were recorded, so the
analytics layer (:mod:`repro.obs.analytics`) can reason about *structure*
(who contains whom, which worker ran when) instead of raw rows.

Reconstruction rules:

* Events are grouped into **tracks** by ``(pid, tid)``.  Track ``(0, 0)``
  is the main thread; ``process.worker`` spans folded back from worker
  processes ride ``tid >= 1`` (see ``ProcessScheduler._merge``).
* Within a track, nesting is recovered from interval containment (the
  tracer records spans at *exit*, so children appear before parents in
  file order; sorting by ``(ts, -dur)`` restores entry order).
* Spans on non-main tracks are then attached to the deepest main-track
  span that temporally contains them as ``parallel`` children -- a worker
  span "belongs to" the supervisor interval it ran under, but runs on its
  own clock track, so it never contributes to the container's self time.

Validation is collected, not raised: a loadable-but-odd trace (negative
durations, partial overlaps from cross-thread tracer misuse, spans carrying
two different ``run_id`` tags) produces :class:`ValidationIssue` records
on ``trace.issues`` and the best tree the evidence supports.  Only
*unreadable* input (not JSON, no events) raises :class:`TraceError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, IO, Iterable, List, Optional, Tuple, Union

#: Containment slack in microseconds: ``ts`` and ``dur`` are rounded to
#: 3 decimals (nanosecond precision) on write, so a child's rounded end
#: can exceed its parent's rounded end by up to 0.001 us twice over.
CONTAINMENT_EPSILON_US = 0.01

#: The span name ProcessScheduler gives folded worker intervals.
WORKER_SPAN = "process.worker"


class TraceError(Exception):
    """The input is not a trace: unreadable, not JSON, or no events."""


@dataclass
class ValidationIssue:
    """One oddity found while reconstructing the tree (never fatal)."""

    kind: str  # negative_time | overlap | mixed_run_ids | orphan_track
    message: str

    def render(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass
class TraceSpan:
    """One complete (``ph: "X"``) event, re-attached to its tree."""

    name: str
    start_us: float
    duration_us: float
    pid: int = 0
    tid: int = 0
    category: str = "repro"
    args: Dict[str, object] = field(default_factory=dict)
    #: Same-track children, in start order; their durations subtract from
    #: this span's self time.
    children: List["TraceSpan"] = field(default_factory=list)
    #: Cross-track spans temporally contained here (worker intervals);
    #: they overlap each other and never reduce self time.
    parallel: List["TraceSpan"] = field(default_factory=list)
    parent: Optional["TraceSpan"] = field(default=None, repr=False)

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us

    @property
    def run_id(self) -> Optional[str]:
        value = self.args.get("run_id")
        return value if isinstance(value, str) else None

    @property
    def self_us(self) -> float:
        """Time spent in this span but in no same-track child."""
        return max(0.0, self.duration_us - sum(c.duration_us for c in self.children))

    @property
    def is_worker(self) -> bool:
        return self.name == WORKER_SPAN

    @property
    def worker_label(self) -> str:
        """Disambiguated frame name for paths and flamegraph stacks."""
        if self.is_worker and "worker" in self.args:
            return f"{self.name}#{self.args['worker']}"
        return self.name

    def contains(self, other: "TraceSpan") -> bool:
        return (
            other.start_us >= self.start_us - CONTAINMENT_EPSILON_US
            and other.end_us <= self.end_us + CONTAINMENT_EPSILON_US
        )

    def walk(self) -> Iterable["TraceSpan"]:
        """This span, then every (tree + parallel) descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()
        for worker in self.parallel:
            yield from worker.walk()


def _parse_events(text: str, issues: List["ValidationIssue"]) -> List[dict]:
    stripped = text.strip()
    if not stripped:
        raise TraceError("empty trace input")
    try:
        document = json.loads(stripped)
    except ValueError:
        # Not one JSON value: treat as JSONL, one event object per line.
        # Non-JSON lines are skipped (with an issue), not fatal: piping
        # ``qir-run ... --trace - | qir-trace summary -`` interleaves the
        # program's own stdout with the trace lines.
        events = []
        skipped = 0
        for line in stripped.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError:
                skipped += 1
        if skipped and not events:
            raise TraceError(f"no JSON lines among {skipped} line(s)")
        if skipped:
            issues.append(
                ValidationIssue(
                    "malformed_event",
                    f"skipped {skipped} non-JSON line(s) "
                    "(program output interleaved with the trace?)",
                )
            )
        return events
    if isinstance(document, dict):
        if "traceEvents" in document:
            events = document["traceEvents"]
            if not isinstance(events, list):
                raise TraceError("traceEvents is not a list")
            return list(events)
        if "ph" in document:  # a single bare event
            return [document]
        raise TraceError("JSON object has no traceEvents")
    if isinstance(document, list):
        return document
    raise TraceError(f"unexpected trace JSON of type {type(document).__name__}")


class Trace:
    """A loaded trace: the span forest plus everything found on the way."""

    def __init__(
        self,
        spans: List[TraceSpan],
        roots: List[TraceSpan],
        instants: List[dict],
        issues: List[ValidationIssue],
    ):
        self.spans = spans
        self.roots = roots
        self.instants = instants
        self.issues = issues

    # -- construction ---------------------------------------------------------
    @classmethod
    def load(cls, source: Union[str, IO[str]]) -> "Trace":
        """Load a trace file (path or stream), JSONL or Chrome-document."""
        if isinstance(source, str):
            try:
                with open(source, "r", encoding="utf-8") as handle:
                    return cls.load(handle)
            except OSError as error:
                raise TraceError(f"cannot read {source}: {error}") from error
        return cls.from_text(source.read())

    @classmethod
    def from_text(cls, text: str) -> "Trace":
        issues: List[ValidationIssue] = []
        return cls.from_events(_parse_events(text, issues), issues=issues)

    @classmethod
    def from_events(
        cls,
        events: Iterable[dict],
        issues: Optional[List[ValidationIssue]] = None,
    ) -> "Trace":
        issues = issues if issues is not None else []
        instants: List[dict] = []
        spans: List[TraceSpan] = []
        for event in events:
            if not isinstance(event, dict) or "ph" not in event:
                issues.append(
                    ValidationIssue("malformed_event", f"skipped {event!r:.80}")
                )
                continue
            phase = event["ph"]
            if phase == "i":
                instants.append(event)
                continue
            if phase != "X":  # metadata and async phases are not ours
                continue
            span = TraceSpan(
                name=str(event.get("name", "?")),
                start_us=float(event.get("ts", 0.0)),
                duration_us=float(event.get("dur", 0.0)),
                pid=int(event.get("pid", 0)),
                tid=int(event.get("tid", 0)),
                category=str(event.get("cat", "repro")),
                args=dict(event.get("args") or {}),
            )
            if span.start_us < 0 or span.duration_us < 0:
                issues.append(
                    ValidationIssue(
                        "negative_time",
                        f"span {span.name!r} has ts={span.start_us} "
                        f"dur={span.duration_us} (worker clock not rebased?)",
                    )
                )
            spans.append(span)
        if not spans and not instants:
            raise TraceError("no trace events found")
        roots = _build_forest(spans, issues)
        _check_run_ids(spans, issues)
        return cls(spans=spans, roots=roots, instants=instants, issues=issues)

    # -- queries --------------------------------------------------------------
    @property
    def start_us(self) -> float:
        return min((s.start_us for s in self.spans), default=0.0)

    @property
    def end_us(self) -> float:
        return max((s.end_us for s in self.spans), default=0.0)

    @property
    def duration_us(self) -> float:
        """Wall-clock extent of the trace (first start to last end)."""
        return max(0.0, self.end_us - self.start_us) if self.spans else 0.0

    def run_ids(self) -> List[str]:
        """Distinct ``run_id`` tags, sorted (normally zero or one)."""
        return sorted({s.run_id for s in self.spans if s.run_id})

    def find(self, name: str) -> List[TraceSpan]:
        return [s for s in self.spans if s.name == name]

    @property
    def worker_spans(self) -> List[TraceSpan]:
        return self.find(WORKER_SPAN)

    def __len__(self) -> int:
        return len(self.spans)


# -- forest reconstruction ----------------------------------------------------


def _build_track(
    spans: List[TraceSpan], issues: List[ValidationIssue]
) -> List[TraceSpan]:
    """Containment-nest one track's spans; returns the track's roots.

    Entry order is ``(ts, -dur)``: at equal timestamps the longer span
    entered first (it is the parent).  A span that starts inside the
    stack top but ends outside it *partially overlaps* -- impossible for
    a tracer used from one thread, so it is flagged and treated as a sibling
    of the nearest span that fully contains it.
    """
    roots: List[TraceSpan] = []
    stack: List[TraceSpan] = []
    for span in sorted(spans, key=lambda s: (s.start_us, -s.duration_us)):
        while stack and span.start_us >= stack[-1].end_us - CONTAINMENT_EPSILON_US:
            stack.pop()
        if stack and not stack[-1].contains(span):
            issues.append(
                ValidationIssue(
                    "overlap",
                    f"span {span.name!r} [{span.start_us:.1f}, "
                    f"{span.end_us:.1f}] partially overlaps "
                    f"{stack[-1].name!r} [{stack[-1].start_us:.1f}, "
                    f"{stack[-1].end_us:.1f}] (cross-thread tracer misuse?)",
                )
            )
            while stack and not stack[-1].contains(span):
                stack.pop()
        if stack:
            span.parent = stack[-1]
            stack[-1].children.append(span)
        else:
            roots.append(span)
        stack.append(span)
    return roots


def _deepest_container(
    roots: List[TraceSpan], span: TraceSpan
) -> Optional[TraceSpan]:
    """The deepest main-track span whose interval contains ``span``."""
    best: Optional[TraceSpan] = None
    frontier = list(roots)
    while frontier:
        candidates = [s for s in frontier if s.contains(span)]
        if not candidates:
            break
        # At one tree level intervals are disjoint, so at most one contains.
        best = candidates[0]
        frontier = best.children
    return best


def _build_forest(
    spans: List[TraceSpan], issues: List[ValidationIssue]
) -> List[TraceSpan]:
    tracks: Dict[Tuple[int, int], List[TraceSpan]] = {}
    for span in spans:
        tracks.setdefault((span.pid, span.tid), []).append(span)
    main_roots = _build_track(tracks.pop((0, 0), []), issues)
    roots = list(main_roots)
    for key in sorted(tracks):
        for track_root in _build_track(tracks[key], issues):
            container = _deepest_container(main_roots, track_root)
            if container is not None:
                track_root.parent = container
                container.parallel.append(track_root)
            else:
                if not track_root.is_worker:
                    issues.append(
                        ValidationIssue(
                            "orphan_track",
                            f"span {track_root.name!r} on track {key} is "
                            "contained by no main-track span",
                        )
                    )
                roots.append(track_root)
    roots.sort(key=lambda s: s.start_us)
    return roots


def _check_run_ids(spans: List[TraceSpan], issues: List[ValidationIssue]) -> None:
    ids = {s.run_id for s in spans if s.run_id}
    if len(ids) > 1:
        issues.append(
            ValidationIssue(
                "mixed_run_ids",
                f"{len(ids)} distinct run_id tags in one trace: "
                f"{', '.join(sorted(ids))}",
            )
        )
