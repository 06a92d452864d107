"""Schema-versioned benchmark snapshots (the ``qir-bench`` data model).

A :class:`BenchSnapshot` is the durable form of one benchmark session:
a list of :class:`BenchRecord` rows -- each a named scalar with an
explicit unit, an improvement direction, and median-of-k spread
(min/median/max over ``k`` repetitions) -- plus an environment
fingerprint so two snapshots can be judged comparable before they are
diffed (see :mod:`repro.obs.regress`).

The JSON layout is versioned (``schema_version``); loaders reject
snapshots from a future schema rather than misreading them.  Timing
collection goes through :func:`measure`, which warms the callable and
reports the median so single-sample jitter (the source of the negative
``overhead_fraction`` values in early ``BENCH_obs.json`` files) cannot
dominate a record.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, IO, List, Optional, Union

SCHEMA_VERSION = 1

#: Improvement directions: "lower" -- smaller is better (seconds),
#: "higher" -- bigger is better (throughput, speedup ratios).
DIRECTIONS = ("lower", "higher")


@dataclass(frozen=True)
class TimingStats:
    """Min/median/max over k repetitions of one measured quantity."""

    samples: tuple

    def __post_init__(self):
        if not self.samples:
            raise ValueError("TimingStats needs at least one sample")

    @property
    def k(self) -> int:
        return len(self.samples)

    @property
    def min(self) -> float:
        return min(self.samples)

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def max(self) -> float:
        return max(self.samples)


def measure(
    fn: Callable[[], object],
    repeats: int = 5,
    warmup: int = 1,
    clock: Callable[[], float] = perf_counter,
) -> TimingStats:
    """Median-of-k wall timing with warmup.

    ``warmup`` un-timed calls run first (imports, allocator, caches), then
    ``repeats`` timed calls.  Use ``stats.median`` as the headline number;
    ``min``/``max`` bound the observed spread.
    """
    if repeats < 1:
        raise ValueError("measure() needs repeats >= 1")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = clock()
        fn()
        samples.append(clock() - start)
    return TimingStats(tuple(samples))


def measure_interleaved(
    arms: Dict[str, Callable[[], object]],
    rounds: int = 5,
    warmup: int = 1,
    clock: Callable[[], float] = perf_counter,
) -> Dict[str, TimingStats]:
    """Interleaved wall timing of several arms (A B C, B C A, C A B, ...).

    Each round times every arm once, so drift in machine load lands on
    all arms alike instead of on whichever arm ran last; the order
    rotates from round to round so no arm always runs first or after
    the same neighbour.  ``warmup`` un-timed rounds run first.  Compare arms by their medians: a ratio of two medians
    over interleaved rounds is stable where two back-to-back single
    samples are not.
    """
    if rounds < 1:
        raise ValueError("measure_interleaved() needs rounds >= 1")
    for _ in range(warmup):
        for fn in arms.values():
            fn()
    names = list(arms)
    samples: Dict[str, list] = {name: [] for name in names}
    for index in range(rounds):
        shift = index % len(names)
        for name in names[shift:] + names[:shift]:
            start = clock()
            arms[name]()
            samples[name].append(clock() - start)
    return {name: TimingStats(tuple(samples[name])) for name in names}


def median_ratio(numerator: TimingStats, denominator: TimingStats) -> Optional[float]:
    """``numerator.median / denominator.median`` -- a speedup when the
    numerator is the slower arm; ``None`` (never ``inf``) when the
    denominator's median is below clock resolution."""
    if denominator.median <= 0.0:
        return None
    return numerator.median / denominator.median


def environment_fingerprint() -> Dict[str, object]:
    """Host/interpreter identity attached to every snapshot.

    Diffing snapshots from different fingerprints is allowed (CI runners
    drift) but the report flags it, so a "regression" caused by a machine
    change is explainable from the artifact alone.
    """
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "numpy": numpy_version,
    }


@dataclass
class BenchRecord:
    """One named measurement inside a snapshot.

    ``value`` is the headline scalar (the median when ``k > 1``); ``unit``
    and ``direction`` make the record self-describing so the differ never
    has to guess whether bigger numbers are good news.
    """

    name: str
    value: float
    unit: str
    direction: str = "lower"
    min: Optional[float] = None
    median: Optional[float] = None
    max: Optional[float] = None
    k: int = 1
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"record {self.name!r}: direction must be one of {DIRECTIONS}, "
                f"got {self.direction!r}"
            )

    @classmethod
    def from_stats(
        cls,
        name: str,
        stats: TimingStats,
        unit: str = "seconds",
        direction: str = "lower",
        **metadata: object,
    ) -> "BenchRecord":
        return cls(
            name=name,
            value=stats.median,
            unit=unit,
            direction=direction,
            min=stats.min,
            median=stats.median,
            max=stats.max,
            k=stats.k,
            metadata=dict(metadata),
        )

    @property
    def key(self) -> str:
        if "width" in self.metadata:
            return f"{self.name}{{width={self.metadata['width']}}}"
        return self.name

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "direction": self.direction,
            "k": self.k,
        }
        if self.min is not None:
            out["min"] = self.min
        if self.median is not None:
            out["median"] = self.median
        if self.max is not None:
            out["max"] = self.max
        if self.metadata:
            out["metadata"] = self.metadata
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchRecord":
        if "name" not in data or "value" not in data:
            raise ValueError(f"benchmark record missing name/value: {data!r}")
        return cls(
            name=str(data["name"]),
            value=float(data["value"]),  # type: ignore[arg-type]
            unit=str(data.get("unit", "")),
            direction=str(data.get("direction", "lower")),
            min=data.get("min"),  # type: ignore[arg-type]
            median=data.get("median"),  # type: ignore[arg-type]
            max=data.get("max"),  # type: ignore[arg-type]
            k=int(data.get("k", 1)),  # type: ignore[arg-type]
            metadata=dict(data.get("metadata", {})),  # type: ignore[arg-type]
        )


@dataclass
class BenchSnapshot:
    """A schema-versioned collection of benchmark records."""

    group: str
    records: List[BenchRecord] = field(default_factory=list)
    environment: Dict[str, object] = field(default_factory=environment_fingerprint)
    schema_version: int = SCHEMA_VERSION

    def add(self, record: BenchRecord) -> BenchRecord:
        self.records.append(record)
        return record

    def record(self, name: str, value: float, unit: str, **kwargs) -> BenchRecord:
        return self.add(BenchRecord(name=name, value=value, unit=unit, **kwargs))

    def by_name(self) -> Dict[str, BenchRecord]:
        """Records keyed for diffing: the name, plus ``{width=W}`` for the
        cells of a width sweep (several records sharing one name)."""
        return {r.key: r for r in self.records}

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "group": self.group,
            "environment": self.environment,
            "records": [r.to_dict() for r in sorted(self.records, key=lambda r: r.key)],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchSnapshot":
        version = data.get("schema_version")
        if version is None:
            raise ValueError(
                "not a qir-bench snapshot: missing schema_version "
                "(pre-snapshot BENCH_*.json files cannot be diffed)"
            )
        if int(version) > SCHEMA_VERSION:  # type: ignore[arg-type]
            raise ValueError(
                f"snapshot schema_version {version} is newer than supported "
                f"({SCHEMA_VERSION}); upgrade the toolchain"
            )
        return cls(
            group=str(data.get("group", "")),
            records=[BenchRecord.from_dict(r) for r in data.get("records", [])],  # type: ignore[union-attr]
            environment=dict(data.get("environment", {})),  # type: ignore[arg-type]
            schema_version=int(version),  # type: ignore[arg-type]
        )

    def write_json(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            with open(destination, "w", encoding="utf-8") as handle:
                self.write_json(handle)
            return
        json.dump(self.to_dict(), destination, indent=2, sort_keys=True)
        destination.write("\n")

    @classmethod
    def load(cls, source: Union[str, IO[str]]) -> "BenchSnapshot":
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                return cls.load(handle)
        return cls.from_dict(json.load(source))
