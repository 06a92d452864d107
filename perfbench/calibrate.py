"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared virtual machines whose speed drifts: on a
2-vCPU VM the same ``cli_cold`` stream read a median latency of 0.62 s in
one set of ten runs and 0.80 s in the next set, 25 minutes later, with no
change to any file.  A later change to the program could not be judged
against its parent across such a shift.

Each run therefore times a fixed calibration workload that shares no code
with the program under test, interleaved with its requests, and scales
its timings by ``(reference / median(calibration)) ** EXPONENT``.  The
reference is the calibration's time at a typical speed of a 2-vCPU
x86-64 VM with CPython 3.11 and NumPy 2.4.  The raw times are printed
beside the scaled ones.

Two calibrations match the two kinds of request:

* :func:`process_sample` -- a fresh interpreter importing NumPy and some
  standard modules, for set-up and ``cli_cold`` (process start and
  imports);
* :func:`compute_sample` -- small-array NumPy updates and dict/string
  work in this process, for the in-process workloads.

The calibrations' tight loops speed up and slow down more than the
requests do: across three sets of ten runs per workload, a 1.6x change
in a calibration came with a 1.26x (``cli_cold``), 1.25x
(``compile_stream``) and 1.48x (``shot_stream``) change in the requests,
about the square root.  Scaling by the full factor over-corrected (a
machine speed-up made ``cli_cold`` read 27% slower); scaling by its
square root (:data:`EXPONENT`) kept every set's spread and every
set-to-set shift of those runs within 0.22.  A pure-Python
text-splitting calibration tracked ``compile_stream`` no better than
:func:`compute_sample`.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from stats import median

REFERENCE_PROCESS_S = 0.25
REFERENCE_COMPUTE_S = 0.015
#: Share (in log terms) of the calibration's speed change applied to timings.
EXPONENT = 0.5
PROCESS_CODE = "import numpy, json, argparse, decimal, hashlib, dataclasses"


def process_sample(env: Dict[str, str], cwd: str) -> float:
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", PROCESS_CODE],
        env=env,
        cwd=cwd,
        check=True,
        capture_output=True,
        timeout=60,
    )
    return perf_counter() - start


def compute_sample() -> float:
    state = np.full(64, 0.125, dtype=complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    table: Dict[str, int] = {}
    start = perf_counter()
    for i in range(2000):
        view = state.reshape(1 << (i % 6), 2, -1)
        state = np.einsum("ab,xby->xay", flip, view).reshape(64)
        key = f"k{i % 50}:{i}"
        table[key[:3]] = table.get(key[:3], 0) + len(key.split(":"))
    return perf_counter() - start


class Calibration:
    """Calibration samples taken at most every ``every_s`` seconds."""

    def __init__(self, sample: Callable[[], float], reference: float, every_s: float):
        self._sample = sample
        self.reference = reference
        self.every_s = every_s
        self.samples: List[float] = []
        self._due = 0.0

    def take(self) -> None:
        self.samples.append(self._sample())
        self._due = perf_counter() + self.every_s

    def maybe_take(self) -> None:
        if perf_counter() >= self._due:
            self.take()

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-speed time."""
        return (self.reference / median(self.samples)) ** EXPONENT
