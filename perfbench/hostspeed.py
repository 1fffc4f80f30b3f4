"""Host-speed normalisation of wall-clock times.

On a small shared host the CPU's speed drifts: within one minute, the
2-second medians of a fixed pure-Python pass ranged from 15 to 26 ms,
and slow or fast periods last from a fraction of a second to minutes.  Raw latencies of
the same code then spread past any useful bound from run to run.

So every timed phase is cut into short segments, and a fixed reference
pass of the benchmark's own code (not the engine's) is timed at every
cut.  A time measured in a segment is scaled by
``REFERENCE_MS / (mean of the two reference passes around it)``: it is
reported as the time the same work would take on a host where one
reference pass takes :data:`REFERENCE_MS`.  The engine's work and the
reference slow down together, so their ratio stays put while the host
drifts; a change to the engine moves only the numerator.

The reference is interpreted work of two kinds the engine also does:
arithmetic in a loop, and SQL-like tokenising into Python objects.
The garbage collector is off while it runs, so the engine's heap size
cannot change the reference's time.
"""

from __future__ import annotations

import gc
import re
import time
from typing import List

import numpy as np

clock = time.perf_counter

#: The reference pass's time on the host the figures are normalised to.
#: Between statements on a 2-core x86-64 VM with Python 3.11 its median
#: was about this, so figures from that host read close to wall time.
REFERENCE_MS = 3.0
#: Length of one segment of a single-client phase, in seconds.
SEGMENT_SECONDS = 0.25

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*)|(\d+)|(\w+)|(.))")
#: A fixed 50-row ``INSERT ... VALUES`` text for the tokenising half.
_TEXT = "insert into t values " + ", ".join(
    f"({i}, {i * 7 % 6000}, {i * 13 % 4000}, {i * 17 % 400}, "
    f"{19920101 + i % 28}, {i % 51}, {(i * 31) % 10_000}.{i % 100:02d}, "
    f"{i % 11}, {(i * 29) % 10_000}.{i % 97:02d}, {(i * 19) % 6000}.{i % 89:02d})"
    for i in range(1, 51)
)


def _arithmetic() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


def _tokenise() -> int:
    tokens: list = []
    for match in _TOKEN.finditer(_TEXT):
        real, integer, word, punct = match.groups()
        if real:
            tokens.append(float(real))
        elif integer:
            tokens.append(int(integer))
        elif word:
            tokens.append(word.lower())
        else:
            tokens.append(punct)
    return len({str(i): token for i, token in enumerate(tokens)})


def reference_ms() -> float:
    """Time one reference pass, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        _arithmetic()
        _tokenise()
        return (clock() - started) * 1000.0
    finally:
        if enabled:
            gc.enable()


class Segments:
    """Cuts a timed phase into segments, with a reference pass at each cut.

    The first pass runs on construction.  :meth:`tick` cuts when the
    current segment is :attr:`length` seconds old; :meth:`cut` cuts now,
    and ends the phase when called last.
    A time measured while :attr:`index` was ``i`` is normalised with
    ``scales()[i]``.  Reference passes are not part of any segment.
    """

    def __init__(self, length: float = SEGMENT_SECONDS) -> None:
        self.length = length
        self.probes: List[float] = [reference_ms()]
        self.durations: List[float] = []
        self._start = clock()

    @property
    def index(self) -> int:
        return len(self.durations)

    def tick(self) -> None:
        if clock() - self._start >= self.length:
            self.cut()

    def cut(self) -> None:
        self.durations.append(clock() - self._start)
        self.probes.append(reference_ms())
        self._start = clock()

    def scales(self) -> np.ndarray:
        """Per segment: ``REFERENCE_MS`` / mean of its two reference passes."""
        probes = np.asarray(self.probes)
        return REFERENCE_MS / ((probes[:-1] + probes[1:]) / 2.0)

    def normalised_seconds(self) -> float:
        """The phase's summed segment time, host-normalised."""
        return float(np.dot(self.durations, self.scales()))
