"""Measurement helpers shared by the workloads.

Nothing here reaches into the library's internals: a :class:`Probe` times
calls to public methods by shadowing them on the instance the library
code calls through, and :func:`span_seconds` / :func:`counter` read the
spans and counters the library already records in a telemetry scope.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import statistics
from bisect import bisect_left
from collections import defaultdict
from time import perf_counter
from typing import Any, Dict, Iterable, List, Sequence, Tuple


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest sample with ten samples above it.

    This is the highest percentile the run can support with at least ten
    samples beyond it. With fewer than 21 samples that percentile is not
    above the median, and the maximum stands in at percentile 100.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= 20:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def _snippet() -> float:
    """A fixed slice of pure-Python heap, dict and float work."""
    heap: List[Tuple[int, int]] = []
    table: Dict[int, float] = {}
    total = 0.0
    for i in range(400):
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        total += math.sqrt(i)
    while heap:
        heapq.heappop(heap)
    return total


class SpeedMeter:
    """Machine-speed samples interleaved with the timed work.

    The benchmark host is shared, and its speed drifts by tens of percent
    over seconds. :meth:`tick` times a fixed pure-Python snippet at most
    every :attr:`GAP` seconds; :meth:`measure` rescales a timed interval
    to the speed at which the snippet takes :attr:`REFERENCE` seconds,
    piece by piece between the samples around it. Snippet time inside an
    interval is left out of it.
    """

    #: snippet time at the reference speed
    REFERENCE = 0.4e-3
    #: least wall time between two snippet runs, unless forced
    GAP = 0.02

    def __init__(self) -> None:
        #: (end instant, duration) of every snippet run, in time order
        self.marks: List[Tuple[float, float]] = []
        self.ticks = 0

    def tick(self, force: bool = False) -> None:
        self.ticks += 1
        if not force and self.marks and perf_counter() - self.marks[-1][0] < self.GAP:
            return
        start = perf_counter()
        _snippet()
        end = perf_counter()
        self.marks.append((end, end - start))

    def measure(self, start: float, end: float) -> Tuple[float, float]:
        """``(wall, reference)`` seconds of ``[start, end]``, snippets left out.

        Needs a forced :meth:`tick` before *start* and after *end*.
        """
        first = bisect_left(self.marks, (start,))
        last = bisect_left(self.marks, (end,))
        wall = reference = 0.0
        left = start
        for k in range(first, last + 1):
            mark_end, duration = self.marks[k]
            right = min(mark_end - duration, end)
            snippet = 0.5 * (self.marks[k - 1][1] + duration)
            wall += right - left
            reference += (right - left) * self.REFERENCE / snippet
            left = mark_end
        return wall, reference

    def speed(self) -> float:
        """Median machine speed of the run, 1.0 at the reference speed."""
        return self.REFERENCE / median([d for _, d in self.marks])


class Probe:
    """Wall-clock accounting around public library calls, per layer key.

    :meth:`wrap` shadows ``obj.method`` with a timing closure on the
    instance, so library code that calls ``obj.method(...)`` is timed
    without being modified; :meth:`unwrap` restores the class method.
    """

    def __init__(self) -> None:
        #: wall seconds of every wrapped call, per layer key
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._wrapped: List[Tuple[Any, str]] = []

    def wrap(self, obj: Any, method: str, key: str) -> None:
        original = getattr(obj, method)
        samples = self.samples[key]

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(perf_counter() - start)

        setattr(obj, method, timed)
        self._wrapped.append((obj, method))

    def unwrap(self) -> None:
        for obj, method in reversed(self._wrapped):
            delattr(obj, method)
        self._wrapped.clear()

    def seconds(self, key: str) -> float:
        return sum(self.samples[key])

    def calls(self, key: str) -> int:
        return len(self.samples[key])


def span_seconds(telemetry: Any, name: str) -> float:
    """Total wall seconds of every finished span called *name*."""
    histogram = telemetry.registry.get("span.duration", span=name, clock="wall")
    return float(histogram.total) if histogram is not None else 0.0


def counter(telemetry: Any, name: str, **labels: Any) -> int:
    """Value of one counter, 0 when it was never registered."""
    metric = telemetry.registry.get(name, **labels)
    return int(metric.value) if metric is not None else 0


def digest(chunks: Iterable[bytes]) -> str:
    """SHA-256 over a sequence of byte strings (length-prefixed)."""
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(len(chunk).to_bytes(8, "little"))
        sha.update(chunk)
    return sha.hexdigest()


def path_bytes(path: Any) -> bytes:
    """A canonical encoding of one service path: its hops in order."""
    return repr([(hop.proxy, hop.service, hop.slot) for hop in path.hops]).encode()
