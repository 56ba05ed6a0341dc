"""Contention filter: time segments against a frozen reference loop.

On a shared host the CPU speed a process sees moves by up to 2x at a
grain of tens of milliseconds, so a single wall-clock reading of the
paper batch does not repeat within a tenth.  The filter here removes
that movement in two steps:

1. Every timed segment of the batch (an ``Engine.run`` call, the rest
   of an experiment, the render and write) is divided by the duration of
   :func:`reference_loop` measured at its two boundaries.  A uniform
   slowdown of the host scales both and cancels.
2. The batch is repeated several times in one process and, per segment,
   the smallest ratio is kept.  A slowdown that hit one segment in one
   repetition is dropped as long as another repetition ran it clean.

The sum of the per-segment minima times :data:`NOMINAL_REF_S` is the
estimate, in seconds of an uncontended host.

The reference loop and the nominal constant are frozen: changing either
rescales every figure the benchmark has ever reported.
"""

from __future__ import annotations

import bisect
import os
import time
import typing as _t

#: Interval of the timer whose ticks split long segments (see
#: :meth:`SegmentClock.tick`): a few times finer than the tens of
#: milliseconds over which the host's speed moves.
TICK_S = 0.02

#: Iterations of :func:`reference_loop`.  Frozen.
REF_ITERS = 3000

#: Duration of one :func:`reference_loop` call on an uncontended core
#: (the fast state of a 2-core x86-64 container running CPython 3.11).
#: Frozen; it only sets the unit of the estimate, not its spread.
NOMINAL_REF_S = 0.000508


def reference_loop() -> float:
    """A fixed slice of interpreter work: dict, float and branch ops.

    Its mix (dictionary traffic, float arithmetic, short branches) is the
    mix of the simulator's hot loops, so a host slowdown scales the two
    alike.
    """
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(REF_ITERS):
        k = i & 63
        v = table.get(k, 0.0) * 0.5 + i
        table[k] = v
        acc += v if i & 1 else -v
    return acc


def time_reference() -> float:
    """Seconds one :func:`reference_loop` call takes right now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class SegmentClock:
    """Splits one process's timeline into segments bounded by reference loops.

    :meth:`cut` closes the running segment under the key given when it
    was opened and opens the next one.  Each cut runs one reference loop,
    shared by the segment it closes and the segment it opens, and leaves
    it out of both.  Per segment :attr:`pieces` holds
    ``(key, kind, raw_s, ref_before_s, ref_after_s, start)``.
    """

    def __init__(self) -> None:
        self.pieces: list[tuple[str, str, float, float, float]] = []
        self._refs: list[tuple[float, float]] = []
        self._open: tuple[str, str, float, float] | None = None
        self._first: float | None = None
        self._last = 0.0
        self._busy = False

    def cut(self, key: str | None = None, kind: str = "") -> None:
        """Close the open segment (if any) and open ``key`` (if given)."""
        self._busy = True
        try:
            self._cut(key, kind)
        finally:
            self._busy = False

    def tick(self) -> None:
        """Split the open segment at a reference loop, keeping its key.

        Called from a timer signal, so a long segment is normalised by
        the host speed sampled through it, not only at its two ends.
        """
        if self._busy or self._open is None:
            return
        self.cut(self._open[0], self._open[1])

    def _cut(self, key: str | None, kind: str) -> None:
        end = time.perf_counter()
        ref = time_reference()
        self._refs.append((end, ref))
        if self._open is not None:
            okey, okind, start, ref_before = self._open
            self.pieces.append((okey, okind, end - start, ref_before, ref, start))
            self._last = end
        if key is None:
            self._open = None
            return
        start = time.perf_counter()
        if self._first is None:
            self._first = start
        self._open = (key, kind, start, ref)

    def covered_wall(self) -> float:
        """Wall seconds from the first segment's start to the last one's end,
        less the reference loops run in between."""
        if self._first is None:
            return 0.0
        refs = sum(d for t, d in self._refs if self._first <= t < self._last)
        return self._last - self._first - refs


class SpeedLog:
    """Reference-loop samples of a pool child, written as they are taken.

    While a parent process waits at a sweep barrier, the host speed that
    sets the wait is the speed its pool children see, not its own.  A
    child samples it from a timer and appends ``start duration`` lines to
    its own file with one unbuffered write each, so nothing is lost when
    the pool ends the child with ``os._exit``.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def sample(self) -> None:
        start = time.perf_counter()
        dur = time_reference()
        os.write(self._fd, f"{start!r} {dur!r}\n".encode())


def read_speed_logs(paths: _t.Iterable[str | os.PathLike]) -> list[tuple[float, float]]:
    """All ``(start, duration)`` samples of the given logs, by start time."""
    samples = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2:  # a child killed mid-write leaves a torn line
                    samples.append((float(parts[0]), float(parts[1])))
    samples.sort()
    return samples


def ratios(
    pieces: _t.Iterable[tuple[str, str, float, float, float, float]],
    children: _t.Sequence[tuple[float, float]] = (),
    jobs: int = 1,
) -> dict[str, float]:
    """Per segment key: raw time over the reference loop time around it.

    A piece during which pool children took speed samples (``children``,
    from :func:`read_speed_logs`) is divided by the mean of those samples,
    after taking out the time the children spent in them (shared over
    ``jobs`` workers).  Any other piece is divided by the mean of its two
    boundary references.
    """
    starts = [t for t, _ in children]
    out: dict[str, float] = {}
    for key, _kind, raw, before, after, start in pieces:
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, start + raw)
        if hi > lo:
            durs = [d for _, d in children[lo:hi]]
            ratio = max(0.0, raw - sum(durs) / jobs) / (sum(durs) / len(durs))
        else:
            ratio = raw / (0.5 * (before + after))
        out[key] = out.get(key, 0.0) + ratio
    return out


def filtered_seconds(
    reps: _t.Sequence[_t.Mapping[str, float]], nominal: float = NOMINAL_REF_S
) -> float:
    """Sum over segments of the minimum ratio across repetitions, in seconds.

    ``reps`` holds one ``{segment key: ratio}`` mapping per repetition.
    Every repetition must hold the same keys: the same-work guard makes
    sure they do before the estimate is taken.
    """
    if not reps:
        raise ValueError("no repetitions to filter")
    keys = set(reps[0])
    for r in reps[1:]:
        if set(r) != keys:
            raise ValueError("repetitions cover different segments")
    return nominal * sum(min(r[k] for r in reps) for k in keys)
