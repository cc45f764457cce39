"""Host speed, measured during each timed operation.

The reference host is shared, and its speed drifts by up to a factor of
two, from one second to the next and over minutes (see "Steadiness" in
``LAYERS.md``).  So while a worker times an operation, a ``SIGALRM``
every ``INTERVAL_S`` seconds runs one *tick*: one round of a fixed
pure-Python loop, timed.  The ticks sample the speed of the same CPU, in
the same process, over the same interval as the operation.  The
benchmark then reports ``(seconds - ticks) * REFERENCE_TICK_S /
mean tick``: the operation's own time, without the ticks, at the speed at
which the host runs a tick in ``REFERENCE_TICK_S``.  The raw seconds and
the tick figures go to the results file as well.

The loop uses only the interpreter, never the program under test, so a
change to the program cannot move it.  It mixes what the program spends
its time on: an edit-distance DP over lists and ``min``, string slicing
and splitting, small-object allocation, sorting tuples and dict
inserts.  The garbage collector is off during a tick, so a tick's time
does not depend on how many objects the program holds.
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import statistics
import time

INTERVAL_S = 0.02           # one tick every 20 ms of wall time
REFERENCE_TICK_S = 0.0025   # mean tick on the reference host

_LEFT = "the quick brown fox jumps over the lazy dog"
_RIGHT = "a quick brown fax jumped over lazy dogs!"
_RECORD = ("<movie><title>Star Wars: Episode %d</title><year>19%02d</year>"
           "<person name='Harrison Ford %d'/></movie>")


class _Node:
    __slots__ = ("tag", "text", "children")

    def __init__(self, tag: str, text: str):
        self.tag, self.text, self.children = tag, text, []


def _round() -> int:
    previous = list(range(len(_RIGHT) + 1))
    for i, left in enumerate(_LEFT, 1):
        current = [i]
        for j, right in enumerate(_RIGHT, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + (left != right)))
        previous = current
    rows = []
    for k in range(120):
        parts = (_RECORD % (k, k % 100, k)).replace("<", " <").split()
        node = _Node(parts[0], " ".join(part.lower() for part in parts[1:]))
        node.children.extend(_Node(part[:4], part) for part in parts[:6])
        rows.append((node.text[:12], k, node))
    rows.sort(key=lambda row: (row[0], -row[1]))
    groups: dict[str, list[int]] = {}
    for key, _, node in rows:
        groups.setdefault(key, []).append(len(node.children))
    return previous[-1] + len(groups)


def tick() -> float:
    """Wall seconds of one round of the loop, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _round()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Ticks on ``SIGALRM`` while started; ``ticks`` holds their seconds."""

    def __init__(self):
        self.ticks: list[float] = []
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        # A tick that outlasts the interval must not start another.
        if not self._busy:
            self._busy = True
            try:
                self.ticks.append(tick())
            finally:
                self._busy = False

    def start(self) -> None:
        self.ticks = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def figures(self) -> dict:
        """The ticks' count, total and mean seconds.  An interval too
        short for a tick gets one now, which is not part of the interval."""
        mean = statistics.fmean(self.ticks) if self.ticks else tick()
        return {"ticks": len(self.ticks), "ticks_s": sum(self.ticks),
                "tick_s": mean}


@contextlib.contextmanager
def measured(meter: Speedometer | None):
    """Time the block; with a ``meter``, tick while it runs.  Yields a
    dict that holds ``seconds`` (wall, ticks included) afterwards, plus
    the ``Speedometer.figures`` when there is a meter."""
    figures: dict = {}
    if meter is not None:
        meter.start()
    start = time.perf_counter()
    try:
        yield figures
    finally:
        if meter is not None:
            meter.stop()
        figures["seconds"] = time.perf_counter() - start
        if meter is not None:
            figures.update(meter.figures())


def normalized(seconds: float, ticks_s: float, tick_s: float) -> float:
    """The operation's own seconds at the reference host speed."""
    return (seconds - ticks_s) * REFERENCE_TICK_S / tick_s


def pin_to_one_cpu() -> int:
    """Run this process, and the processes it starts, on one usable CPU,
    so that the ticks and the operation run on the same one.  The
    benchmark runs one process at a time, so this costs no parallelism."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
