"""Host-speed probe that turns measured host seconds into normalised ones.

On a shared host this machine's CPU switches between speed states about
1.6x apart that last from tens of milliseconds to minutes, with CPU time
equal to wall time throughout.  Raw timings of identical runs therefore
differ by 20-40%.  ``SpeedProbe`` samples the speed while a timed block
runs: a ``SIGALRM`` every 20 ms runs a fixed dict-and-integer loop (the
simulator's kind of work) and records the CPU time it took.  The block's
own time is its wall time minus the probes.  Its normalised time is that
time multiplied by the mean relative speed ``REFERENCE_PROBE_S / probe``,
i.e. the seconds the block would take on a host where the loop always takes
``REFERENCE_PROBE_S``.  Speeds are averaged rather than probe times because
work done is the integral of speed over time.  The probe code is part of
the benchmark, so a change to the simulator never changes it.

The slow states slow file reads and JSON parsing more than the dict loop,
so blocks that serve a grid from the result cache are probed with
``file_probe_loop`` instead, which reads and parses a fixed JSON document
of the size of a cache entry.
"""

from __future__ import annotations

import json
import signal
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, List

#: One probe loop takes this long on the reference host: a 2.0 GHz Xeon
#: vCPU with Python 3.11, in its fast state.
REFERENCE_PROBE_S = 60e-6
#: The same for one ``file_probe_loop``.
REFERENCE_FILE_PROBE_S = 300e-6
PROBE_INTERVAL_S = 0.02
#: Probes run just before and just after every block, so a block shorter
#: than the probe interval still gets a speed estimate.
BOUNDARY_PROBES = 3
_PROBE_ROUNDS = 400


def probe_loop() -> float:
    """CPU seconds one fixed loop of dict updates and integer arithmetic takes.

    CPU time rather than wall time, so that a probe preempted by a sweep
    worker measures the CPU's speed, not the scheduler.
    """
    started = time.thread_time()
    table = {}
    value = 0
    for index in range(_PROBE_ROUNDS):
        table[index & 63] = value
        value = (value + table.get((index * 7) & 63, 1)) & 0xFFFF
    return time.thread_time() - started


_PROBE_DOCUMENT = json.dumps({
    "entries": {f"field_{index}": {"value": index * 0.125, "count": index,
                                   "name": f"entry-{index}"}
                for index in range(300)}})


def file_probe_loop() -> float:
    """CPU seconds reading and parsing a fixed JSON document from a file."""
    path = Path(tempfile.gettempdir()) / "speed-probe.json"
    if not path.is_file():
        path.write_text(_PROBE_DOCUMENT)
    started = time.thread_time()
    json.loads(path.read_text())
    return time.thread_time() - started


class SpeedProbe:
    """Context manager timing a block and the host's speed during it,
    sampled with ``loop`` whose time on the reference host is ``reference``."""

    def __init__(self, loop: Callable[[], float] = probe_loop,
                 reference: float = REFERENCE_PROBE_S) -> None:
        self.loop = loop
        self.reference = reference
        self.samples: List[float] = []
        self.inside = 0.0
        self.raw = 0.0
        self._active = False

    def _handler(self, signum, frame) -> None:
        if not self._active:
            return
        started = time.perf_counter()
        self.samples.append(self.loop())
        self.inside += time.perf_counter() - started

    def __enter__(self) -> "SpeedProbe":
        self.samples.extend(self.loop() for _ in range(BOUNDARY_PROBES))
        signal.signal(signal.SIGALRM, self._handler)
        self._active = True
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        # The handler stays installed: a SIGALRM raised just before the timer
        # stopped can still reach a pool helper thread, and the default
        # action would end the process.
        self._active = False
        self.raw = time.perf_counter() - self._started
        self.samples.extend(self.loop() for _ in range(BOUNDARY_PROBES))

    @property
    def seconds(self) -> float:
        """The block's own host seconds, probes excluded."""
        return self.raw - self.inside

    @property
    def speed(self) -> float:
        """Mean speed relative to the reference host (1.0 = reference)."""
        return statistics.fmean(self.reference / sample for sample in self.samples)

    @property
    def normalised(self) -> float:
        """The block's own seconds at the reference host's speed."""
        return self.seconds * self.speed
