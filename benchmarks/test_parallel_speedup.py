"""Wall-clock bench: a 4-worker sweep beats the serial one on paper-regime cells.

Lives here rather than in tier-1 because it asserts on wall-clock time.  The
shared worker pool is started and every worker's trace memo filled before
timing, and the cells are paper-regime ones (24 warps/SM, scale 0.4), so the
timed passes measure simulation, not pool start-up or trace building.  The
serial == parallel record equality it also checks is pinned in tier-1 by
``tests/runner/test_runner.py``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.configspace.presets import DEFAULT_MIX_TOKENS, ZNG_VARIANTS
from repro.runner import SweepRunner, SweepSpec


@pytest.mark.skipif(os.cpu_count() == 1, reason="needs >1 core for wall-clock speedup")
def test_four_workers_beat_serial():
    spec = SweepSpec.create(
        platforms=list(ZNG_VARIANTS),
        workloads=list(DEFAULT_MIX_TOKENS),
        scale=0.4,
        warps_per_sm=24,
        memory_instructions_per_warp=96,
    )
    serial_runner = SweepRunner(workers=1, cache=False)
    parallel_runner = SweepRunner(workers=4, cache=False)
    # Warm-up: start the pool and build every trace in this process and in
    # the workers, so neither timed pass pays for set-up.
    serial_runner.run(spec)
    parallel_runner.run(spec)

    start = time.perf_counter()
    serial = serial_runner.run(spec)
    serial_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    parallel = parallel_runner.run(spec)
    parallel_elapsed = time.perf_counter() - start
    assert serial.stats_dicts() == parallel.stats_dicts()
    assert parallel_elapsed <= 0.6 * serial_elapsed, (
        f"4 workers took {parallel_elapsed:.2f} s, serial {serial_elapsed:.2f} s")
