"""Regression tests for the per-process trace memo.

Two bugs are pinned here: the memo key must be derived from *everything*
``build_cell_trace`` consumes (a ``--set`` ablation changing a trace knob
must never replay a stale trace), and overflowing the memo must evict the
oldest entry instead of dropping the whole working set.
"""

import pytest

from repro.runner import SweepSpec
from repro.runner.runner import _TRACE_MEMO, _TRACE_MEMO_MAX_ENTRIES, _trace_for


def _cell(**kwargs):
    defaults = dict(
        platforms=["ZnG-base"],
        workloads=["bfs1"],
        scale=0.05,
        warps_per_sm=1,
        memory_instructions_per_warp=8,
    )
    defaults.update(kwargs)
    return SweepSpec.create(**defaults).cells()[0]


@pytest.fixture(autouse=True)
def clean_memo():
    saved = dict(_TRACE_MEMO)
    _TRACE_MEMO.clear()
    yield
    _TRACE_MEMO.clear()
    _TRACE_MEMO.update(saved)


class TestTraceKeyCoverage:
    def test_key_covers_every_trace_knob(self):
        """Changing any knob build_cell_trace consumes must change the key."""
        base = _cell()
        variants = {
            "workload": _cell(workloads=["betw"]),
            "scale": _cell(scale=0.1),
            "seed": _cell(seed=7),
            "num_sms": _cell(num_sms=8),
            "warps_per_sm": _cell(warps_per_sm=2),
            "memory_instructions_per_warp": _cell(memory_instructions_per_warp=16),
        }
        for knob, variant in variants.items():
            assert variant.trace_key() != base.trace_key(), (
                f"trace memo would alias cells differing in {knob}"
            )

    def test_platform_and_override_share_the_trace(self):
        """Platform/override changes must NOT change the key: every platform
        of a sweep runs the identical trace by design."""
        spec = SweepSpec.create(
            platforms=["ZnG-base", "ZnG"],
            workloads=["bfs1"],
            overrides={"reg16": {"register_cache.registers_per_plane": 16}},
            scale=0.05,
            warps_per_sm=1,
            memory_instructions_per_warp=8,
        )
        keys = {cell.trace_key() for cell in spec.cells()}
        assert len(keys) == 1

    def test_distinct_knobs_build_distinct_traces(self):
        first = _trace_for(_cell(memory_instructions_per_warp=8))
        second = _trace_for(_cell(memory_instructions_per_warp=200))
        assert first is not second
        assert len(first.warps[0]) != len(second.warps[0])

    def test_same_knobs_reuse_the_memoised_trace(self):
        first = _trace_for(_cell())
        second = _trace_for(_cell(platforms=["ZnG"]))
        assert first is second


class TestMemoEviction:
    def test_overflow_evicts_oldest_not_everything(self):
        cells = [_cell(seed=seed) for seed in range(_TRACE_MEMO_MAX_ENTRIES + 3)]
        for cell in cells:
            _trace_for(cell)
        assert len(_TRACE_MEMO) == _TRACE_MEMO_MAX_ENTRIES
        for evicted in cells[:3]:
            assert evicted.trace_key() not in _TRACE_MEMO
        for retained in cells[3:]:
            assert retained.trace_key() in _TRACE_MEMO

    def test_recently_used_entry_survives_overflow(self):
        cells = [_cell(seed=seed) for seed in range(_TRACE_MEMO_MAX_ENTRIES)]
        for cell in cells:
            _trace_for(cell)
        # Touch the oldest entry, then overflow by one: the *second* oldest
        # must be evicted (LRU), not the freshly touched one (FIFO/clear).
        kept = _trace_for(cells[0])
        _trace_for(_cell(seed=10_000))
        assert cells[0].trace_key() in _TRACE_MEMO
        assert cells[1].trace_key() not in _TRACE_MEMO
        assert _trace_for(cells[0]) is kept

    def test_memo_never_exceeds_bound(self):
        for seed in range(3 * _TRACE_MEMO_MAX_ENTRIES):
            _trace_for(_cell(seed=seed))
            assert len(_TRACE_MEMO) <= _TRACE_MEMO_MAX_ENTRIES


#: Two 2-worker golden-scale sweeps through one pool: the second sweep's
#: traces are published after the workers were forked, so the workers attach
#: them from shared memory through the parent's resource tracker.
_TWO_SWEEPS = """
from repro.analysis.reporting import GOLDEN_SCALE
from repro.runner import SweepRunner, SweepSpec

for seed in (1, 2):
    spec = SweepSpec.create(
        platforms=["ZnG-base", "ZnG"], workloads=["betw-back", "pr-gaus"],
        scale=GOLDEN_SCALE, seed=seed, warps_per_sm=4,
        memory_instructions_per_warp=32)
    result = SweepRunner(workers=2, cache=False).run(spec)
    assert len(result.runs) == 4
print("ok")
"""


class TestSharedTraceLifecycle:
    def test_two_worker_sweep_prints_no_tracker_traceback(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", _TWO_SWEEPS], env=env,
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"
        assert "resource_tracker" not in done.stderr
        assert "Traceback" not in done.stderr
