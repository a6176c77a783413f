"""Streaming multiprocessor and whole-GPU timing model.

The SM model is cycle-approximate: an SM issues at most one instruction per
cycle, switches among ready warps (latency hiding), coalesces memory accesses,
probes its private L1D, and forwards misses to the platform's memory subsystem
through a callback.  The GPU core interleaves all SMs' warps on one event heap
so that contention in the shared memory system (L2 banks, flash channels,
SSD engine) is observed in roughly the right time order.

This reproduces the behaviour the paper's figures depend on — latency hiding
up to ``max_warps``, the 128 B coalesced request stream, L1/L2 filtering and
the memory system as the bottleneck — without modelling the exact GTX580
pipeline.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import GPUConfig
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.coalescer import CoalescingUnit
from repro.gpu.mshr import MSHR
from repro.gpu.warp import Instruction, WarpTrace
from repro.sim.request import AccessType, MemoryRequest
from repro.sim.engine import Resource
from repro.telemetry import core as _telemetry

#: Signature of the platform memory hook: (request, now) -> completion cycle.
MemoryAccessFn = Callable[[MemoryRequest, float], float]


@dataclass
class SMStatistics:
    """Per-SM execution statistics."""

    instructions: int = 0
    memory_instructions: int = 0
    memory_requests: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    completion_cycle: float = 0.0


class StreamingMultiprocessor:
    """One SM: issue port, coalescer, private L1D and MSHRs."""

    def __init__(self, sm_id: int, config: GPUConfig) -> None:
        self.sm_id = sm_id
        self.config = config
        self.issue_port = Resource(f"sm{sm_id}_issue", ports=1)
        self.coalescer = CoalescingUnit(
            request_bytes=config.memory_request_bytes,
            threads_per_warp=config.threads_per_warp,
        )
        self.l1 = SetAssociativeCache(
            name=f"sm{sm_id}_l1d",
            size_bytes=config.l1_size_bytes,
            assoc=config.l1_assoc,
            line_bytes=config.l1_line_bytes,
        )
        self.mshr = MSHR(f"sm{sm_id}_mshr", config.l1_mshr_entries)
        self.stats = SMStatistics()
        self._l1_latency = float(config.l1_latency_cycles)

    # ------------------------------------------------------------------
    def execute_instruction(
        self,
        instruction: Instruction,
        warp_id: int,
        now: float,
        memory_fn: MemoryAccessFn,
    ) -> float:
        """Execute one trace record for a warp; return the warp's next ready cycle."""
        stats = self.stats
        # The issue port is booked inline with the single-port fast path of
        # repro.sim.engine (one or two bookings per instruction).
        port = self.issue_port
        free_at = port._free_at
        ready = now
        # Arithmetic portion: occupies the issue port for one cycle per op.
        compute_ops = instruction.compute_ops
        if compute_ops:
            duration = float(compute_ops)
            free = free_at[0]
            start = ready if ready > free else free
            completion = start + duration
            free_at[0] = completion
            port.busy_cycles += duration
            port.wait_cycles += start - ready
            port.requests_served += 1
            port.last_completion = completion
            ready = completion
            stats.instructions += compute_ops

        if not instruction.addresses:
            return ready

        # Memory instruction: one issue slot, then coalescing and the cache path.
        free = free_at[0]
        start = ready if ready > free else free
        completion = start + 1.0
        free_at[0] = completion
        port.busy_cycles += 1.0
        port.wait_cycles += start - ready
        port.requests_served += 1
        port.last_completion = completion
        ready = completion
        stats.instructions += 1
        stats.memory_instructions += 1

        coalescer = self.coalescer
        segments = coalescer.segments(instruction.addresses, instruction.segments)
        access = instruction.access
        is_write = access is AccessType.WRITE
        size = coalescer.request_bytes
        pc = instruction.pc
        sm_id = self.sm_id
        l1 = self.l1
        line_bytes = l1.line_bytes
        mshr = self.mshr
        l1_ready = ready + self._l1_latency
        completion = ready
        stats.memory_requests += len(segments)
        # Each segment is one coalesced request; a MemoryRequest is built
        # only for the ones that go below the L1.  Writes never probe the
        # MSHR.  Its probes retire finished entries lazily, and the issue
        # port hands out non-decreasing start cycles, so each probe sees a
        # ``ready`` no earlier than the last one: retiring at the next read's
        # probe leaves the same entries.
        for address in segments:
            if is_write:
                # Write-through, no-allocate L1 (typical for GPU L1D): the
                # write always goes below; a stale copy is invalidated.
                l1.invalidate(address)
                finish = memory_fn(
                    MemoryRequest(address, size, access, warp_id, sm_id, pc, ready),
                    l1_ready)
            elif l1.lookup(address):
                stats.l1_hits += 1
                finish = l1_ready
            else:
                stats.l1_misses += 1
                line_address = (address // line_bytes) * line_bytes
                inflight_fill = mshr.lookup(line_address, ready)
                if inflight_fill is not None:
                    # Secondary miss: piggyback on the outstanding fill.
                    mshr.allocate(line_address, ready, inflight_fill)
                    finish = inflight_fill
                    if finish < l1_ready:
                        finish = l1_ready
                else:
                    finish = memory_fn(
                        MemoryRequest(address, size, access, warp_id, sm_id, pc, ready),
                        l1_ready)
                    mshr.allocate(line_address, ready, finish)
                    l1.insert(address)
            if finish > completion:
                completion = finish
        return completion

    def reset(self) -> None:
        self.issue_port.reset()
        self.l1.clear()
        self.mshr.reset()
        self.coalescer.reset()
        self.stats = SMStatistics()


@dataclass
class GPUExecutionResult:
    """Outcome of running a set of warp traces on the GPU core."""

    cycles: float
    instructions: int
    memory_requests: int
    ipc: float
    per_sm: Dict[int, SMStatistics] = field(default_factory=dict)
    #: Scheduler events processed (warp wake-ups, including completions),
    #: surfaced in the perf report as ``events_processed`` /
    #: ``events_per_sec``.
    events: int = 0

    def normalized_to(self, baseline: "GPUExecutionResult") -> float:
        """IPC of this run normalised to another run (Fig. 10 style)."""
        if baseline.ipc == 0:
            return 0.0
        return self.ipc / baseline.ipc


class GPUCore:
    """The full GPU: a set of SMs sharing one memory subsystem hook.

    Warp events are scheduled on one global binary heap and each coalesced
    request is serviced through the memory hook as it issues.
    """

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.sms = [StreamingMultiprocessor(i, config) for i in range(config.num_sms)]
        #: Deepest the event queue got during the last :meth:`run` (telemetry
        #: only — sampled when tracing is enabled, 0 otherwise; never enters
        #: the result record).
        self.last_max_queue_depth = 0

    def run(
        self,
        traces: Sequence[WarpTrace],
        memory_fn: MemoryAccessFn,
        max_resident_warps: Optional[int] = None,
    ) -> GPUExecutionResult:
        """Execute the warp traces to completion and report timing."""
        if not traces:
            return GPUExecutionResult(cycles=0.0, instructions=0, memory_requests=0, ipc=0.0)
        resident_limit = max_resident_warps or self.config.max_warps_per_sm
        sms = self.sms
        sm_count = len(sms)
        push = heapq.heappush
        pop = heapq.heappop
        replace = heapq.heapreplace

        # Warp events are (ready_cycle, sequence, trace, position) tuples.
        # Warps beyond the residency limit of an SM start only when an earlier
        # warp on that SM finishes, which approximates thread-block
        # scheduling.
        heap: List = []
        sequence = 0
        pending: Dict[int, List[WarpTrace]] = {}
        for trace in traces:
            pending.setdefault(trace.sm_id % sm_count, []).append(trace)
        for sm_traces in pending.values():
            for trace in sm_traces[:resident_limit]:
                push(heap, (0.0, sequence, trace, 0))
                sequence += 1
            del sm_traces[:resident_limit]

        final_cycle = 0.0
        events = 0
        # Event-loop depth is sampled only when telemetry is armed: the flag
        # is hoisted out of the loop so the disabled path pays one bool test
        # per event and the numbers themselves are identical either way.
        trace_depth = _telemetry.enabled()
        max_depth = 0
        while heap:
            if trace_depth and len(heap) > max_depth:
                max_depth = len(heap)
            # The earliest event stays on the heap while its instruction
            # runs (nothing else touches the heap meanwhile) and is replaced
            # by the warp's next event in one sift.  (ready, sequence) keys
            # are unique, so the pop order is that of a pop then a push.
            ready, _, trace, position = heap[0]
            events += 1
            instructions = trace.instructions
            sm = sms[trace.sm_id % sm_count]
            if position >= len(instructions):
                pop(heap)
                # Warp finished: admit the next pending warp on this SM.
                waiting = pending.get(trace.sm_id % sm_count)
                if waiting:
                    push(heap, (ready, sequence, waiting.pop(0), 0))
                    sequence += 1
                if ready > final_cycle:
                    final_cycle = ready
                if ready > sm.stats.completion_cycle:
                    sm.stats.completion_cycle = ready
                continue
            next_ready = sm.execute_instruction(
                instructions[position], trace.warp_id, ready, memory_fn
            )
            replace(heap, (next_ready, sequence, trace, position + 1))
            sequence += 1

        self.last_max_queue_depth = max_depth
        total_instructions = sum(sm.stats.instructions for sm in sms)
        total_requests = sum(sm.stats.memory_requests for sm in sms)
        cycles = max(final_cycle, 1.0)
        return GPUExecutionResult(
            cycles=cycles,
            instructions=total_instructions,
            memory_requests=total_requests,
            ipc=total_instructions / cycles,
            per_sm={sm.sm_id: sm.stats for sm in sms},
            events=events,
        )

    def reset(self) -> None:
        for sm in self.sms:
            sm.reset()
