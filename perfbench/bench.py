"""Workload definitions, timing loops and output checks of the benchmark.

Every workload is a closed loop: one client submits a grid and waits for it
to finish.  Host time (what the simulator takes) and simulated time (what the
modelled GPU would take) are kept apart: ``grid_s``, ``setup_s`` and
``sim_kreq_per_s`` are host time, ``ipc_gap_vs_paper`` is simulated.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from spans import SpanRecorder, resolve
from speed import REFERENCE_FILE_PROBE_S, SpeedProbe, file_probe_loop

from repro.analysis.reporting import GOLDEN_SCALE, report_tables, write_csv
from repro.configspace import get_preset
from repro.configspace.presets import DEFAULT_MIX_TOKENS, EVAL_PLATFORMS
from repro.platforms.base import GPUSSDPlatform, PlatformResult
from repro.runner import (
    LocalResultCache,
    RunManifest,
    SweepRunner,
    SweepSpec,
    build_cell_trace,
    shutdown_worker_pools,
)

#: The seed whose per-cell record digests are committed in reference.json.
REFERENCE_SEED = 1
#: Paper figure the model is compared with: ZnG over HybridGPU, Fig. 10.
PAPER_SPEEDUP = 7.5
SETUP_REPS = 3
#: Every cell of a serial workload runs at least this often in the timed
#: phase, so at any seed each record is compared with a repeat of itself.
MIN_SAMPLES = 2
#: Warm-cache passes on the serial workloads are short (10-40 ms).  They run
#: in bursts of this many seconds, one after each timed cell once every cell
#: has a record, so that they meet the host speed states of the whole timed
#: phase rather than those of one short window.
WARM_BURST_S = 0.1

#: Knobs of the paper regime (ROADMAP north star): 24 warps/SM, 96 memory
#: instructions per warp, scale 0.4.
PAPER_KNOBS = dict(scale=0.4, warps_per_sm=24, memory_instructions_per_warp=96)
#: Small inputs for the untimed warm pass of the serial workloads: every
#: platform and workload of the grid runs once, so lazy imports and first-call
#: set-up are paid before timing.
WARM_KNOBS = dict(scale=0.1, warps_per_sm=4, memory_instructions_per_warp=32)
KV_PUT_WORKLOADS = (
    "kv-lookup:get_ratio=0.1",
    "kv-lookup:get_ratio=0.1,zipf=0.2,reuse=1.0",
)

#: (span name, owner path on the platform, attribute) of every traced
#: platform method.  Span names are ``<layer>/<function>``.
PLATFORM_WRAPS: Tuple[Tuple[str, str, str], ...] = (
    ("platforms/run", "", "run"),
    ("platforms/memory_access", "", "memory_access"),
    ("gpu/run", "gpu", "run"),
    ("gpu.mmu/translate", "mmu", "translate"),
    ("gpu.interconnect/send", "noc", "send"),
    ("gpu.l2cache/access", "l2", "access"),
    ("gpu.l2cache/fill", "l2", "fill"),
    ("gpu.l2cache/fill_page", "l2", "fill_page"),
    ("core.prefetcher/train", "prefetcher", "train"),
    ("core.prefetcher/on_miss", "prefetcher", "on_miss"),
    ("core.ftl/translate_read", "ftl", "translate_read"),
    ("core.ftl/allocate_write", "ftl", "allocate_write"),
    ("core.register_cache/write", "register_cache", "write"),
    ("core.register_cache/prepare_plane_for_read", "register_cache",
     "prepare_plane_for_read"),
    ("ssd/controllers.read", "controllers", "read"),
    ("ssd/controllers.program", "controllers", "program"),
    ("ssd/engine.service", "engine", "service"),
    ("ssd/optane.access", "optane", "access"),
)
RUNNER_SPANS = ("runner/cache.get", "runner/cache.put", "runner/manifest.write")
BENCH_SPANS = ("workloads/build_cell_trace", "platforms/build")

#: Every layer with its functions, in table order.
LAYERS: Dict[str, List[str]] = {}
for _name in BENCH_SPANS + tuple(name for name, _, _ in PLATFORM_WRAPS) + RUNNER_SPANS:
    _layer, _function = _name.split("/")
    LAYERS.setdefault(_layer, []).append(_function)

#: Simulated ratios read off each traced platform after its run:
#: name -> (numerator path, denominator paths summed).
PLATFORM_RATIOS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "gpu.mmu.tlb_hit_ratio": ("mmu.tlb.hits", ("mmu.tlb.hits", "mmu.tlb.misses")),
    "gpu.l2cache.hit_ratio": ("l2.hits", ("l2.hits", "l2.misses")),
    "core.prefetcher.waste_ratio": ("prefetcher.monitor.total_unused",
                                    ("prefetcher.monitor.total_evictions",)),
    "core.register_cache.hit_ratio": (
        "register_cache.write_hits",
        ("register_cache.write_hits", "register_cache.write_misses")),
}


def per_layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units: Dict[str, str] = {}
    for layer, functions in LAYERS.items():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.ns_per_call"] = "ns"
        units[f"{layer}.self_share"] = "share"
        if len(functions) > 1:
            for function in functions:
                units[f"{layer}.{function}.calls"] = "count"
                units[f"{layer}.{function}.ns_per_call"] = "ns"
    units["gpu.engine_events"] = "count"
    units["gpu.l1_hit_ratio"] = "share"
    for name in PLATFORM_RATIOS:
        units[name] = "share"
    units["runner.cache_hit_ratio"] = "share"
    units["runner.worker_idle_s"] = "s"
    units["tracing.overhead_s"] = "s"
    return units


END_TO_END_UNITS = {
    "grid_s": "s",
    "sim_kreq_per_s": "kreq/s",
    "warm_grid_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_cell_share": "share",
    "ipc_gap_vs_paper": "factor",
}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    platforms: Tuple[str, ...]
    workloads: Tuple[str, ...]
    knobs: Dict[str, object]
    #: 1: the benchmark builds and runs each cell itself.  More: cells go
    #: through SweepRunner with that many workers, a cache and a manifest.
    workers: int = 1

    def spec(self, seed: int, **knobs) -> SweepSpec:
        arguments = dict(self.knobs, platforms=list(self.platforms),
                         workloads=list(self.workloads), seed=seed)
        arguments.update(knobs)
        return SweepSpec.create(**arguments)


_FIG10 = get_preset("fig10")
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("fig10-tlp24", tuple(EVAL_PLATFORMS), tuple(DEFAULT_MIX_TOKENS),
                 PAPER_KNOBS),
        Workload("kv-put", ("HybridGPU", "Optane", "ZnG-base", "ZnG-wropt", "ZnG"),
                 KV_PUT_WORKLOADS, PAPER_KNOBS),
        Workload("sweep-2w", tuple(_FIG10.platforms), tuple(_FIG10.workloads),
                 dict(scale=GOLDEN_SCALE, warps_per_sm=_FIG10.warps_per_sm,
                      memory_instructions_per_warp=_FIG10.memory_instructions_per_warp),
                 workers=2),
    )
}
#: The paper comparison's cells: fig10-tlp24 restricted to the two platforms.
PAPER_PROBE = Workload("paper-probe", ("HybridGPU", "ZnG"), tuple(DEFAULT_MIX_TOKENS),
                       PAPER_KNOBS)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def record_digest(result: PlatformResult) -> str:
    """sha256 of the canonical JSON of a result record."""
    payload = json.dumps(result.to_record(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def ipc_gap_vs_paper(results: Dict[Tuple[str, str], PlatformResult]) -> Optional[float]:
    """Factor by which the model misses the paper's 7.5x (1.0 = exact).

    ``max(g / 7.5, 7.5 / g)`` with ``g`` the geometric mean over mixes of
    IPC(ZnG) / IPC(HybridGPU), in simulated time.  The form never reaches 0
    and does not fold over at 7.5, so its spread across seeds stays small.
    None when a cell it needs has no result.
    """
    try:
        logs = [math.log(results[("ZnG", mix)].ipc / results[("HybridGPU", mix)].ipc)
                for mix in sorted(DEFAULT_MIX_TOKENS)]
    except KeyError:
        return None
    speedup = math.exp(sum(logs) / len(logs))
    return max(speedup / PAPER_SPEEDUP, PAPER_SPEEDUP / speedup)


#: Child program timing its own import of the simulator with the probe.
_IMPORT_TIMER = """
from speed import SpeedProbe
with SpeedProbe() as probe:
    import repro.runner, repro.platforms, repro.analysis.reporting
print(probe.normalised, probe.seconds)
"""


def import_seconds(root: Path) -> Tuple[float, float]:
    """Normalised and raw seconds a fresh interpreter takes to import the
    simulator, measured inside that interpreter."""
    path = os.pathsep.join([str(root / "src"), str(Path(__file__).parent)])
    output = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER], cwd=root, check=True,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True).stdout
    normalised, raw = output.split()
    return float(normalised), float(raw)


def build_traces(cells, recorder: Optional[SpanRecorder] = None) -> Dict[Tuple, object]:
    traces: Dict[Tuple, object] = {}
    for cell in cells:
        key = cell.trace_key()
        if key in traces:
            continue
        if recorder is None:
            traces[key] = build_cell_trace(cell)
        else:
            with recorder.span("workloads/build_cell_trace"):
                traces[key] = build_cell_trace(cell)
    return traces


def _peak_rss_kib(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Own peak RSS plus the peak RSS of every live worker process.

    Read while the sweep pool that ran the timed passes is still alive; the
    import-timer interpreters are plain subprocesses and are not counted.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += sum(_peak_rss_kib(child.pid) for child in multiprocessing.active_children())
    return kib / 1024.0


@dataclass
class Outcome:
    """What a run measured and checked."""

    metrics: Dict[str, Optional[float]] = field(default_factory=dict)
    #: Host-time metrics as measured, before speed normalisation.
    raw: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    cell_seconds: Dict[str, List[float]] = field(default_factory=dict)
    table: str = ""


class Checker:
    """Compares every produced record with the reference or the first one."""

    def __init__(self, reference: Optional[Dict[str, str]], outcome: Outcome) -> None:
        self.reference = reference
        self.outcome = outcome
        self.seen: Dict[str, str] = {}
        self.cells: set = set()
        self.failed_cells: set = set()

    def check(self, label: str, digest: str, what: str) -> None:
        self.outcome.attempted += 1
        self.cells.add(label)
        expected = self.seen.setdefault(label, digest)
        if self.reference is not None:
            expected = self.reference.get(label)
        if digest != expected:
            self.fail(f"{label}: {what} record differs", [label])

    def fail(self, message: str, labels: Sequence[str]) -> None:
        """Record a failure that makes the cells ``labels`` count as failed."""
        self.outcome.failures.append(message)
        self.cells.update(labels)
        self.failed_cells.update(labels)

    def attempt(self, cell, call: Callable[[], object], what: str):
        """``call()``, or None with the cell failed when it raises."""
        try:
            return call()
        except Exception as error:  # a raising cell is a failed cell
            self.outcome.attempted += 1
            self.fail(f"{cell.label}: {what} run raised {type(error).__name__}: {error}",
                      [cell.label])
            return None

    def check_pass(self, result, labels: Sequence[str], what: str,
                   from_cache: bool) -> None:
        """Check every cell of a ``SweepRunner`` pass: each must return a
        matching record, from the cache exactly when ``from_cache``."""
        for failure in result.failed:
            self.outcome.attempted += 1
            self.fail(f"{failure.label}: {what} run raised: "
                      f"{failure.error.strip().splitlines()[-1]}", [failure.label])
        returned = {run.cell.label for run in result.runs}
        returned.update(failure.label for failure in result.failed)
        absent = [label for label in labels if label not in returned]
        if absent:
            self.fail(f"{what} pass returned no record for {', '.join(absent)}", absent)
        for run in result.runs:
            if run.from_cache != from_cache:
                self.fail(f"{run.cell.label}: {what} record "
                          f"{'not ' if from_cache else ''}served from the cache",
                          [run.cell.label])
            self.check(run.cell.label, record_digest(run.result), what)


def ok_cell_share(*checkers: Checker) -> float:
    """Share of the distinct cells checked that neither raised nor
    produced a record that failed a check."""
    cells = set().union(*(checker.cells for checker in checkers))
    failed = set().union(*(checker.failed_cells for checker in checkers))
    return 1.0 - len(failed) / len(cells)


# ---------------------------------------------------------------------------
# Tracing of the objects the benchmark builds
# ---------------------------------------------------------------------------


class PlatformTrace:
    """Wraps platforms as they are built and sums their simulated ratios."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.ratio_parts: Dict[str, List[float]] = {}
        self.events = 0
        self.l1 = [0, 0]

    def attach(self, platform: GPUSSDPlatform) -> None:
        for name, owner_path, attr in PLATFORM_WRAPS:
            owner = resolve(platform, owner_path)
            if owner is not None:
                self.recorder.wrap(owner, attr, name)

    def observe(self, platform: GPUSSDPlatform, result: PlatformResult) -> None:
        self.events += int(result.execution.events)
        for sm in result.execution.per_sm.values():
            self.l1[0] += sm.l1_hits
            self.l1[1] += sm.l1_hits + sm.l1_misses
        for name, (numerator, denominators) in PLATFORM_RATIOS.items():
            top = resolve(platform, numerator)
            bottom = [resolve(platform, path) for path in denominators]
            if top is None or any(part is None for part in bottom):
                continue
            parts = self.ratio_parts.setdefault(name, [0.0, 0.0])
            parts[0] += float(top)
            parts[1] += float(sum(bottom))


def _ratio(parts: Optional[Sequence[float]]) -> Optional[float]:
    if parts is None:
        return None
    return parts[0] / parts[1] if parts[1] else 0.0


def layer_metrics(recorder: SpanRecorder, platforms: PlatformTrace,
                  extra: Dict[str, Optional[float]]) -> Tuple[Dict[str, Optional[float]], str]:
    """Per-layer metrics plus the printed self-time table."""
    totals = recorder.totals()
    grand = sum(entry["self_s"] for entry in totals.values()) or 1.0
    metrics: Dict[str, Optional[float]] = {}
    lines = [f"{'layer / function':48s} {'calls':>10s} {'self_s':>10s} "
             f"{'share':>7s} {'ns/call':>10s}"]

    def row(label: str, calls: int, self_s: float) -> float:
        ns = self_s / calls * 1e9 if calls else 0.0
        lines.append(f"{label:48s} {calls:10d} {self_s:10.3f} "
                     f"{self_s / grand:7.1%} {ns:10.0f}")
        return ns

    for layer, functions in LAYERS.items():
        names = [f"{layer}/{function}" for function in functions]
        present = [name for name in names if not recorder.missing(name)]
        keys = [f"{layer}.{suffix}" for suffix in
                ("calls", "self_s", "ns_per_call", "self_share")]
        if present:
            calls = sum(totals.get(name, {}).get("calls", 0) for name in present)
            self_s = sum(totals.get(name, {}).get("self_s", 0.0) for name in present)
            ns = row(layer, calls, self_s)
            metrics.update(zip(keys, (calls, self_s, ns, self_s / grand)))
        else:
            lines.append(f"{layer:48s} {'missing':>10s}")
            metrics.update(dict.fromkeys(keys))
        for function, name in zip(functions, names):
            calls = ns = None
            if name in present:
                entry = totals.get(name, {"calls": 0, "self_s": 0.0})
                calls = entry["calls"]
                ns = row(f"  {function}", calls, entry["self_s"])
            else:
                lines.append(f"{'  ' + function:48s} {'missing':>10s}")
            if len(functions) > 1:
                metrics[f"{layer}.{function}.calls"] = calls
                metrics[f"{layer}.{function}.ns_per_call"] = ns
    metrics["gpu.engine_events"] = platforms.events
    metrics["gpu.l1_hit_ratio"] = _ratio(platforms.l1)
    for name in PLATFORM_RATIOS:
        metrics[name] = _ratio(platforms.ratio_parts.get(name))
    metrics.update(extra)
    return metrics, "\n".join(lines)


# ---------------------------------------------------------------------------
# Serial workloads: fig10-tlp24, kv-put
# ---------------------------------------------------------------------------


@dataclass
class CellSample:
    """One build-and-run of a cell, each step timed with the speed probe."""

    build: SpeedProbe
    run: SpeedProbe

    @property
    def normalised(self) -> float:
        return self.build.normalised + self.run.normalised

    @property
    def seconds(self) -> float:
        return self.build.seconds + self.run.seconds


def run_cell(cell, config, trace, platforms: Optional[PlatformTrace] = None
             ) -> Tuple[PlatformResult, CellSample]:
    """Build and run one cell after a collection, so garbage of the previous
    cell is not charged to it."""
    gc.collect()
    with SpeedProbe() as build:
        if platforms is None:
            platform = GPUSSDPlatform.build(cell.platform, config)
        else:
            with platforms.recorder.span("platforms/build"):
                platform = GPUSSDPlatform.build(cell.platform, config)
            platforms.attach(platform)
    with SpeedProbe() as run:
        result = platform.run(trace)
    if platforms is not None:
        platforms.observe(platform, result)
    return result, CellSample(build, run)


def setup_samples(root: Path, make_spec: Callable[[], SweepSpec],
                  extra: Optional[Callable[[], SpeedProbe]] = None):
    """Run set-up ``SETUP_REPS`` times.

    Returns the median normalised and raw seconds, and the spec, cells,
    resolved configs and traces of the last repetition.
    """
    normalised, raw = [], []
    for _ in range(SETUP_REPS):
        import_normalised, import_raw = import_seconds(root)
        probes = []
        with SpeedProbe() as probe:
            spec = make_spec()
            cells = spec.cells()
            configs = [cell.resolved_config() for cell in cells]
            traces = build_traces(cells)
        probes.append(probe)
        if extra is not None:
            probes.append(extra())
        normalised.append(import_normalised + sum(p.normalised for p in probes))
        raw.append(import_raw + sum(p.seconds for p in probes))
    return (statistics.median(normalised), statistics.median(raw),
            spec, cells, configs, traces)


def paper_probe(seed: int, checker: Checker) -> Optional[float]:
    """``ipc_gap_vs_paper`` from the paper regime's HybridGPU and ZnG cells,
    each run ``MIN_SAMPLES`` times so that its record meets a repeat."""
    cells = PAPER_PROBE.spec(seed).cells()
    traces = build_traces(cells)
    results = {}
    for _ in range(MIN_SAMPLES):
        for cell in cells:
            ran = checker.attempt(cell, lambda: run_cell(
                cell, cell.resolved_config(), traces[cell.trace_key()]), "paper-probe")
            if ran is not None:
                checker.check(cell.label, record_digest(ran[0]), "paper-probe")
                results[(cell.platform, cell.workload)] = ran[0]
    return ipc_gap_vs_paper(results)


def cache_probe() -> SpeedProbe:
    """Speed probe for a pass served from the result cache."""
    return SpeedProbe(file_probe_loop, REFERENCE_FILE_PROBE_S)


class WarmCache:
    """A result cache filled with the grid's records, and the timed grid
    passes a serial ``SweepRunner`` serves entirely from it."""

    def __init__(self, cache_dir: Path, spec: SweepSpec, cells,
                 results: Dict[str, PlatformResult]) -> None:
        self.cache_dir = cache_dir
        self.spec = spec
        self.labels = [cell.label for cell in cells]
        self.probes: List[SpeedProbe] = []
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache = LocalResultCache(cache_dir)
        for cell in cells:
            if cell.label in results:
                cache.put(cell.cache_key(), results[cell.label], cell.descriptor())

    def burst(self) -> None:
        """Time passes for ``WARM_BURST_S``, at least one."""
        gc.collect()
        started = time.perf_counter()
        while True:
            with cache_probe() as probe:
                self.last = SweepRunner(cache=LocalResultCache(self.cache_dir)).run(
                    self.spec, on_error="record")
            self.probes.append(probe)
            if time.perf_counter() - started >= WARM_BURST_S:
                return

    def finish(self, checker: Checker) -> Tuple[float, float]:
        """Remove the cache; return the median normalised and raw pass time."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        # Every pass parses the same entries, so the last pass stands for all.
        checker.check_pass(self.last, self.labels, "cached", from_cache=True)
        return (statistics.median(p.normalised for p in self.probes),
                statistics.median(p.seconds for p in self.probes))


def run_serial(workload: Workload, seed: int, seconds: float, trace: bool,
               root: Path, out: Path, reference: Optional[Dict[str, str]],
               probe_reference: Optional[Dict[str, str]]) -> Outcome:
    outcome = Outcome()
    checker = Checker(reference, outcome)
    setup_s, setup_raw, spec, cells, configs, traces = setup_samples(
        root, lambda: workload.spec(seed))

    warm_cells = workload.spec(seed, **WARM_KNOBS).cells()
    warm_traces = build_traces(warm_cells)
    for cell in warm_cells:
        checker.attempt(cell, lambda: run_cell(
            cell, cell.resolved_config(), warm_traces[cell.trace_key()]), "warm-up")
    del warm_traces

    samples: Dict[str, List[CellSample]] = {cell.label: [] for cell in cells}
    results: Dict[str, PlatformResult] = {}
    raised: set = set()

    def sample(index: int, platforms: Optional[PlatformTrace] = None) -> float:
        cell = cells[index]
        what = "traced" if platforms else "timed"
        ran = checker.attempt(cell, lambda: run_cell(
            cell, configs[index], traces[cell.trace_key()], platforms), what)
        if ran is None:
            raised.add(index)
            return 0.0
        result, timing = ran
        checker.check(cell.label, record_digest(result), what)
        results[cell.label] = result
        if platforms is None:
            samples[cell.label].append(timing)
        return timing.normalised

    if trace:
        recorder = SpanRecorder()
        platforms = PlatformTrace(recorder)
        build_traces(cells, recorder)
        untraced = traced = 0.0
        for index in range(len(cells)):
            untraced += sample(index)
            traced += sample(index, platforms)
        outcome.metrics, outcome.table = layer_metrics(recorder, platforms, {
            "runner.cache_hit_ratio": 0.0,
            "runner.worker_idle_s": 0.0,
            "tracing.overhead_s": traced - untraced,
        })
        recorder.dump(out / f"spans-{workload.name}.npz")
        return outcome

    started = time.perf_counter()
    index = 0
    warm: Optional[WarmCache] = None
    while len(raised) < len(cells) and (
            index < MIN_SAMPLES * len(cells) or time.perf_counter() - started < seconds):
        if index % len(cells) not in raised:
            sample(index % len(cells))
        index += 1
        if index >= len(cells) and results:
            warm = warm or WarmCache(out / "cache-warm", spec, cells, results)
            warm.burst()
    if warm is None:
        return outcome

    def grid(value: Callable[[CellSample], float]) -> float:
        return sum(statistics.median(value(s) for s in cell_samples)
                   for cell_samples in samples.values() if cell_samples)

    requests = sum(result.execution.memory_requests for result in results.values())
    outcome.cell_seconds = {label: [s.normalised for s in cell_samples]
                            for label, cell_samples in samples.items()}
    by_key = {(cell.platform, cell.workload): results[cell.label]
              for cell in cells if cell.label in results}
    probe_checker = Checker(probe_reference, outcome)
    if workload.name == "fig10-tlp24":
        gap = ipc_gap_vs_paper(by_key)
    else:
        gap = paper_probe(seed, probe_checker)
    warm_s, warm_raw = warm.finish(checker)
    outcome.metrics = {
        "grid_s": grid(lambda s: s.normalised),
        "sim_kreq_per_s": requests / grid(lambda s: s.run.normalised) / 1e3,
        "warm_grid_s": warm_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_cell_share": ok_cell_share(checker, probe_checker),
        "ipc_gap_vs_paper": gap,
    }
    outcome.raw = {
        "grid_s": grid(lambda s: s.seconds),
        "sim_kreq_per_s": requests / grid(lambda s: s.run.seconds) / 1e3,
        "warm_grid_s": warm_raw,
        "setup_s": setup_raw,
    }
    return outcome


# ---------------------------------------------------------------------------
# sweep-2w: the runner-bound workload
# ---------------------------------------------------------------------------


def _sweep_iteration(spec: SweepSpec, cache_dir: Path, workers: int,
                     wrap: Optional[Callable[[SweepRunner], None]] = None):
    """One cold pass into a fresh cache, then one pass served from it."""
    shutil.rmtree(cache_dir, ignore_errors=True)
    passes = []
    for name in ("cold", "warm"):
        runner = SweepRunner(workers=workers, cache=LocalResultCache(cache_dir))
        if wrap is not None:
            wrap(runner)
        gc.collect()
        with (SpeedProbe() if name == "cold" else cache_probe()) as probe:
            result = runner.run(spec, manifest_path=cache_dir / f"manifest-{name}.json",
                                on_error="record")
        passes.append((probe, result))
    shutil.rmtree(cache_dir, ignore_errors=True)
    return passes


def _check_sweep(passes, checker: Checker, labels: Sequence[str]) -> None:
    """Cold pass executed, warm pass served from the cache, and every record
    equal to the cell's serial record (checked first) or, at the reference
    seed, to the reference."""
    (_, cold), (_, warm) = passes
    checker.check_pass(cold, labels, "2-worker", from_cache=False)
    checker.check_pass(warm, labels, "cached", from_cache=True)


def _worker_idle_s(probe: SpeedProbe, result, workers: int) -> float:
    """Workers x wall time of a pass minus the cell time they reported."""
    busy = sum(sum(run.timings.values()) for run in result.runs)
    return workers * probe.seconds - busy


def run_sweep(workload: Workload, seed: int, seconds: float, trace: bool,
              root: Path, out: Path, reference: Optional[Dict[str, str]],
              probe_reference: Optional[Dict[str, str]]) -> Outcome:
    outcome = Outcome()
    checker = Checker(reference, outcome)
    workers = workload.workers
    tiny = workload.spec(seed, platforms=["ZnG-base", "ZnG"], workloads=["betw-back"],
                         scale=0.02, warps_per_sm=1)

    def pool_start() -> SpeedProbe:
        shutdown_worker_pools()
        with SpeedProbe() as probe:
            SweepRunner(workers=workers).run(tiny)
        return probe

    setup_s, setup_raw, spec, cells, configs, traces = setup_samples(
        root, lambda: workload.spec(seed), pool_start)
    cache_dir = out / "cache-sweep"
    _sweep_iteration(spec, cache_dir, workers)  # untimed warm pass

    platforms = None
    if trace:
        recorder = SpanRecorder()
        platforms = PlatformTrace(recorder)
        build_traces(cells, recorder)
    labels = [cell.label for cell in cells]
    for index, cell in enumerate(cells):
        ran = checker.attempt(cell, lambda: run_cell(
            cell, configs[index], traces[cell.trace_key()], platforms), "serial")
        if ran is not None:
            checker.check(cell.label, record_digest(ran[0]), "serial")

    if trace:
        untraced = _sweep_iteration(spec, cache_dir, workers)
        _check_sweep(untraced, checker, labels)

        def wrap(runner: SweepRunner) -> None:
            recorder.wrap(runner.cache, "get", "runner/cache.get")
            recorder.wrap(runner.cache, "put", "runner/cache.put")

        original_write = RunManifest.__dict__.get("write")
        recorder.wrap(RunManifest, "write", "runner/manifest.write")
        try:
            traced = _sweep_iteration(spec, cache_dir, workers, wrap)
        finally:
            if original_write is not None:
                RunManifest.write = original_write
        _check_sweep(traced, checker, labels)
        hits = sum(result.cache_hits for _, result in traced)
        lookups = sum(result.cache_hits + result.cache_misses for _, result in traced)
        outcome.metrics, outcome.table = layer_metrics(recorder, platforms, {
            "runner.cache_hit_ratio": hits / lookups,
            "runner.worker_idle_s": _worker_idle_s(*untraced[0], workers),
            "tracing.overhead_s": traced[0][0].normalised - untraced[0][0].normalised,
        })
        recorder.dump(out / f"spans-{workload.name}.npz")
        return outcome

    # Only the first cold result is kept whole, so the benchmark's own memory
    # does not grow with the number of passes and move peak_rss_mb.
    first = None
    cold: List[Tuple[SpeedProbe, int, float]] = []  # probe, requests, simulate s
    warm: List[SpeedProbe] = []
    started = time.perf_counter()
    while not cold or time.perf_counter() - started < seconds:
        passes = _sweep_iteration(spec, cache_dir, workers)
        _check_sweep(passes, checker, labels)
        (cold_probe, result), (warm_probe, _) = passes
        first = first or result
        cold.append((cold_probe, sum(run.result.execution.memory_requests
                                     for run in result.runs), result.simulate_seconds))
        warm.append(warm_probe)
        del passes, result
    outcome.cell_seconds = {"cold_pass": [probe.normalised for probe, _, _ in cold],
                            "warm_pass": [probe.normalised for probe in warm]}

    if seed == REFERENCE_SEED:
        golden = root / "tests" / "data" / "report" / "fig10.csv"
        matches = False
        if golden.is_file() and len(first.runs) == len(cells):
            header, rows = report_tables(first)["fig10"]
            derived = write_csv(out / "fig10.csv", header, rows)
            matches = derived.read_bytes() == golden.read_bytes()
        if not matches:
            checker.fail(f"fig10 pivot does not byte-match {golden.relative_to(root)}",
                         labels)

    def kreq(normalise: bool) -> float:
        return statistics.median(
            requests / (simulate * probe.speed if normalise else simulate) / 1e3
            for probe, requests, simulate in cold)

    probe_checker = Checker(probe_reference, outcome)
    gap = paper_probe(seed, probe_checker)
    outcome.metrics = {
        "grid_s": statistics.median(probe.normalised for probe, _, _ in cold),
        "sim_kreq_per_s": kreq(True),
        "warm_grid_s": statistics.median(probe.normalised for probe in warm),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_cell_share": ok_cell_share(checker, probe_checker),
        "ipc_gap_vs_paper": gap,
    }
    outcome.raw = {
        "grid_s": statistics.median(probe.seconds for probe, _, _ in cold),
        "sim_kreq_per_s": kreq(False),
        "warm_grid_s": statistics.median(probe.seconds for probe in warm),
        "setup_s": setup_raw,
    }
    return outcome


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 out: Path, reference: Dict[str, Dict[str, str]]) -> Outcome:
    workload = WORKLOADS[name]
    own = reference.get(name) if seed == REFERENCE_SEED else None
    probe = reference.get("fig10-tlp24") if seed == REFERENCE_SEED else None
    runner = run_sweep if workload.workers > 1 else run_serial
    try:
        return runner(workload, seed, seconds, trace, root, out, own, probe)
    finally:
        shutdown_worker_pools()


def reference_digests(seed: int = REFERENCE_SEED) -> Dict[str, Dict[str, str]]:
    """Per-cell record digests of every workload, from serial runs."""
    digests: Dict[str, Dict[str, str]] = {}
    for name, workload in WORKLOADS.items():
        cells = workload.spec(seed).cells()
        traces = build_traces(cells)
        digests[name] = {
            cell.label: record_digest(
                GPUSSDPlatform.execute(cell.platform, traces[cell.trace_key()],
                                       cell.resolved_config()))
            for cell in cells
        }
    return digests
