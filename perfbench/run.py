"""Paper-regime benchmark of the ZnG reproduction: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig10-tlp24 --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics; ``--trace 1`` wraps the public methods of the objects the benchmark
builds, prints the per-layer self-time table and the per-layer metrics, and
writes the spans to ``.perfbench/spans-<workload>.npz``.  Every run checks
the simulator's records (see ``perfbench/README.md``).  The last line of
standard output is one JSON object; the exit code is 0 only when every check
passed.

``--write-reference`` recomputes ``perfbench/reference.json``, the per-cell
record digests at the reference seed.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"


def source_digest() -> str:
    """Commit when the checkout is a git repository, else a hash of ``src``."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
        return f"git:{head}"
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
        return f"src-sha256:{digest.hexdigest()[:16]}"


def stop_children() -> None:
    """Stop multiprocessing's resource tracker and wait for every child.

    Registered with atexit before anything imports multiprocessing, so it runs
    after the simulator's own exit hooks have shut its worker pools and
    released its shared-memory traces.  The resource tracker exits once it
    reads end-of-file on its pipe; left alone, that happens only after this
    process has gone, and the tracker outlives the benchmark.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def guard_processes() -> None:
    """Make sure no process this benchmark starts outlives it."""
    atexit.register(stop_children)
    # On SIGTERM, exit through the atexit hooks; forked workers keep the default.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("fig10-tlp24", "kv-put", "sweep-2w"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    guard_processes()
    OUT.mkdir(exist_ok=True)
    # Keep temporary files of the simulator and its workers in the checkout.
    os.environ["TMPDIR"] = str(OUT)
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.write_reference:
        REFERENCE.write_text(json.dumps(bench.reference_digests(), indent=1,
                                        sort_keys=True) + "\n")
        print(f"wrote {REFERENCE.relative_to(ROOT)}")
        return 0

    reference = json.loads(REFERENCE.read_text())
    started = time.perf_counter()
    outcome = bench.run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), ROOT, OUT, reference)
    units = bench.per_layer_metric_units() if args.trace else bench.END_TO_END_UNITS
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": source_digest(),
        "wall_s": time.perf_counter() - started,
    }
    print("# " + " ".join(f"{key}={value}" for key, value in provenance.items()))
    if outcome.table:
        print(outcome.table)
    for name, unit in units.items():
        value = outcome.metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        raw = outcome.raw.get(name)
        note = "" if raw is None else f"  (as measured: {raw:.6g} {unit})"
        print(f"{name:48s} {shown:>14s} {unit}{note}")
    for failure in outcome.failures:
        print(f"FAILED: {failure}")
    correct = not outcome.failures
    (OUT / f"last-{args.workload}.json").write_text(json.dumps({
        "provenance": provenance, "correct": correct, "failures": outcome.failures,
        "metrics": outcome.metrics, "raw": outcome.raw,
        "cell_seconds": outcome.cell_seconds,
    }, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": outcome.metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
