#!/usr/bin/env python3
"""Run one benchmark workload against the route service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lookup-skew --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` spawns the serving daemons and reports the end-to-end
metrics; ``--trace 1`` runs the front end in this process with every
``service/`` layer's calls wrapped and reports the per-layer metrics
(spans are written to ``.perfbench-out/``).  Every metric is printed
as ``metric <name> = <value> <unit>``, the run's settings as one
``provenance {...}`` line, and the last line is the JSON result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every reply is checked against an independent oracle; any mismatch,
and for ``churn`` any final snapshot that differs from a from-scratch
build, makes ``correct`` false and the exit status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def code_revision() -> str:
    """The git revision, or a digest of the sources outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()


def result_json(state, metrics: dict) -> dict:
    """The result object printed as the last line of a run."""
    return {
        "correct": state.failed == 0,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the workload, print the result."""
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="route-service benchmark (one workload per run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "service").is_dir():
        print(f"perfbench: no route service sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.trace import LAYER_MAP
    from perfbench.workloads import (WORKLOADS, provenance,
                                     run_traced, run_untraced)

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    # a terminated run still stops the daemons it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out_dir = ROOT / ".perfbench-out"
    workdir = out_dir / f"work-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    t0 = time.perf_counter()
    try:
        if args.trace:
            state, metrics = run_traced(workload, args.seed, args.seconds,
                                        workdir, SRC,
                                        out_dir / f"{stem}.spans.jsonl")
        else:
            state, metrics = run_untraced(workload, args.seed,
                                          args.seconds, workdir, SRC)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(workload, args.seed, args.seconds)
    prov.update({
        "revision": code_revision(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "trace": args.trace,
        "wall_s": round(time.perf_counter() - t0, 2),
        "attempted": state.attempted, "failed": state.failed,
        "notes": state.notes,
        "reported": {name: value
                     for name, (value, _) in state.reported.items()},
    })
    if args.trace:
        prov["layer_to_end_to_end"] = LAYER_MAP
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, (value, unit) in state.reported.items():
        print(f"metric {name} = {value:.6g} {unit} (reported, not gated)")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = result_json(state, metrics)
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"result": result, "provenance": prov}, indent=1)
        + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if state.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
