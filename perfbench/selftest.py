#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny scale.

Runs every workload over a ~2k-node scenario for a couple of seconds,
untraced and traced, and checks that:

* every metric ``BENCHMARK.json`` names is emitted, with its unit, and
  nothing else (``end_to_end`` untraced, ``per_layer`` traced);
* no request fails at this revision (``failed == 0``);
* a deliberately corrupted oracle entry is counted as a failure, so
  the correctness check cannot pass silently;
* the traced run's layer self times reconcile with its per-request
  time;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  own files, ``run.py`` exits non-zero without printing a result.

Usage, from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import workloads  # noqa: E402
from perfbench.oracle import Oracle  # noqa: E402
from perfbench.run import result_json  # noqa: E402

TINY_NODES = 2000
SECONDS = 2.0


def tiny(w: workloads.Workload) -> workloads.Workload:
    """The workload over a ~2k-node scenario."""
    return dataclasses.replace(w, nodes=TINY_NODES)


def expect_metrics(result: dict, declared: list[dict], label: str,
                   problems: list[str]) -> None:
    """Every declared metric present with its unit, nothing extra."""
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    for name, unit in want.items():
        if name not in got:
            problems.append(f"{label}: metric {name} missing")
        elif got[name]["unit"] != unit:
            problems.append(f"{label}: {name} unit {got[name]['unit']!r}"
                            f" != declared {unit!r}")
    for name in sorted(set(got) - set(want)):
        problems.append(f"{label}: undeclared metric {name}")


def main() -> int:
    """Run the checks; exit status 1 on any problem."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = ROOT / ".perfbench-out"
    workdir = out / "selftest"
    problems: list[str] = []
    names = [w["name"] for w in spec["workloads"]]
    try:
        for name in names:
            w = tiny(workloads.WORKLOADS[name])
            # one set-up per measured topology (one for most workloads)
            state, metrics = workloads.run_untraced(
                w, 1, SECONDS, workdir / f"{name}-e2e", SRC,
                setup_reps=w.topologies)
            result = result_json(state, metrics)
            expect_metrics(result, spec["end_to_end"], f"{name} trace 0",
                           problems)
            seen = len(state.notes.get("topology_p50_ms", [None]))
            if seen != w.topologies:
                problems.append(f"{name}: {seen} topologies measured, "
                                f"want {w.topologies}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name}: {result['failed']} of "
                                f"{result['attempted']} failed: "
                                f"{state.notes.get('oracle_mismatches')}")
            state, metrics = workloads.run_traced(
                w, 1, SECONDS, workdir / f"{name}-trace", SRC,
                out / f"selftest-{name}.spans.jsonl")
            result = result_json(state, metrics)
            expect_metrics(result, spec["per_layer"], f"{name} trace 1",
                           problems)
            if result["failed"]:
                problems.append(f"{name} traced: {result['failed']} "
                                f"failed")
            err = metrics["trace.reconcile_err"][0]
            if err > workloads.RECONCILE_TOLERANCE:
                problems.append(f"{name} traced: layer self times miss "
                                f"the per-request time by {err:.1%}")
            print(f"selftest: {name} ok so far ({len(problems)} "
                  f"problems)", flush=True)

        # a corrupted oracle entry must be counted as a failure
        prepare = Oracle.prepare

        async def corrupted(self, keys):
            await prepare(self, keys)
            if keys:
                self.expected[keys[0]] = "OK 0 corrupted corrupted"

        Oracle.prepare = corrupted
        try:
            state, _ = workloads.run_untraced(
                tiny(workloads.WORKLOADS[names[0]]), 1, SECONDS,
                workdir / "corrupt", SRC, setup_reps=1)
        finally:
            Oracle.prepare = prepare
        if state.failed == 0:
            problems.append("a corrupted oracle entry went unnoticed")

        # without the program's sources the command must refuse to run
        bare = workdir / "bare"
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", names[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py without sources did not refuse: "
                            f"rc={proc.returncode} out={proc.stdout!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print(f"selftest: {'FAILED' if problems else 'passed'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
