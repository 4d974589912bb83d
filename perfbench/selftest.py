#!/usr/bin/env python3
"""Self-tests of the MOARD benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. Determinism: two traced runs at one seed report the same counts.
2. Seeds: a non-default seed changes the workloads' traces.
3. Attribution: a fixed delay added to every DFI run of the analysis
   sessions raises dfi_campaign's analysis time, the traced run puts the
   rise in dfi.busy_s (not in the analysis' own time), and analytic_grid,
   which makes no DFI run, does not change.

Exits 0 when every check passes.  Takes a few minutes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
WORKLOADS = ["dfi_campaign", "analytic_grid", "serve_mixed"]
# Counts that must repeat exactly at one seed.  server.dup_exec depends on
# timing and is reported, not asserted.
EXACT = ["vm.steps", "dfi.runs", "dfi.outcome.identical", "dfi.outcome.acceptable",
         "dfi.outcome.incorrect", "dfi.outcome.crashed", "op_rules.verdict.masked",
         "op_rules.verdict.not_masked", "op_rules.verdict.needs_dfi",
         "op_rules.verdict.overshadow", "op_rules.verdict.propagate", "sweep.tasks",
         "store.saves", "server.tasks_executed"]
DELAY_US = 5000

failures = []


def run(workload, seed, trace, seconds=1, delay_us=0):
    """One benchmark run; returns (result line, side report)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if delay_us:
        cmd += ["--dfi-delay-us", str(delay_us)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    kind = "trace" if trace else "untraced"
    with open(os.path.join(TARGET, "perfbench", f"{workload}-{kind}.json")) as f:
        side = json.load(f)
    if not result["correct"]:
        failures.append(f"{workload} seed {seed} trace {trace}: incorrect\n{out.stderr}")
    return result, side


def check(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def value(result, name):
    return result["metrics"][name]["value"]


def main():
    for workload in WORKLOADS:
        a, side_a = run(workload, 0, 1)
        b, _ = run(workload, 0, 1)
        for name in EXACT:
            check(value(a, name) == value(b, name),
                  f"{workload}: {name} repeats at seed 0 ({value(a, name)} vs {value(b, name)})")
        if workload != "serve_mixed":
            # The daemon always serves the built-in inputs; only its job
            # sequence follows the seed.
            _, side_c = run(workload, 1, 1)
            check(side_a["trace_digest"] != side_c["trace_digest"],
                  f"{workload}: seed 1 changes the traces")

    _, base = run("dfi_campaign", 0, 0)
    _, slow = run("dfi_campaign", 0, 0, delay_us=DELAY_US)
    traced_base, side = run("dfi_campaign", 0, 1)
    traced_slow, _ = run("dfi_campaign", 0, 1, delay_us=DELAY_US)
    want = side["session_dfi_runs"] * DELAY_US / 1e6
    rise = slow["analyze_s"] - base["analyze_s"]
    print(f"      {side['session_dfi_runs']:.0f} session DFI runs x {DELAY_US} us = "
          f"{want:.3f} s expected; analyze_s rose {rise:.3f} s")
    check(rise > 0.7 * want, "the delay raises dfi_campaign's analyze_s")
    busy_rise = value(traced_slow, "dfi.busy_s") - value(traced_base, "dfi.busy_s")
    self_rise = (value(traced_slow, "analysis.self_ms")
                 - value(traced_base, "analysis.self_ms")) / 1e3
    check(abs(busy_rise - want) < 0.25 * want,
          f"the traced run attributes the rise to dfi.busy_s ({busy_rise:.3f} s)")
    check(abs(self_rise) < 0.1 * want,
          f"analysis.self_ms does not absorb the rise ({self_rise * 1e3:.1f} ms)")

    grid_base, _ = run("analytic_grid", 0, 1)
    grid_slow, _ = run("analytic_grid", 0, 1, delay_us=DELAY_US)
    check(value(grid_slow, "dfi.runs") == 0 and value(grid_base, "dfi.runs") == 0,
          "analytic_grid makes no DFI run, with or without the delay")
    for name in EXACT:
        check(value(grid_base, name) == value(grid_slow, name),
              f"analytic_grid: {name} unchanged by the delay")

    if failures:
        print(f"{len(failures)} self-test failure(s)")
        return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
