#!/usr/bin/env python3
"""Build and run the repository benchmark (manifest: BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload, one table

Run from the root of a checkout. The script builds the daemon and the
driver with dune, removes every RSJ_* variable and OCAMLRUNPARAM from
the environment (the daemon's knobs latch at start-up, and the
in-process replay must run with the daemon's settings), then runs
perfbench/driver.ml, whose last stdout line is the run's JSON result.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["stream_scan", "strategy_mix", "chain_walk", "churn"]
DRIVER = os.path.join("_build", "default", "perfbench", "driver.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./bin/rsj.exe", "./perfbench/driver.exe"],
        stdout=sys.stderr, env=env, timeout=850)
    return proc.returncode == 0


def driver_env():
    return {k: v for k, v in os.environ.items()
            if not k.startswith("RSJ_") and k not in ("OCAMLRUNPARAM", "CAMLRUNPARAM")}


def run_all(args):
    """Run each workload in turn and print its end-to-end metrics."""
    rows, status = [], 0
    for name in WORKLOADS:
        proc = subprocess.run([DRIVER, "--workload", name] + args,
                              stdout=subprocess.PIPE, text=True,
                              env=driver_env(), timeout=200)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: driver exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "ops_attempted", result["attempted"], "count"))
        rows.append((name, "ops_failed", result["failed"], "count"))
        if not result["correct"]:
            status = 1
    for name, metric, value, unit in rows:
        print(f"{name:13} {metric:28} {value:16.6f} {unit}")
    return status


def main():
    argv = sys.argv[1:]
    if not os.path.isfile("dune-project") or not build():
        print("perfbench: cannot build the benchmark here", file=sys.stderr)
        return 2
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv) and argv[i + 1] == "all":
            return run_all(argv[:i] + argv[i + 2:])
    os.execve(DRIVER, [DRIVER] + argv, driver_env())


if __name__ == "__main__":
    sys.exit(main())
