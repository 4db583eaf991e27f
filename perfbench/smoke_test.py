#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy size (under a minute).

    python3 perfbench/smoke_test.py

For every workload, an end-to-end run and a traced run must print a
correct result whose metrics are exactly the ones BENCHMARK.json names,
each with its unit. The negative case alters one reference response: the
run must count the server's honest answer as a failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def run(workload, trace, corrupt=False):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--toy"]
    if corrupt:
        command.append("--corrupt-reference")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(command[1:])} exited "
                             f"{done.returncode}:\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"result keys: {sorted(result)}")
    return result


def check_metrics(result, declared, label):
    names = {m["name"]: m["unit"] for m in declared}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != names:
        raise AssertionError(f"{label}: printed {printed}, declared {names}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} has no numeric value")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Every workload run.py knows, gated by BENCHMARK.json or not.
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            result = run(workload, trace)
            check_metrics(result, declared, label)
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                raise AssertionError(f"{label}: {result}")
            print(f"ok  {label}: {result['attempted']} requests, "
                  f"{len(result['metrics'])} metrics")
    result = run("small-fleet", 0, corrupt=True)
    if result["correct"] or result["failed"] < 1:
        raise AssertionError(f"altered reference not caught: {result}")
    print(f"ok  altered reference caught: {result['failed']} failed of "
          f"{result['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
