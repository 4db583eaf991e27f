#!/usr/bin/env python3
"""End-to-end check of `groupform_cli sweep`, the paper sweeps' front end.

usage: cli_sweep_test.py GROUPFORM_CLI VALIDATE_BENCH_JSON

Runs the constrained ablation (explicit series, so --solvers leaves it
whole) and the baseline panorama restricted by --solvers, writes both
BENCH_*.json documents into a scratch directory, and checks them with
tools/validate_bench_json.py. The baseline document's series must be
exactly the filtered solvers, in flag order. An unknown suite and a
malformed GF_BENCH_SCALE / GF_BENCH_REPS must exit 2 and say why.
Reports every case; exits 1 if any failed.
"""
import json
import os
import subprocess
import sys
import tempfile

FILTER = ["greedy", "veckmeans"]

# (arguments after `sweep`, extra environment, text stderr must contain)
USAGE_ERRORS = [
    (["no_such_suite"], {}, "unknown sweep suite"),
    (["table4"], {"GF_BENCH_SCALE": "0,25"}, "GF_BENCH_SCALE"),
    (["table4"], {"GF_BENCH_REPS": "two"}, "GF_BENCH_REPS"),
]


def run(args, env=None):
    return subprocess.run(args, capture_output=True, text=True, timeout=300,
                          env=env)


def sweep_env(extra):
    env = dict(os.environ)
    for name in ("GF_BENCH_SCALE", "GF_BENCH_REPS", "GF_BENCH_JSON"):
        env.pop(name, None)
    env.update(extra)
    return env


def check_runs(cli, validator, json_dir):
    failures = []
    for args in (["constrained_ablation"],
                 ["baseline", "--solvers", ",".join(FILTER)]):
        result = run([cli, "sweep"] + args + ["--json-dir", json_dir],
                     env=sweep_env({}))
        if result.returncode != 0:
            failures.append(f"sweep {' '.join(args)} exited "
                            f"{result.returncode}:\n{result.stderr}")
    validated = run([sys.executable, validator, json_dir])
    if validated.returncode != 0:
        failures.append(f"validator failed:\n{validated.stdout}"
                        f"{validated.stderr}")
    with open(os.path.join(json_dir, "BENCH_baseline.json")) as handle:
        document = json.load(handle)
    for sweep in document["sweeps"]:
        solvers = [series["solver"] for series in sweep["series"]]
        if solvers != FILTER:
            failures.append(f"{sweep['sweep']} series {solvers}, "
                            f"wanted {FILTER}")
    return failures


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    cli, validator = sys.argv[1:]
    failures = 0
    with tempfile.TemporaryDirectory() as json_dir:
        try:
            problems = check_runs(cli, validator, json_dir)
        except (OSError, ValueError, KeyError) as error:
            problems = [repr(error)]
    for problem in problems:
        failures += 1
        print("FAIL", problem)
    if not problems:
        print("ok   constrained_ablation + baseline --solvers",
              ",".join(FILTER))
    for args, extra, text in USAGE_ERRORS:
        result = run([cli, "sweep"] + args, env=sweep_env(extra))
        label = " ".join(f"{k}={v}" for k, v in extra.items())
        label = f"{label} sweep {' '.join(args)}".strip()
        if result.returncode == 2 and text in result.stderr:
            print("ok  ", label, "(exit 2)")
        else:
            failures += 1
            print("FAIL", label, f"\n  exit {result.returncode}, wanted 2 "
                  f"naming {text!r}:\n{result.stderr}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
