#!/usr/bin/env python3
"""End-to-end check of groupform_cli's local run against serving.

usage: cli_smoke_test.py GROUPFORM_CLI GROUPFORM_SERVERD RATINGS_CSV

For every invocation in the first list, the local run's summary
(objective, group sizes and the four response metrics, at the CLI's print
precision) must equal the same flags sent as `groupform_cli request
--dump` through `groupform_serverd --pipe`. Every invocation in the
second list must fail with the given exit code and name the given text:
the local run refuses what serving refuses, and a malformed flag value
names its flag. Reports every case; exits 1 if any failed.
"""
import json
import math
import re
import subprocess
import sys

SYNTHETIC = ["--synthetic", "yahoo", "--users", "90", "--items", "60",
             "--k", "3", "--groups", "10"]
SETTINGS = [["--semantics", "lm", "--aggregation", "min"],
            ["--semantics", "av", "--aggregation", "sum"]]

# (flags, exit code, text the error must contain)
REFUSALS = [
    (SYNTHETIC + ["--min-group-size", "6", "--algorithm", "greedy"], 1,
     "use capgreedy"),
    (SYNTHETIC[:-1] + ["2x"], 2, "--groups"),
    (SYNTHETIC + ["--k", "abc"], 2, "--k"),
    (SYNTHETIC + ["--min-user-sat", "x", "--algorithm", "fairgreedy"], 2,
     "--min-user-sat"),
]

SUMMARY_LINES = {
    "objective": r"^  objective:\s+(\S+)$",
    "sizes": r"^  group sizes:\s+(.+)$",
    "avg_group_satisfaction": r"^  avg group satisfaction:\s+(\S+)$",
    "mean_user_rating": r"^  mean user rating:\s+(\S+)$",
    "mean_user_ndcg": r"^  mean user NDCG@\d+:\s+(\S+)$",
    "fully_satisfied": r"^  fully satisfied users:\s+(\S+)$",
}


def run(args, stdin=None):
    return subprocess.run(args, input=stdin, capture_output=True, text=True,
                          timeout=120)


def median(values):
    """data::Summarize's median: linear interpolation at (n - 1) / 2."""
    values = sorted(values)
    pos = 0.5 * (len(values) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    frac = pos - lo
    return values[lo] * (1.0 - frac) + values[hi] * frac


def local_summary(cli, flags):
    result = run([cli] + flags)
    if result.returncode != 0:
        raise AssertionError(f"local run exited {result.returncode}:\n"
                             f"{result.stdout}{result.stderr}")
    summary = {}
    for key, pattern in SUMMARY_LINES.items():
        match = re.search(pattern, result.stdout, re.MULTILINE)
        if match is None:
            raise AssertionError(f"no {key} line in:\n{result.stdout}")
        summary[key] = match.group(1)
    return summary


def served_summary(cli, serverd, flags):
    dump = run([cli, "request", "--dump", "--include-groups"] + flags)
    if dump.returncode != 0:
        raise AssertionError(f"request --dump exited {dump.returncode}:\n"
                             f"{dump.stderr}")
    served = run([serverd, "--pipe"], stdin=dump.stdout)
    response = json.loads(served.stdout)
    if response["state"] != "OK":
        raise AssertionError(f"served response is not OK: {served.stdout}")
    metrics = response["metrics"]
    sizes = [len(group) for group in response["groups"]]
    return {
        "objective": "%.3f" % response["objective"],
        "sizes": "min=%.0f median=%.0f max=%.0f" % (
            min(sizes), median(sizes), max(sizes)),
        "avg_group_satisfaction": "%.3f" % metrics["avg_group_satisfaction"],
        "mean_user_rating": "%.3f" % metrics["mean_user_rating"],
        "mean_user_ndcg": "%.3f" % metrics["mean_user_ndcg"],
        "fully_satisfied": "%.1f%%" % (100.0 * metrics["fully_satisfied"]),
    }


def main():
    if len(sys.argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    cli, serverd, csv = sys.argv[1:]
    cases = []
    for algorithm in ("greedy", "localsearch", "capgreedy"):
        for setting in SETTINGS:
            cases.append(SYNTHETIC + setting + ["--algorithm", algorithm])
    cases.append(["--input", csv, "--k", "3", "--groups", "6",
                  "--algorithm", "greedy"])
    failures = 0
    for flags in cases:
        try:
            local = local_summary(cli, flags)
            served = served_summary(cli, serverd, flags)
            if local != served:
                raise AssertionError(f"local {local}\n  served {served}")
            print("ok  ", " ".join(flags))
        except AssertionError as error:
            failures += 1
            print("FAIL", " ".join(flags), "\n ", error)
    for flags, code, text in REFUSALS:
        result = run([cli] + flags)
        if result.returncode == code and text in result.stderr:
            print("ok  ", " ".join(flags), f"(exit {code})")
        else:
            failures += 1
            print("FAIL", " ".join(flags), f"\n  exit {result.returncode},"
                  f" wanted {code} naming {text!r}:\n{result.stderr}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
