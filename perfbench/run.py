#!/usr/bin/env python3
"""groupform end-to-end benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload kernel-solve --seed 1 \
        --seconds 30 --trace 0

Builds groupform_serverd, groupform_brokerd and the benchmark's own
binaries from the enclosing checkout into .bench_build/, then runs the
named workload (perfbench/workloads.py) against the real daemons over
loopback TCP: two closed-loop client connections from one generator
process. Every response must be byte-identical to the in-process
reference (groupform_serverd --pipe, i.e. Session::HandleLine, over the
same lines).

--trace 0 prints the end-to-end metrics; --trace 1 is the separate
traced run that prices each layer (perfbench/layers.cc) and prints the
per-layer metrics. Detail lines come first; the last line of standard
output is the result object. perfbench/README.md has the metric
definitions and the layer-to-workload prediction table.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "perfbench-work"
SERVERD = BUILD / "groupform" / "tools" / "groupform_serverd"
BROKERD = BUILD / "groupform" / "tools" / "groupform_brokerd"
LOADGEN = BUILD / "gf_loadgen"
LAYERS = BUILD / "gf_layers"

SPAWN_TIMEOUT_S = 60
TEARDOWN_TIMEOUT_S = 20
# Fewest samples a run must leave beyond its p90 latency.
MIN_BEYOND_P90 = 10

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

# Metric names and units, in order, from the benchmark's declaration.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

CACHE_LINE = re.compile(
    r"instance cache: (\d+) hits, (\d+) misses, (\d+) evictions, "
    r"(\d+) bytes in (\d+) entries")


class BenchError(Exception):
    """A run that cannot produce a result (build, spawn or teardown)."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no groupform sources at {ROOT}: perfbench/ must "
                         "sit inside a groupform checkout")
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "perfbench-build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target"]
                 + targets)
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                tail = build_log.read_text()[-3000:]
                raise BenchError(f"build step failed: {' '.join(step)}\n{tail}")


# --------------------------------------------------------------------------
# Processes


def proc_children(pid):
    """Direct children of `pid`, from /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == pid:
            children.append(int(entry))
    return sorted(children)


def vm_hwm_kb(pid):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise BenchError(f"no VmHWM for pid {pid}")


LIVE = []


class Server:
    """A serverd or brokerd on an ephemeral loopback port."""

    def __init__(self, binary, flags, tag, expect_workers=0):
        self.tag = tag
        self.log_path = WORK / f"{tag}.log"
        port_file = WORK / f"{tag}.port"
        port_file.unlink(missing_ok=True)
        started = time.perf_counter()
        with open(self.log_path, "w") as err:
            self.proc = subprocess.Popen(
                [str(binary), "--port", "0", "--port-file", str(port_file)]
                + flags, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err, cwd=WORK)
        self.pids = [self.proc.pid]
        LIVE.append(self)
        self.port = 0
        while self.port == 0:
            try:
                self.port = int(port_file.read_text().strip() or 0)
            except (OSError, ValueError):
                pass
            if self.port:
                break
            if self.proc.poll() is not None:
                raise BenchError(f"{tag} exited during start-up:\n"
                                 + self.log_path.read_text()[-2000:])
            if time.perf_counter() - started > SPAWN_TIMEOUT_S:
                raise BenchError(f"{tag} published no port in "
                                 f"{SPAWN_TIMEOUT_S} s")
            time.sleep(0.0005)
        self.spawn_s = time.perf_counter() - started
        self.pids = [self.proc.pid] + proc_children(self.proc.pid)
        if len(self.pids) != 1 + expect_workers:
            raise BenchError(f"{tag}: expected {expect_workers} workers, "
                             f"found {len(self.pids) - 1}")

    def rss_peak_mb(self):
        return sum(vm_hwm_kb(pid) for pid in self.pids) / 1024.0

    def stop(self):
        """SIGTERM, then the summed instance-cache exit summaries.

        The server must exit within TEARDOWN_TIMEOUT_S; one that outlives
        it is killed and fails the run instead of hanging it.
        """
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=TEARDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            kill_all([self])
            raise BenchError(f"{self.tag} outlived the {TEARDOWN_TIMEOUT_S} s "
                             "teardown timeout")
        LIVE.remove(self)
        if self.proc.returncode != 0:
            raise BenchError(f"{self.tag} exited with {self.proc.returncode}:"
                             "\n" + self.log_path.read_text()[-2000:])
        return cache_summary(self.log_path.read_text())

    @staticmethod
    def serverd(flags, tag):
        return Server(SERVERD, flags, tag)

    @staticmethod
    def brokerd(flags, tag):
        workers = int(flags[flags.index("--workers") + 1])
        return Server(BROKERD, flags, tag, expect_workers=workers)


def kill_all(servers):
    """SIGKILLs each server and its workers and waits until all are gone."""
    for server in servers:
        if server in LIVE:
            LIVE.remove(server)
        for pid in server.pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        server.proc.wait()
        # Workers are the daemon's children: once it is reaped, init reaps
        # them and their /proc entries vanish.
        deadline = time.perf_counter() + TEARDOWN_TIMEOUT_S
        for pid in server.pids[1:]:
            while Path(f"/proc/{pid}").exists() and \
                    time.perf_counter() < deadline:
                time.sleep(0.01)


def cache_summary(text):
    """Sum of every `instance cache:` exit line (one per serverd)."""
    total = {"hits": 0, "misses": 0, "evictions": 0, "bytes": 0,
             "entries": 0}
    found = 0
    for match in CACHE_LINE.finditer(text):
        found += 1
        for key, value in zip(total, match.groups()):
            total[key] += int(value)
    total["processes"] = found
    return total


def start_target(workload, tag):
    if workload.target == "brokerd":
        return Server.brokerd(workload.flags, tag)
    return Server.serverd(workload.flags, tag)


# --------------------------------------------------------------------------
# Reference and generator


def reference(lines, cache_mb, threads, inflight):
    """In-process responses: groupform_serverd --pipe over `lines`."""
    result = subprocess.run(
        [str(SERVERD), "--pipe", "--threads", str(threads), "--max-inflight",
         str(inflight), "--cache-mb", str(cache_mb)],
        input="".join(line + "\n" for line in lines), capture_output=True,
        text=True, timeout=170, cwd=WORK)
    responses = result.stdout.splitlines()
    if result.returncode != 0 or len(responses) != len(lines):
        raise BenchError("reference run failed:\n" + result.stderr[-2000:])
    for line, response in zip(lines, responses):
        if json.loads(response).get("state") != "OK":
            raise BenchError(f"reference is not OK for {line[:200]}:\n"
                             f"{response[:500]}")
    return responses, cache_summary(result.stderr)


def lockstep(lists, count):
    return [lst[i] for i in range(count) for lst in lists]


def probe_ms():
    out = subprocess.run([str(LOADGEN), "probe"], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return json.loads(out.splitlines()[-1])["probe_ms"]


def loadgen(port, files, warm, seconds, pids, tag):
    out_path = WORK / f"{tag}.json"
    command = [str(LOADGEN), "run", "--port", str(port),
               "--requests", ",".join(str(f[0]) for f in files),
               "--expect", ",".join(str(f[1]) for f in files),
               "--warm", str(warm), "--seconds", str(seconds),
               "--pids", ",".join(str(p) for p in pids),
               "--out", str(out_path)]
    result = subprocess.run(command, stdin=subprocess.DEVNULL,
                            capture_output=True, text=True,
                            timeout=seconds + 120)
    if result.stderr:
        sys.stderr.write(result.stderr)
    if result.returncode != 0:
        raise BenchError(f"load generator failed ({result.returncode})")
    return json.loads(out_path.read_text())


def prepare(workload, corrupt):
    """Writes each client's request and reference files.

    `corrupt` alters one reference line (the smoke test's negative case:
    the benchmark must count the honest response as failed).
    """
    distinct = list(dict.fromkeys(line for lst in workload.lists
                                  for line in lst))
    responses, _ = reference(distinct, workload.cache_mb, threads=4,
                             inflight=8)
    expected = dict(zip(distinct, responses))
    files = []
    for c, lst in enumerate(workload.lists):
        requests = WORK / f"requests-{c}.jsonl"
        expect = WORK / f"expected-{c}.jsonl"
        lines = [expected[line] for line in lst]
        if corrupt and c == 0:
            lines[workload.warm % len(lines)] = lines[
                workload.warm % len(lines)].replace('"objective":',
                                                    '"objective":1', 1)
        requests.write_text("".join(line + "\n" for line in lst))
        expect.write_text("".join(line + "\n" for line in lines))
        files.append((requests, expect))
    return files, expected


def objective_sum(responses):
    total = 0.0
    for response in responses:
        total += json.loads(response)["objective"]
    return total


# --------------------------------------------------------------------------
# Runs


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_end_to_end(workload, seconds, corrupt):
    files, _ = prepare(workload, corrupt)
    # Exact-repeat reference: the lockstep warm-up replayed serially
    # in-process with the workload's cache budget.
    warm_lines = lockstep(workload.lists, workload.warm)
    warm_responses, guard = reference(warm_lines, workload.cache_mb,
                                      threads=1, inflight=1)
    guard["objective_sum"] = objective_sum(warm_responses)

    probes = [probe_ms()]
    setups, warm_tallies, repeat_ok = [], [], True
    for s in range(workload.setups):
        last = s == workload.setups - 1
        server = start_target(workload, f"{workload.name}-setup{s}")
        stats = loadgen(server.port, files, workload.warm,
                        seconds if last else 0, server.pids, f"load{s}")
        setups.append(server.spawn_s + stats["warm_ms"] / 1000.0)
        warm_tallies.append(stats["warm"])
        rss_mb = server.rss_peak_mb() if last else 0.0
        summary = server.stop()
        seen = {"objective_sum": stats["warm"]["objective_sum"], **summary}
        if not last:
            # A torn-down set-up ran only the fixed warm-up: its counts
            # must equal the serial in-process replay exactly.
            for key in ("objective_sum", "hits", "misses", "evictions",
                        "bytes", "entries"):
                if seen[key] != guard[key]:
                    repeat_ok = False
                    log(f"exact-repeat guard: set-up {s} {key} = "
                        f"{seen[key]}, recorded {guard[key]}")
        elif workload.resident and (summary["misses"] != guard["misses"] or
                                    summary["evictions"] != 0):
            repeat_ok = False
            log(f"exact-repeat guard: resident working set missed or "
                f"evicted in the timed phase: {summary}")
        final = (stats, summary, rss_mb)
    probes.append(probe_ms())

    stats, summary, rss_mb = final
    timed = stats["timed"]
    good = timed["ok"] - timed["mismatch"]
    whole_run = {
        "throughput_rps": good / stats["elapsed_s"],
        "latency_p50_ms": stats["latency_p50_us"] / 1000.0,
        "latency_p90_ms": stats["latency_p90_us"] / 1000.0,
        "cpu_ms_per_req": stats["server_cpu_ms"] / max(1, good),
    }
    attempted = timed["sent"] + sum(t["sent"] for t in warm_tallies)
    failed = timed["failed"] + sum(t["failed"] for t in warm_tallies)
    samples_ok = stats["beyond_p90"] >= MIN_BEYOND_P90
    if not samples_ok:
        log(f"only {stats['beyond_p90']} samples beyond p90 "
            f"(need {MIN_BEYOND_P90})")
    detail = {
        "workload": workload.name, "trace": 0,
        "requests": {k: timed[k] for k in ("sent", "ok", "dnf", "err",
                                           "mismatch")},
        "latency_samples": good, "beyond_p90": stats["beyond_p90"],
        "lines_answered": stats["lines_answered"],
        "repeat": {"recorded": guard, "ok": repeat_ok},
        "cache_at_exit": summary, "setup_s_each": setups,
        "loadgen_overhead_us": stats["overhead_us"],
        "host_probe_ms": probes,
    }
    print(json.dumps(detail))
    metrics = {
        **whole_run,
        "setup_s": statistics.median(setups),
        "rss_peak_mb": rss_mb,
        "objective_mean": stats["line_objective_mean"],
    }
    return {
        "correct": failed == 0 and repeat_ok and samples_ok,
        "attempted": attempted, "failed": failed,
        "metrics": {name: metric(metrics[name], unit)
                    for name, unit in END_TO_END},
    }


def run_traced(workload, seconds, corrupt):
    files, expected = prepare(workload, corrupt)
    probes = [probe_ms()]

    # The workload's own closed loop, once: set-up split, trace-run
    # throughput, queueing latency and the target's cache counters.
    server = start_target(workload, f"{workload.name}-trace")
    stats = loadgen(server.port, files, workload.warm, seconds, server.pids,
                    "trace-load")
    summary = server.stop()

    # Fresh servers for the single-connection round trips, so delta
    # epochs are materialised on first use as in the loop: a lone serverd,
    # and the two workers of the broker gf_layers hosts.
    serverd_flags = ["--threads", "2", "--cache-mb", str(workload.cache_mb)]
    lone = Server.serverd(serverd_flags, f"{workload.name}-lone")
    workers = [Server.serverd(serverd_flags, f"{workload.name}-worker{w}")
               for w in range(2)]
    replay = WORK / "replay.jsonl"
    replay_expect = WORK / "replay-expected.jsonl"
    warm_lines = lockstep(workload.lists, workload.warm)
    # The lines the closed loop sends first after warm-up (it wraps).
    timed_lines = lockstep(
        [[lst[(workload.warm + i) % len(lst)]
          for i in range(workload.trace_lines)] for lst in workload.lists],
        workload.trace_lines)
    replay.write_text("".join(l + "\n" for l in warm_lines + timed_lines))
    replay_expect.write_text("".join(expected[l] + "\n"
                                     for l in warm_lines + timed_lines))
    layers_out = WORK / "layers.json"
    result = subprocess.run(
        [str(LAYERS), "--lines", str(replay), "--expect", str(replay_expect),
         "--warm", str(len(warm_lines)), "--cache-mb", str(workload.cache_mb),
         "--serverd-port", str(lone.port),
         "--worker-ports", ",".join(str(w.port) for w in workers),
         "--out", str(layers_out)],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=150)
    sys.stderr.write(result.stderr)
    for server in [lone] + workers:
        server.stop()
    if result.returncode != 0:
        raise BenchError(f"layer probe failed ({result.returncode})")
    layers = json.loads(layers_out.read_text())
    probes.append(probe_ms())

    timed = stats["timed"]
    loop_p50_ms = stats["latency_p50_us"] / 1000.0
    target_rtt = (layers["broker.rtt_ms"] if workload.target == "brokerd"
                  else layers["wire.rtt_ms"])
    values = dict(layers)
    values.update({
        "cache.hits": summary["hits"], "cache.misses": summary["misses"],
        "cache.evictions": summary["evictions"],
        "cache.bytes": summary["bytes"],
        "serve.queue_wait_ms": loop_p50_ms - target_rtt,
        # Server cores kept busy: CPU time over wall time of the loop.
        "serve.effective_concurrency":
            stats["server_cpu_ms"] / 1000.0 / stats["elapsed_s"],
        "setup.spawn_ms": server.spawn_s * 1000.0,
        "setup.warm_ms": stats["warm_ms"],
        "loadgen.overhead_us": stats["overhead_us"],
        "host.probe_ms": statistics.mean(probes),
        "trace.throughput_rps":
            (timed["ok"] - timed["mismatch"]) / stats["elapsed_s"],
        "trace.latency_p50_ms": loop_p50_ms,
    })
    failed = timed["failed"] + stats["warm"]["failed"] + layers["failed"]
    print(json.dumps({"workload": workload.name, "trace": 1,
                      "requests": {k: timed[k] for k in ("sent", "ok", "dnf",
                                                         "err", "mismatch")},
                      "cache_at_exit": summary, "host_probe_ms": probes,
                      "layer_replay": {"lines": len(timed_lines),
                                       "failed": layers["failed"]}}))
    return {
        "correct": failed == 0,
        "attempted": timed["sent"] + stats["warm"]["sent"]
                     + layers["attempted"],
        "failed": failed,
        "metrics": {name: metric(values[name], unit)
                    for name, unit in PER_LAYER},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny instances, for the smoke test")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="alter one reference line (smoke test)")
    args = parser.parse_args()

    try:
        targets = ["groupform_serverd", "groupform_brokerd", "gf_loadgen"]
        build(targets + (["gf_layers"] if args.trace else []))
        WORK.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[args.workload](args.seed, toy=args.toy)
        run = run_traced if args.trace else run_end_to_end
        result = run(workload, args.seconds, args.corrupt_reference)
    except (BenchError, subprocess.SubprocessError, OSError) as error:
        log(f"run failed: {error}")
        return 1
    finally:
        kill_all(list(LIVE))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
