"""The benchmark's three workloads: server set-up and request lists.

Every list is a pure function of the --seed the benchmark is given, so
the same seed sends byte-identical requests on every run. No request sets
deadline_ms, record_seconds or an anytime:* solver, so the work in each
request is deterministic and its response is byte-identical at every
thread count.

Each workload has one request list per client connection. Warm-up sends
the first `warm` lines of every list in lockstep; the timed phase then
continues from line `warm` and cycles through the list.
"""

import json
import random
from dataclasses import dataclass, field


@dataclass
class Workload:
    name: str
    # "serverd" or "brokerd": the process the clients connect to.
    target: str
    # Flags for the target, after --port/--port-file.
    flags: list
    # Instance cache budget of each serving process, in MiB.
    cache_mb: int
    # Lines per client sent in lockstep during warm-up.
    warm: int
    # Set-ups per end-to-end run; setup_s is their median.
    setups: int
    # True when warm-up makes the whole working set resident, so the
    # timed phase must add no cache miss and no eviction.
    resident: bool
    # Lines per client the traced run replays through each layer.
    trace_lines: int
    # One request list per client connection.
    lists: list = field(default_factory=list)


def _line(doc):
    return json.dumps(doc, separators=(",", ":"))


def _derive(seed, *salt):
    """A generator seed in [1, 2^31) mixed from the run seed and `salt`."""
    rng = random.Random(repr((seed,) + salt))
    return rng.randrange(1, 2**31)


def kernel_solve(seed, toy=False):
    """localsearch (LM, min, k=10, l=10) on 32 yahoo instances of 32 users
    whose catalogues step evenly from 200 to 1600 items.

    The solve cost grows with the catalogue, so the requests cost from
    about 20 to about 110 ms. One worker serves the two clients in turn,
    so each round trip is the previous solve plus its own. Client 0 owns
    the even sizes and client 1 the odd ones, both in ascending order, so
    those sums step evenly across the whole range and the round-trip
    distribution has no gap: a host that runs fast for a few seconds of
    the run moves the percentiles a little instead of flipping them from
    one cluster of sums to the next. Warm-up is one full pass over both
    lists, which makes every instance resident.
    """
    users, smallest, largest = (12, 30, 60) if toy else (32, 200, 1600)
    count = 32
    instances = [{"kind": "synthetic", "preset": "yahoo", "users": users,
                  "items": smallest + round((largest - smallest) * i /
                                            (count - 1)),
                  "seed": _derive(seed, "kernel", i)}
                 for i in range(count)]
    solver_seeds = [11, 23, 37, 53]

    def request(i):
        return _line({
            "schema": "groupform.request/1", "id": f"ks-{i}",
            "solver": "localsearch", "instance": instances[i],
            "problem": {"semantics": "lm", "aggregation": "min", "k": 10,
                        "groups": 10},
            "seed": solver_seeds[i % len(solver_seeds)],
            "include_groups": True})

    order = [list(range(0, count, 2)), list(range(1, count, 2))]
    return Workload(
        name="kernel-solve", target="serverd", flags=["--threads", "2"],
        cache_mb=256, warm=len(order[0]), setups=3, resident=True,
        trace_lines=len(order[0]),
        lists=[[request(i) for i in client] for client in order])


def _delta_ops(rng, users, items, length, rerates):
    """One valid delta sequence of `length` operations.

    Membership-only sequences remove users and re-add removed ones; with
    `rerates`, four of five operations rerate a cell of an active user.
    """
    removed = []
    active = set(range(users))
    ops = []
    while len(ops) < length:
        roll = rng.random()
        if rerates and roll < 0.8:
            user = rng.randrange(users)
            if user not in active:
                continue
            ops.append(["rerate", user, rng.randrange(items),
                        rng.randint(1, 5)])
        elif removed and roll > 0.9:
            user = removed.pop(rng.randrange(len(removed)))
            active.add(user)
            ops.append(["add_user", user])
        else:
            user = rng.randrange(users)
            if user not in active:
                continue
            active.remove(user)
            removed.append(user)
            ops.append(["remove_user", user])
    return ops


def delta_churn(seed, toy=False):
    """Cumulative greedy delta streams on fourteen yahoo bases of 500
    items whose populations step evenly from 1000 to 3000 users.

    Client 0 sends membership-only sequences (the IncrementalFormer
    route); client 1 mixes in rerates (the memoized cold re-solve). Each
    sequence runs on a base of its own, owned by its client, and restarts
    every `length` operations with fresh ones; each list holds more
    epochs than the solution memo's 256 entries, so cycling never turns a
    solve into a memo hit.

    The request cost grows with the population, so sequences on the
    fourteen sizes cost from about a third to about one and a half times
    the mean, and the round-trip distribution has no gap for a fast spell
    of the host to flip the p50 across. Client 0 takes the even sizes and
    client 1 the odd ones, both ascending; client 1's list starts half a
    sequence in, so each half of a client-0 sequence queues behind a
    different client-1 size. A client works through one sequence at a
    time: the cache keeps a base resident only while it is in use.
    """
    smallest, largest, items = (40, 80, 40) if toy else (1000, 3000, 500)
    sequences, length = (3, 6) if toy else (7, 40)
    count = 2 * sequences
    lists = []
    for client, rerates in enumerate([False, True]):
        rng = random.Random(_derive(seed, "delta-ops", client))
        lines = []
        for s in range(sequences):
            size = 2 * s + client
            users = smallest + round((largest - smallest) * size /
                                     (count - 1))
            base = {"kind": "synthetic", "preset": "yahoo", "users": users,
                    "items": items, "seed": _derive(seed, "delta", size)}
            ops = _delta_ops(rng, users, items, length, rerates)
            for j in range(1, length + 1):
                lines.append(_line({
                    "schema": "groupform.delta/1", "id": f"dc{client}-{s}-{j}",
                    "solver": "greedy", "instance": base, "deltas": ops[:j],
                    "problem": {"semantics": "lm", "aggregation": "min",
                                "k": 10, "groups": 10}}))
        if client == 1:
            lines = lines[length // 2:] + lines[:length // 2]
        lists.append(lines)
    cache_mb = 64
    return Workload(
        name="delta-churn", target="serverd",
        flags=["--threads", "2", "--cache-mb", str(cache_mb)],
        cache_mb=cache_mb,
        warm=6 if toy else 32, setups=3, resident=False,
        trace_lines=6 if toy else 20, lists=lists)


def small_fleet(seed, toy=False):
    """Tiny greedy requests on 32 resident 128x32 dense instances, sent
    through groupform_brokerd in affinity mode with two workers."""
    users, items = (24, 8) if toy else (128, 32)
    count = 8 if toy else 32
    requests = [_line({
        "schema": "groupform.request/1", "id": f"sf-{i}", "solver": "greedy",
        "instance": {"kind": "dense", "users": users, "items": items,
                     "clusters": 4, "seed": _derive(seed, "fleet", i)},
        "problem": {"semantics": "lm", "aggregation": "min", "k": 3,
                    "groups": 6},
        "include_groups": True}) for i in range(count)]
    half = count // 2
    return Workload(
        name="small-fleet", target="brokerd",
        flags=["--workers", "2", "--mode", "affinity", "--threads", "2",
               "--worker-threads", "2"],
        cache_mb=256, warm=half, setups=5, resident=True, trace_lines=half,
        lists=[requests, requests[half:] + requests[:half]])


WORKLOADS = {"kernel-solve": kernel_solve, "delta-churn": delta_churn,
             "small-fleet": small_fleet}
