"""Closed loop over ``kochnet.route``: one client, one query at a time.

Each round draws ``ROUND`` label pairs uniformly over the vertices from a
seeded generator, then calls ``kochnet.route`` once per pair and times
each call alone.  Between calls (untimed) it checks the endpoints and the
op budget and records the hop vertex ids, so that after the loop every
hop pair can be checked against the edge list and a seeded subsample of
lengths against a BFS.  Every ``SPEED_EVERY`` calls it times one
``speed.chunk()``; the round's latencies are scaled by the round's speed
factor, so they read at the reference host speed.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

import checks
import speed

ROUND = 20_000
SPEED_EVERY = 250
BFS_SAMPLE = 32


@dataclass
class RouteRun:
    round_s: list[float] = field(default_factory=list)  # time inside route(), per round
    round_qps: list[float] = field(default_factory=list)
    round_p50_us: list[float] = field(default_factory=list)
    round_p99_us: list[float] = field(default_factory=list)
    src: array = field(default_factory=lambda: array("q"))
    dst: array = field(default_factory=lambda: array("q"))
    length: array = field(default_factory=lambda: array("q"))
    hop_ids: array = field(default_factory=lambda: array("q"))
    offsets: array = field(default_factory=lambda: array("q", [0]))
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    def note(self, problem: str) -> None:
        self.wrong += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def draw_pairs(rng: np.random.Generator, n: int, k: int) -> tuple[list[int], list[int]]:
    """k ordered pairs of distinct vertex ids, uniform over the vertices."""
    src = rng.integers(0, n, k)
    dst = rng.integers(0, n - 1, k)
    dst[dst >= src] += 1
    return src.tolist(), dst.tolist()


def run_round(kochnet, m: int, t: int, n: int, label_of, vertex_of, rng, run: RouteRun) -> None:
    src, dst = draw_pairs(rng, n, ROUND)
    queries = [(a, b, label_of(a), label_of(b)) for a, b in zip(src, dst)]
    route = kochnet.route  # looked up per round, so an installed tracer is seen
    clock = time.perf_counter_ns
    budget = 2 * t + 3
    lat, hops_out, offsets = array("q"), run.hop_ids, run.offsets
    chunks = []
    for k, (a, b, la, lb) in enumerate(queries):
        if k % SPEED_EVERY == 0:
            chunks.append(speed.chunk())
        run.attempted += 1
        start = clock()
        try:
            path = route(m, t, la, lb)
        except Exception as exc:  # a query that raises is a failed operation
            if not run.failed:
                print(f"route {a}->{b} raised {exc!r}", file=sys.stderr)
            run.failed += 1
            continue
        elapsed = clock() - start
        lat.append(elapsed)
        hops = path.hops
        if hops[0] != la or hops[-1] != lb or path.ops_used > budget:
            run.note(f"route {a}->{b}: wrong endpoints or ops_used={path.ops_used}")
        try:
            ids = [vertex_of(h) for h in hops]
        except KeyError:
            run.note(f"route {a}->{b}: a hop is not a vertex of the graph")
            ids = [a] * len(hops)
        hops_out.extend(ids)
        offsets.append(len(hops_out))
        run.src.append(a)
        run.dst.append(b)
        run.length.append(path.length)
    if lat:
        scale = speed.factor(chunks)
        us = np.sort(np.asarray(lat, np.float64)) * (scale / 1e3)
        run.round_s.append(float(us.sum()) / 1e6)
        run.round_qps.append(len(us) / run.round_s[-1])
        run.round_p50_us.append(float(np.median(us)))
        run.round_p99_us.append(float(us[-(-99 * len(us) // 100) - 1]))  # nearest rank


def check_run(n: int, edges: np.ndarray, run: RouteRun, seed: int) -> list[str]:
    """Hop pairs against the edge list; a seeded subsample of lengths against BFS."""
    problems = [f"{run.wrong} bad routes, first: {'; '.join(run.problems)}"] if run.wrong else []
    hop_ids = np.asarray(run.hop_ids, np.int64)
    problems += checks.check_route_hops(n, edges, hop_ids, np.asarray(run.offsets, np.int64))
    if len(run.src):
        rng = np.random.default_rng([seed, 1])
        pick = rng.choice(len(run.src), min(BFS_SAMPLE, len(run.src)), replace=False)
        problems += checks.check_route_lengths(
            n,
            edges,
            np.asarray(run.src, np.int64)[pick],
            np.asarray(run.dst, np.int64)[pick],
            np.asarray(run.length, np.int64)[pick],
        )
    return problems


def latency_metrics(run: RouteRun) -> dict[str, float]:
    """Medians over rounds: calls per second inside route(), p50 and p99 per call (us).

    A round holds ROUND calls, so its p99 has ROUND/100 samples beyond it.
    """
    return {
        "route_qps": statistics.median(run.round_qps),
        "route_p50_us": statistics.median(run.round_p50_us),
        "route_p99_us": statistics.median(run.round_p99_us),
        "route_calls": len(run.src),
    }
