#!/usr/bin/env python3
"""kochnet benchmark: four workloads, each in its own process.

    python3 perfbench/run.py --workload verify-k15 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one process each

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped.  ``--trace 1`` runs the timed phase once
plain and once with every public kochnet function wrapped in a span, and
reports the per-layer metrics and the tracing overhead.  Every output is
checked against computations made here, apart from the program.  See
README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import os

# One BLAS thread here and in every child: a single-threaded closed loop.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import routeloop
import speed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# name -> (kind, m, t)
WORKLOADS = {
    "verify-k14": ("verify", 1, 4),
    "verify-k15": ("verify", 1, 5),
    "route-k26": ("route", 2, 6),
    "generate-k26": ("generate", 2, 6),
}
SETUP_PROBES = {"verify": 5, "generate": 5, "route": 3}
CLI_TIMEOUT_S = 150
TRACE_ROUTE_ROUNDS = 2


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fp:
        return json.load(fp)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_kochnet():
    sys.path.insert(0, str(SRC))
    import kochnet

    return kochnet


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    info: dict[str, float] = field(default_factory=dict)  # printed, not gated

    def add_route_run(self, run: routeloop.RouteRun, n: int, edges: np.ndarray, seed: int) -> None:
        self.attempted += run.attempted
        self.failed += run.failed
        self.problems += routeloop.check_run(n, edges, run, seed)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

@dataclass
class CliCall:
    wall_s: float  # spawn to exit, at the reference host speed
    returncode: int
    maxrss_mb: float
    stdout: bytes
    speed_factor: float
    trace: dict | None


def run_cli(args: list[str], traced: bool = False) -> CliCall:
    """One kochnet CLI process, timed from spawn to exit, with its peak RSS."""
    report_path = OUT / "cli.report.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "cli_wrapper.py"), str(report_path), str(int(traced)), *args]
    out_path, err_path = OUT / "cli.stdout", OUT / "cli.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
    try:
        with open(report_path) as fp:
            report = json.load(fp)
    except (OSError, ValueError):  # the wrapper died before writing it
        report = {"speed_factor": float("nan"), "trace": None}
    return CliCall(
        wall * report["speed_factor"],
        proc.returncode,
        usage.ru_maxrss / 1024,
        out_path.read_bytes(),
        report["speed_factor"],
        report["trace"],
    )


def setup_seconds(workload: str, kind: str) -> float:
    """Median over fresh processes of spawn -> kochnet imported (-> graph built).

    Each probe's time is scaled by the speed factor it sampled.
    """
    times = []
    for _ in range(SETUP_PROBES[kind]):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True,
            env=child_env(),
            cwd=ROOT,
            timeout=CLI_TIMEOUT_S,
            check=True,
        )
        ready, factor = (float(x) for x in done.stdout.split()[-2:])
        times.append((ready - start) * factor)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# per-layer metrics from a span summary
# ---------------------------------------------------------------------------

INDEX_SPANS = tuple(f"graph.KochGraph.{p}" for p in ("edges", "edge_ids", "csr", "csr_edge_ids"))
EXPORT_SPANS = tuple(f"graph.KochGraph.{p}" for p in tracer.GRAPH_METHODS)
BFS_SPANS = ("_kernels.bfs_distances", "_kernels.bfs_sigma")
SUITES = ("labels", "routing", "centrality", "electrical", "stats")


def layer_metrics(summary: dict, speed_factor: float, plain_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer metrics; span times are scaled by the traced process's speed factor."""
    spans, counters = summary["spans"], summary["counters"]

    def own(*names):
        return speed_factor * sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    metrics = {
        "graph.build_s": own("graph.build"),
        "graph.bytes_per_vertex": counters.get("graph.bytes_per_vertex", 0.0),
        "graph.index_s": own(*INDEX_SPANS),
        "graph.export_s": own(*EXPORT_SPANS),
        "labels.father_s": own("labels.father"),
        "labels.format_s": own("labels.format_label"),
        "routing.route_calls": calls("routing.route"),
        "routing.route_s": own("routing.route"),
        "routing.ops_total": counters.get("routing.ops_total", 0),
        "routing.path_check_s": own("routing.verify_path_in_graph"),
        "kernels.bfs_sources": calls(*BFS_SPANS),
        "kernels.bfs_s": own(*BFS_SPANS),
        "kernels.multi_sigma_s": own("_kernels.multi_sigma_count"),
        "kernels.brandes_s": own("_kernels.betweenness_totals"),
        "kernels.distance_total_calls": calls("_kernels.all_distance_total"),
        "kernels.distance_total_s": own("_kernels.all_distance_total"),
        "centrality.report_s": own("centrality.centrality_report"),
        "analytics.empirical_stats_calls": calls("analytics.empirical_stats"),
        "analytics.empirical_stats_s": own("analytics.empirical_stats"),
        "electrical.solve_calls": calls("electrical.solve"),
        "electrical.solve_s": own("electrical.solve"),
        "electrical.laplacian_calls": calls("electrical.laplacian"),
        "electrical.laplacian_s": own("electrical.laplacian"),
        "electrical.profile_s": own("electrical.path_profile"),
        "electrical.cfb_s": own("electrical.current_flow_betweenness"),
        "trace.spans": summary["n_spans"],
        "trace.overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
    }
    for suite in SUITES:
        metrics[f"verify.{suite}_s"] = speed_factor * spans.get(f"verify.{suite}_suite", {}).get("incl_s", 0.0)
    return metrics


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def check_generate_file(m: int, t: int, path: Path) -> tuple[list[str], str]:
    """Problems with the exported document, and the file's digest."""
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"generate output is not JSON: {exc}"], digest
    return checks.check_generate_doc(m, t, doc), digest


def cli_workload(name: str, kind: str, m: int, t: int, seed: int, seconds: int, trace: bool) -> Result:
    result = Result()
    if kind == "verify":
        args = ["verify", "--m", str(m), "--t", str(t), "--suite", "all", "--seed", str(seed)]
        reference = checks.distance_total(*checks.koch_edges(m, t))
    else:
        out_file = OUT / f"{name}.json"
        args = ["generate", "--m", str(m), "--t", str(t), "--format", "json", "-o", str(out_file)]

    def call_and_check(traced: bool = False) -> tuple[CliCall, str]:
        call = run_cli(args, traced)
        result.attempted += 1
        if call.returncode != 0:
            result.failed += 1
            result.problems.append(f"{name}: exit code {call.returncode}")
            return call, ""
        if kind == "verify":
            problems = checks.check_verify_output(m, t, call.returncode, call.stdout.decode(), reference)
            digest = hashlib.sha256(call.stdout).hexdigest()
        else:
            problems, digest = check_generate_file(m, t, out_file)
        result.problems += problems
        return call, digest

    if trace:
        plain, plain_digest = call_and_check()
        traced, traced_digest = call_and_check(traced=True)
        if plain_digest != traced_digest:
            result.problems.append(f"{name}: output differs with tracing on")
        if traced.trace is not None:
            tracer.dump(traced.trace, OUT / f"{name}.trace.json")
            result.metrics = layer_metrics(traced.trace, traced.speed_factor, plain.wall_s, traced.wall_s)
        return result

    setup = setup_seconds(name, kind)
    calls: list[CliCall] = []
    while not calls or sum(c.wall_s for c in calls) < seconds:
        calls.append(call_and_check()[0])
    result.metrics = {
        "wall_s": statistics.median(c.wall_s for c in calls),
        "setup_s": setup,
        "peak_rss_mb": max(c.maxrss_mb for c in calls),
    }
    return result


def route_workload(name: str, m: int, t: int, seed: int, seconds: int, trace: bool) -> Result:
    result = Result()
    setup = None if trace else setup_seconds(name, "route")
    kochnet = import_kochnet()
    rng = np.random.default_rng(seed)
    if trace:
        spans = tracer.Tracer()
        sampler = speed.Sampler().start()
        spans.install()
    graph = kochnet.build(m, t)
    n, label_of, vertex_of = graph.n_vertices, graph.label_of, graph.vertex_by_label
    runs = []
    if trace:
        traced = routeloop.RouteRun()
        for _ in range(TRACE_ROUTE_ROUNDS):
            routeloop.run_round(kochnet, m, t, n, label_of, vertex_of, rng, traced)
        spans.uninstall()
        sampler.stop()
        plain = routeloop.RouteRun()
        for _ in range(TRACE_ROUTE_ROUNDS):
            routeloop.run_round(kochnet, m, t, n, label_of, vertex_of, rng, plain)
        runs = [traced, plain]
    else:
        plain = routeloop.RouteRun()
        start = time.perf_counter()
        routeloop.run_round(kochnet, m, t, n, label_of, vertex_of, rng, plain)
        # set-up plus one round; later rounds only add the benchmark's own records
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while time.perf_counter() - start < seconds:
            routeloop.run_round(kochnet, m, t, n, label_of, vertex_of, rng, plain)
        runs = [plain]

    edges = np.asarray(graph.edges, np.int64)
    for run in runs:
        result.add_route_run(run, n, edges, seed)
    if trace:
        summary = spans.summary()
        tracer.dump(summary, OUT / f"{name}.trace.json")
        result.metrics = layer_metrics(
            summary, sampler.factor(), statistics.median(plain.round_s), statistics.median(traced.round_s)
        )
    else:
        result.metrics = {
            "wall_s": statistics.median(plain.round_s),
            "setup_s": setup,
            "peak_rss_mb": peak_rss_mb,
        }
        result.info = routeloop.latency_metrics(plain)
    return result


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> Result:
    kind, m, t = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    if kind == "route":
        return route_workload(name, m, t, seed, seconds, trace)
    return cli_workload(name, kind, m, t, seed, seconds, trace)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def report(result: Result, spec: dict, trace: bool) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = result.metrics.get(metric["name"], math.nan)
        if not math.isfinite(value):
            result.problems.append(f"metric {metric['name']} was not measured")
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:34s} {value:>16.6f} {metric['unit']}")
    for name, value in result.info.items():
        print(f"{name:34s} {value:>16.6f} (not gated)")
    print(f"{'attempted':34s} {result.attempted:>9d}\n{'failed':34s} {result.failed:>9d}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own process; the last line maps workload -> result."""
    results = {}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = done.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except ValueError:
            results[name] = None
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("all", *WORKLOADS), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kochnet" / "__init__.py").is_file():
        print(f"perfbench: no kochnet source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    out = report(result, spec, bool(args.trace))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
