"""The benchmark's own checks, on K(1,2): each passes a true answer and rejects a corrupted one.

Run from the repository root:  python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kochnet  # noqa: E402
import kochnet.cli  # noqa: E402

import checks  # noqa: E402
import routeloop  # noqa: E402
from tracer import Tracer  # noqa: E402

M, T = 1, 2


@pytest.fixture(scope="module")
def verify_text() -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert kochnet.cli.main(["verify", "--m", str(M), "--t", str(T)]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def total_distance() -> int:
    return checks.distance_total(*checks.koch_edges(M, T))


@pytest.fixture(scope="module")
def generate_doc(tmp_path_factory) -> dict:
    path = tmp_path_factory.mktemp("gen") / "k12.json"
    assert kochnet.cli.main(["generate", "--m", str(M), "--t", str(T), "--format", "json", "-o", str(path)]) == 0
    return json.loads(path.read_text())


def _replace_detail(text: str, key: str, new: str) -> str:
    out, n = re.subn(rf"(?<= ){key}=\S+", f"{key}={new}", text, count=1)
    assert n == 1
    return out


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def test_regrown_graph_matches_closed_forms():
    for m, t in ((1, 0), (1, 2), (2, 2), (3, 1)):
        n, edges = checks.koch_edges(m, t)
        assert n == checks.vertex_count(m, t) and len(edges) == checks.edge_count(m, t)
        assert np.all(checks.edges_in_one_triangle(n, edges) == 1)
        assert checks.distance_total(n, edges) == checks.apl_closed_form(m, t) * n * (n - 1)


def test_triangle_count_sees_a_dropped_edge():
    n, edges = checks.koch_edges(M, T)
    assert np.count_nonzero(checks.edges_in_one_triangle(n, edges[1:]) != 1) == 2


# ---------------------------------------------------------------------------
# verify output
# ---------------------------------------------------------------------------

def test_verify_output_passes(verify_text, total_distance):
    assert checks.check_verify_output(M, T, 0, verify_text, total_distance) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda s: _replace_detail(s, "apl", "99/19"),  # wrong APL
        lambda s: _replace_detail(s, "expected", "{:g}".format(float(s.split("expected=")[1].split()[0]) + 1)),
        lambda s: _replace_detail(s, "sum", "{:g}".format(float(s.split(" sum=")[1].split()[0]) - 1)),
        lambda s: _replace_detail(s, "pairs", "527"),
        lambda s: s.replace("[PAPER-DISCREPANCY] centrality/printed-edge", "[PASS] centrality/printed-edge"),
        lambda s: s.replace("[PASS] stats/handshake", "[FAIL] stats/handshake"),
        lambda s: "\n".join(line for line in s.splitlines() if "routing/reversal" not in line) + "\n",
        lambda s: s.replace("RESULT: OK", "RESULT: FAIL"),
    ],
    ids=["apl", "sum-rule-expected", "sum-rule-sum", "pairs", "discrepancy", "status", "missing", "result"],
)
def test_verify_output_rejects_corruption(verify_text, total_distance, corrupt):
    bad = corrupt(verify_text)
    assert bad != verify_text
    assert checks.check_verify_output(M, T, 0, bad, total_distance)


def test_verify_output_rejects_exit_code_and_wrong_reference(verify_text, total_distance):
    assert checks.check_verify_output(M, T, 1, verify_text, total_distance)
    assert checks.check_verify_output(M, T, 0, verify_text, total_distance + 2)  # one distance off by one


# ---------------------------------------------------------------------------
# generate output
# ---------------------------------------------------------------------------

def test_generate_doc_passes(generate_doc):
    assert checks.check_generate_doc(M, T, generate_doc) == []


def _drop_edge(doc):
    doc["edges"].pop(5)


def _add_edge(doc):
    doc["edges"].append([0, len(doc["vertices"]) - 1])


def _dup_label(doc):
    doc["vertices"][4]["label"] = doc["vertices"][3]["label"]


def _bad_birth(doc):
    doc["vertices"][10]["birth"] += 1


def _bad_degree(doc):
    doc["vertices"][0]["degree"] -= 1


@pytest.mark.parametrize("corrupt", [_drop_edge, _add_edge, _dup_label, _bad_birth, _bad_degree])
def test_generate_doc_rejects_corruption(generate_doc, corrupt):
    bad = copy.deepcopy(generate_doc)
    corrupt(bad)
    assert checks.check_generate_doc(M, T, bad)


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------

def _route_run(route_fn):
    graph = kochnet.build(M, T)
    stub = types.SimpleNamespace(route=route_fn)
    run = routeloop.RouteRun()
    routeloop.run_round(
        stub, M, T, graph.n_vertices, graph.label_of, graph.vertex_by_label, np.random.default_rng(3), run
    )
    return graph, run


def test_route_checks_pass_on_real_routes():
    graph, run = _route_run(kochnet.route)
    edges = np.asarray(graph.edges, np.int64)
    assert run.attempted == routeloop.ROUND and run.failed == 0
    assert routeloop.check_run(graph.n_vertices, edges, run, seed=3) == []


def test_route_checks_reject_dropped_edge():
    graph, run = _route_run(kochnet.route)
    edges = np.asarray(graph.edges, np.int64)
    used = np.asarray(run.hop_ids[:2])
    keep = ~((edges[:, 0] == used.min()) & (edges[:, 1] == used.max()))
    assert routeloop.check_run(graph.n_vertices, edges[keep], run, seed=3)


def test_route_lengths_reject_off_by_one():
    graph, run = _route_run(kochnet.route)
    edges = np.asarray(graph.edges, np.int64)
    n = graph.n_vertices
    src, dst, length = (np.asarray(a, np.int64) for a in (run.src, run.dst, run.length))
    assert checks.check_route_lengths(n, edges, src, dst, length) == []
    length[7] += 1
    assert checks.check_route_lengths(n, edges, src, dst, length)


def test_route_checks_reject_wrong_endpoint_and_budget():
    def short(m, t, a, b):
        path = kochnet.route(m, t, a, b)
        return kochnet.RoutePath(path.hops[:-1] or path.hops, path.ops_used)

    def costly(m, t, a, b):
        return kochnet.RoutePath(kochnet.route(m, t, a, b).hops, 2 * t + 4)

    for fn in (short, costly):
        graph, run = _route_run(fn)
        assert routeloop.check_run(graph.n_vertices, np.asarray(graph.edges, np.int64), run, seed=3)


def test_failed_route_is_counted_not_checked():
    def broken(m, t, a, b):
        raise kochnet.KochError("boom")

    graph, run = _route_run(broken)
    assert run.failed == run.attempted == routeloop.ROUND
    assert routeloop.check_run(graph.n_vertices, np.asarray(graph.edges, np.int64), run, seed=3) == []


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_nests_spans_and_restores_functions():
    original = kochnet.routing.route
    tracer = Tracer()
    tracer.install()
    try:
        assert kochnet.routing.route is not original and kochnet.verify.route is kochnet.routing.route
        a, b = kochnet.parse_label("10.1", M), kochnet.parse_label("20.2", M)
        path = kochnet.route(M, T, a, b)
    finally:
        tracer.uninstall()
    assert kochnet.routing.route is original and kochnet.verify.route is original
    summary = tracer.summary()
    route, father = summary["spans"]["routing.route"], summary["spans"]["labels.father"]
    assert route["calls"] == 1 and father["calls"] >= 2
    assert summary["counters"]["routing.ops_total"] == path.ops_used
    assert 0 <= route["self_s"] < route["incl_s"]
