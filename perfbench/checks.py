"""Independent oracles and output checks for the kochnet benchmark.

Nothing in this module imports kochnet.  Graphs are regrown from the
growth rule, distances come from ``scipy.sparse.csgraph``, and closed
forms are evaluated in exact fractions.  Every ``check_*`` function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

# Size thresholds at which `kochnet verify` switches branch, as documented
# by its check descriptions: all-pairs routing up to 700 vertices, exact
# current-flow betweenness up to 600, exact average path length up to 5000.
ROUTING_EXHAUSTIVE_MAX_N = 700
CFB_EXHAUSTIVE_MAX_N = 600
APL_EXACT_MAX_N = 5000
VERIFY_SAMPLE_PAIRS = 10**5

PASS, DISCREPANCY = "PASS", "PAPER-DISCREPANCY"

_CHECK_LINE = re.compile(r"^  \[(PASS|FAIL|PAPER-DISCREPANCY)\] (\S+): (.*?)(?: \| (.*))?$")
_LABEL = re.compile(r"^([123])((?:0[01]*)?)(?:\.([1-9][0-9]*))?$")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def vertex_count(m: int, t: int) -> int:
    return 2 * (3 * m + 1) ** t + 1


def edge_count(m: int, t: int) -> int:
    return 3 * (3 * m + 1) ** t


def apl_closed_form(m: int, t: int) -> Fraction:
    """The paper's average path length of K(m,t), in exact arithmetic."""
    num = 3 * m + 5 + (24 * m * t + 24 * m + 4) * (3 * m + 1) ** t
    den = 3 * (3 * m + 1) * (2 * (3 * m + 1) ** t + 1)
    return Fraction(num, den)


def degree_histogram_closed_form(m: int, t: int) -> dict[int, int]:
    """3 hubs of degree 2(m+1)^t; 6m(3m+1)^(i-1) vertices of degree 2(m+1)^(t-i)."""
    hist = {2 * (m + 1) ** t: 3}
    for i in range(1, t + 1):
        deg = 2 * (m + 1) ** (t - i)
        hist[deg] = hist.get(deg, 0) + 6 * m * (3 * m + 1) ** (i - 1)
    return hist


# ---------------------------------------------------------------------------
# graph oracles
# ---------------------------------------------------------------------------

def koch_edges(m: int, t: int) -> tuple[int, np.ndarray]:
    """Regrow K(m,t): every vertex of every triangle gains m new triangles per step."""
    edges = [(0, 1), (0, 2), (1, 2)]
    triangles = [(0, 1, 2)]
    n = 3
    for _ in range(t):
        grown = []
        for tri in triangles:
            for v in tri:
                for _ in range(m):
                    a, b = n, n + 1
                    n += 2
                    edges += [(v, a), (v, b), (a, b)]
                    grown.append((v, a, b))
        triangles += grown
    return n, np.asarray(edges, np.int64)


def adjacency(n: int, edges: np.ndarray) -> sp.csr_array:
    u, v = edges[:, 0], edges[:, 1]
    ones = np.ones(2 * len(edges), np.int8)
    return sp.csr_array((ones, (np.concatenate((u, v)), np.concatenate((v, u)))), shape=(n, n))


def bfs_distances(n: int, edges: np.ndarray, sources) -> np.ndarray:
    """Unweighted distances from each source (rows) to every vertex."""
    return csgraph.shortest_path(adjacency(n, edges), unweighted=True, indices=sources)


def distance_total(n: int, edges: np.ndarray) -> int:
    """Sum of d(s, v) over ordered pairs, from an all-pairs scipy BFS."""
    dist = bfs_distances(n, edges, np.arange(n))
    if not np.isfinite(dist).all():
        raise ValueError("graph is disconnected")
    return int(dist.sum())


def edges_in_one_triangle(n: int, edges: np.ndarray) -> np.ndarray:
    """Per edge, the number of triangles through it (common neighbours of its ends)."""
    deg = np.bincount(edges.ravel(), minlength=n)
    lo = np.where(deg[edges[:, 0]] <= deg[edges[:, 1]], edges[:, 0], edges[:, 1])
    hi = edges[:, 0] + edges[:, 1] - lo
    a = adjacency(n, edges)
    # every neighbour w of the lower-degree end closes a triangle iff (w, hi) is an edge
    starts = a.indptr[lo]
    counts = a.indptr[lo + 1] - starts
    owner = np.repeat(np.arange(len(edges)), counts)
    offset = np.arange(owner.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    w = a.indices[np.repeat(starts, counts) + offset].astype(np.int64)
    other = hi[owner]
    found = (w != other) & is_edge(edge_keys(n, edges), n, w, other)
    return np.bincount(owner[found], minlength=len(edges))


def edge_keys(n: int, edges: np.ndarray) -> np.ndarray:
    """Sorted u*n + v over the edges, u < v."""
    return np.sort(np.minimum(edges[:, 0], edges[:, 1]) * n + np.maximum(edges[:, 0], edges[:, 1]))


def is_edge(keys: np.ndarray, n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per pair, whether (u, v) is among the edges whose ``edge_keys`` are given."""
    probe = np.minimum(u, v) * n + np.maximum(u, v)
    return keys[np.minimum(np.searchsorted(keys, probe), len(keys) - 1)] == probe


# ---------------------------------------------------------------------------
# verify output
# ---------------------------------------------------------------------------

def expected_verify_checks(m: int, t: int) -> dict[str, str]:
    """Check id -> status that `kochnet verify --suite all` must print for K(1,t)."""
    if m != 1 or t < 2:
        raise ValueError("expected statuses are pinned for m = 1 and t >= 2 only")
    n = vertex_count(m, t)
    ids = [
        "labels/order-size", "labels/edge-triangle", "labels/bijection", "labels/partition",
        "labels/father-blocks", "labels/degree-formula", "labels/index-space",
        "routing/optimality", "routing/path-validity", "routing/op-budget", "routing/reversal",
        "routing/uniqueness",
        "centrality/birth-symmetry", "centrality/leaves-zero", "centrality/firstorder-young",
        "centrality/monotone", "centrality/sum-rule", "centrality/edge-classes",
        "electrical/triangle-base", "electrical/current-localization",
        "electrical/voltage-progression", "electrical/current-split", "electrical/series-law",
        "electrical/rayleigh", "electrical/reciprocity", "electrical/community-gap",
        "stats/order-size", "stats/degree-histogram", "stats/handshake", "stats/local-clustering",
        "stats/avg-clustering", "stats/cumulative-degree", "stats/clustering-limit",
        "stats/apl-increment",
        "stats/apl-exact" if n <= APL_EXACT_MAX_N else "stats/apl-sampled",
    ]
    if t >= 3:
        ids.append("centrality/scaling")
    if n <= CFB_EXHAUSTIVE_MAX_N:
        ids += ["electrical/cfb-symmetry", "electrical/cfb-order"]
    expected = {cid: PASS for cid in ids}
    # the printed betweenness formulas disagree with exact counting: a finding, not a failure
    expected["centrality/printed-vertex-formula"] = DISCREPANCY
    expected["centrality/printed-edge-formula"] = DISCREPANCY
    return expected


def parse_verify(text: str) -> dict[str, tuple[str, str]]:
    """Check id -> (status, detail) from `kochnet verify` output."""
    out = {}
    for line in text.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            out[match.group(2)] = (match.group(1), match.group(4) or "")
    return out


def _detail_field(detail: str, key: str) -> str | None:
    match = re.search(rf"(?:^| ){re.escape(key)}=(\S+)", detail)
    return match.group(1) if match else None


def check_verify_output(
    m: int, t: int, returncode: int, text: str, total_distance: int
) -> list[str]:
    """`total_distance` is the ordered-pair distance sum of an independent BFS."""
    problems = []
    lines = text.splitlines()
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if not lines or lines[-1] != "RESULT: OK":
        problems.append(f"last line {lines[-1] if lines else ''!r}, want 'RESULT: OK'")
    if not lines or lines[0] != f"verify K_{{{m},{t}}}":
        problems.append("missing header line")
    checks = parse_verify(text)
    expected = expected_verify_checks(m, t)
    for cid, status in sorted(expected.items()):
        got = checks.get(cid, ("missing", ""))[0]
        if got != status:
            problems.append(f"{cid}: {got}, want {status}")
    for cid in sorted(set(checks) - set(expected)):
        problems.append(f"{cid}: unexpected check")

    n = vertex_count(m, t)
    pairs = n * (n - 1) // 2 if n <= ROUTING_EXHAUSTIVE_MAX_N else VERIFY_SAMPLE_PAIRS
    got_pairs = _detail_field(checks.get("routing/optimality", ("", ""))[1], "pairs")
    if got_pairs != str(pairs):
        problems.append(f"routing/optimality: pairs={got_pairs}, want {pairs}")

    bfs_apl = Fraction(total_distance, n * (n - 1))
    if bfs_apl != apl_closed_form(m, t):
        problems.append(f"independent BFS APL {bfs_apl} != closed form {apl_closed_form(m, t)}")
    if "stats/apl-exact" in expected:
        text_apl = _detail_field(checks.get("stats/apl-exact", ("", ""))[1], "apl")
        try:
            apl = Fraction(text_apl) if text_apl is not None else None
        except ValueError:
            apl = None
        if apl != apl_closed_form(m, t):
            problems.append(f"stats/apl-exact: apl={text_apl}, closed form {apl_closed_form(m, t)}")
        if apl != bfs_apl:
            problems.append(f"stats/apl-exact: apl={text_apl}, independent BFS mean {bfs_apl}")

    interior = total_distance // 2 - n * (n - 1) // 2  # sum of (d - 1) over unordered pairs
    detail = checks.get("centrality/sum-rule", ("", ""))[1]
    for key in ("expected", "sum"):
        raw = _detail_field(detail, key)
        try:
            value = float(raw) if raw is not None else None
        except ValueError:
            value = None
        if value is None or abs(value - interior) > 1e-9 * interior:
            problems.append(f"centrality/sum-rule: {key}={raw}, independent BFS gives {interior}")
    return problems


# ---------------------------------------------------------------------------
# generate output
# ---------------------------------------------------------------------------

def check_generate_doc(m: int, t: int, doc: dict) -> list[str]:
    """Structural checks on the document written by `kochnet generate --format json`."""
    problems = []
    n, e = vertex_count(m, t), edge_count(m, t)
    if doc.get("m") != m or doc.get("t") != t:
        problems.append(f"header m={doc.get('m')} t={doc.get('t')}, want m={m} t={t}")
    vertices = doc.get("vertices", [])
    edges = np.asarray(doc.get("edges", []), np.int64).reshape(-1, 2)
    if len(vertices) != n:
        problems.append(f"N={len(vertices)}, want {n}")
    if len(edges) != e:
        problems.append(f"E={len(edges)}, want {e}")
    if [v.get("id") for v in vertices] != list(range(len(vertices))):
        problems.append("vertex ids are not 0..N-1 in order")
        return problems
    if len(edges) == 0 or edges.min() < 0 or edges.max() >= len(vertices):
        problems.append("edge endpoint out of range")
        return problems
    if np.any(edges[:, 0] >= edges[:, 1]):
        problems.append("edge not written as u < v")
    if len(np.unique(edge_keys(len(vertices), edges))) != len(edges):
        problems.append("duplicate edge")

    deg = np.bincount(edges.ravel(), minlength=len(vertices))
    hist = dict(zip(*(x.tolist() for x in np.unique(deg, return_counts=True))))
    if hist != degree_histogram_closed_form(m, t):
        problems.append(f"degree histogram {hist} != closed form {degree_histogram_closed_form(m, t)}")
    per_edge = edges_in_one_triangle(len(vertices), edges)
    if np.any(per_edge != 1):
        problems.append(f"{int(np.count_nonzero(per_edge != 1))} edges not in exactly one triangle")

    seen = set()
    bad_birth = bad_degree = bad_label = 0
    for v in vertices:
        text = v.get("label")
        match = _LABEL.match(text) if isinstance(text, str) else None
        if match is None or (match.group(2) == "") != (match.group(3) is None):
            bad_label += 1
            continue
        seen.add(text)
        birth = len(match.group(2))
        if v.get("birth") != birth:
            bad_birth += 1
        if v.get("degree") != 2 * (m + 1) ** (t - birth) or v.get("degree") != deg[v["id"]]:
            bad_degree += 1
    if bad_label:
        problems.append(f"{bad_label} malformed labels")
    if len(seen) != len(vertices) - bad_label:
        problems.append("duplicate labels")
    if bad_birth:
        problems.append(f"{bad_birth} vertices whose birth is not their bit length")
    if bad_degree:
        problems.append(f"{bad_degree} vertices whose degree is not 2(m+1)^(t-birth)")
    return problems


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------

def check_route_hops(n: int, edges: np.ndarray, hop_ids: np.ndarray, offsets: np.ndarray) -> list[str]:
    """Every consecutive hop pair of every route is an edge of the graph.

    Route k's hops are ``hop_ids[offsets[k]:offsets[k+1]]``.
    """
    if len(hop_ids) < 2:
        return []
    u, v = hop_ids[:-1], hop_ids[1:]
    inside = np.ones(len(hop_ids) - 1, bool)
    inside[offsets[1:-1] - 1] = False  # pairs that straddle two routes
    hit = is_edge(edge_keys(n, edges), n, u[inside], v[inside])
    bad = int(np.count_nonzero(~hit))
    return [f"{bad} consecutive hop pairs are not edges"] if bad else []


def check_route_lengths(
    n: int, edges: np.ndarray, src: np.ndarray, dst: np.ndarray, lengths: np.ndarray
) -> list[str]:
    """Route lengths equal scipy BFS distances for the given queries."""
    sources, row = np.unique(src, return_inverse=True)
    dist = bfs_distances(n, edges, sources)
    want = dist[row, dst]
    bad = np.flatnonzero(want != lengths)
    if bad.size:
        k = int(bad[0])
        return [
            f"{bad.size} route lengths differ from BFS, first {int(src[k])}->{int(dst[k])}:"
            f" {int(lengths[k])} vs {want[k]:g}"
        ]
    return []
