"""One-shot verification suites run by the CLI ``verify`` command.

Every check compares a built graph against either a closed form or an
independent oracle and reports pass/fail.  The third status,
``paper-discrepancy``, marks checks where the oracle is internally
consistent but contradicts a printed formula; those do not fail the run,
they are the run's findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _VERIFY_SUITES, _kernels, analytics, centrality, electrical, routing
from .graph import (
    EDGE_COMPANION,
    EDGE_FATHER_CHILD,
    EDGE_HUB_HUB,
    KochGraph,
    build,
    edge_class_counts,
    edge_count,
    label_keys,
    triangle_count,
    vertex_count,
)
from .labels import l_max
from .routing import _father_fields, route_batch

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "paper-discrepancy"

EXHAUSTIVE_PAIR_LIMIT = 700  # vertices; above this, routing checks sample
SAMPLE_SOURCES = 32  # sources of the sampled routing pairs: one BFS sweep
_CHUNK_PAIRS = 16384  # pairs routed and checked together
_CHUNK_SLOTS = 1 << 16  # CSR slots (vertex-neighbour pairs) the label checks hold at once


def __getattr__(name: str):
    """``verify.route`` is ``routing.route`` as it stands now, also after a tracer wraps it.

    A copy bound at import would keep whichever function was in place
    when this module loaded, and this module loads on first use.
    """
    if name == "route":
        return routing.route
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class CheckResult:
    id: str
    description: str
    status: str
    detail: str


@dataclass
class VerifySuiteResult:
    name: str
    checks: list[CheckResult]

    @property
    def n_pass(self) -> int:
        return sum(c.status == PASS for c in self.checks)

    @property
    def n_fail(self) -> int:
        return sum(c.status == FAIL for c in self.checks)

    @property
    def n_discrepancy(self) -> int:
        return sum(c.status == DISCREPANCY for c in self.checks)


@dataclass
class VerifyRun:
    m: int
    t: int
    suites: list[VerifySuiteResult]

    @property
    def exit_code(self) -> int:
        return 1 if any(s.n_fail for s in self.suites) else 0


def _check(cid: str, description: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(cid, description, PASS if ok else FAIL, detail)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _bfs_distance_total(graph: KochGraph) -> int | None:
    """The graph's all-pairs BFS distance total, or None above ``analytics.APL_EXACT_MAX_N``."""
    return graph.bfs_distance_total if graph.n_vertices <= analytics.APL_EXACT_MAX_N else None


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

def _edge_triangle(graph: KochGraph) -> CheckResult:
    """The triangles' corner pairs, each an edge key u * N + v, are the edges once each."""
    u, v = graph.corner_pair_ends().T
    corner_pairs = np.minimum(u, v) * np.int64(graph.n_vertices) + np.maximum(u, v)
    corner_pairs.sort()
    covered = len(corner_pairs) - int(np.count_nonzero(np.diff(corner_pairs) == 0))
    edge_keys = graph.edges[:, 0] * np.int64(graph.n_vertices) + graph.edges[:, 1]
    ok = covered == len(corner_pairs) and np.array_equal(corner_pairs, edge_keys)
    return _check("labels/edge-triangle", "every edge belongs to exactly one triangle", ok, f"covered={covered}")


def labels_suite(graph: KochGraph) -> list[CheckResult]:
    """The label checks on arrays: no ``Label`` per vertex.

    The label side reads only the four label arrays and compares int64
    label keys: each vertex's own key, and its father's by one father step
    on the arrays.  The graph side reads only the triangle table, the CSR
    adjacency and ``father_of``.  The per-vertex and per-slot checks run
    over vertex ranges of about ``_CHUNK_SLOTS`` CSR slots, so what they
    hold beyond the N-long keys is bounded by the chunk.
    """
    m, t = graph.m, graph.t
    out = []
    n, e, tri = graph.n_vertices, len(graph.edges), len(graph.triangles)
    out.append(
        _check(
            "labels/order-size",
            "vertex/edge/triangle counts match the closed forms",
            (n, e, tri) == (vertex_count(m, t), edge_count(m, t), triangle_count(m, t)),
            f"N={n} E={e} T={tri}",
        )
    )

    out.append(_edge_triangle(graph))

    # l_max of each class code (1 << birth) | bits; 0 for the hubs' code and for codes of no class
    bound = np.zeros(2 << t, np.int64)
    for j in range(1, t + 1):
        for k in range(1 << (j - 1)):  # a leading 0, the rest free
            bound[(1 << j) | k] = l_max(m, format(k, f"0{j}b"))
    enumerated = 3 + 3 * int(bound.sum())
    subnet, birth, bits, index = graph.subnet, graph.birth, graph.bits, graph.index
    keys = label_keys(m, t, subnet, birth, bits, index)
    rank = np.unique(keys, return_inverse=True)[1]  # of each key among the distinct keys
    father_keys = label_keys(m, t, subnet, *_father_fields(m, t, birth, bits, index))
    hub = birth == 0
    hub_label = np.isin(keys, label_keys(m, t, np.arange(1, 4), 0, 0, 0))
    indptr, indices = graph.csr

    invalid = partition_bad = father_bad = degree_bad = 0
    first_bad = -1
    for lo, hi in _kernels.row_chunks(indptr, _CHUNK_SLOTS):
        at = slice(lo, hi)
        born = birth[at].astype(np.int64)  # int8 wraps in a shift or power past 7 steps
        b = np.clip(born, 0, t)  # keeps a bad birth's code inside the table
        growth = 2 * (m + 1) ** (t - born)  # the degree formula
        # the labels are the enumerated set, once each, when they are distinct, each one is a
        # label of K_{m,t} (a class in the table, an index in 1..l_max or 0 for a hub) and
        # there are as many as the enumeration holds
        shaped = np.isin(subnet[at], (1, 2, 3)) & (b == born) & (bits[at] >= 0) & (bits[at] < (1 << b))
        code = np.where(shaped, (1 << b) | bits[at], 0)
        valid = shaped & (index[at] >= (born > 0)) & (index[at] <= bound[code])
        invalid += int(np.count_nonzero(~valid))

        # each slot's neighbour w is v's father or companion (index flipped within its odd/even
        # pair), a child of v, or, for a hub v, another hub
        degree = np.diff(indptr[lo : hi + 1])
        slot_v = np.repeat(np.arange(hi - lo), degree)  # from lo
        w = indices[indptr[lo] : indptr[hi]].astype(np.intp)
        kv, kw = keys[at][slot_v], keys[w]
        companion_keys = keys[at] + np.where(index[at] % 2 == 1, 1, -1)
        neighbor = np.where(
            hub[at][slot_v],
            hub_label[w] & (kw != kv),
            (kw == father_keys[at][slot_v]) | (kw == companion_keys[slot_v]),
        ) | (~hub[w] & (father_keys[w] == kv))
        # the distinct neighbour labels of each vertex: its slots less repeated (v, label) pairs
        pairs = np.sort(slot_v * n + rank[w])
        repeats = np.bincount(pairs[1:][pairs[1:] == pairs[:-1]] // n, minlength=hi - lo)
        bad = np.bincount(slot_v[~neighbor], minlength=hi - lo) > 0
        bad |= degree - repeats != growth
        partition_bad += int(bad.sum())
        if first_bad < 0 and bad.any():
            first_bad = lo + int(np.argmax(bad))

        sons = np.arange(max(lo, 3), max(hi, 3))
        father_bad += int(np.count_nonzero(father_keys[sons] != keys[graph.father_of(sons)]))
        degree_bad += int(np.count_nonzero(graph.degrees[at] != growth))

    out.append(
        _check(
            "labels/bijection",
            "enumerated label set equals the built vertex labels, no duplicates",
            int(rank.max()) + 1 == n and invalid == 0 and n == enumerated,
            f"|labels|={enumerated}",
        )
    )
    out.append(
        _check(
            "labels/partition",
            "companion+children+father from arithmetic equal the adjacency list, all vertices",
            partition_bad == 0,
            f"vertices={n} mismatches={partition_bad}"
            + (f" first={graph.label_of(first_bad)}" if partition_bad else ""),
        )
    )
    out.append(
        _check(
            "labels/father-blocks",
            "father formula inverts the child-block assignment for every non-hub",
            father_bad == 0,
            f"mismatches={father_bad}",
        )
    )
    out.append(
        _check(
            "labels/degree-formula",
            "every degree equals 2(m+1)^(t-birth)",
            degree_bad == 0,
            f"mismatches={degree_bad}",
        )
    )

    step_totals = [int(bound[1 << j : 3 << (j - 1)].sum()) for j in range(1, t + 1)]  # bits led by 0
    ok = all(3 * total == analytics.delta_v(m, j) for j, total in enumerate(step_totals, start=1))
    out.append(
        _check(
            "labels/index-space",
            "per-step index space sums to the per-step growth 6m(3m+1)^(j-1)",
            ok,
        )
    )
    return out


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

def routing_suite(
    graph: KochGraph, seed: int = 0, sample_pairs: int = 10**5
) -> list[CheckResult]:
    """Label routes against the BFS oracle, on every pair up to ``EXHAUSTIVE_PAIR_LIMIT`` vertices.

    Above that, on ``sample_pairs`` seeded pairs in rows: ``SAMPLE_SOURCES``
    distinct seeded sources, each with an equal share of seeded targets
    (fewer sources when there are fewer pairs than that).  In both cases
    one BFS sweep of the pairs' sources reads every pair's distance and
    counts the extra BFS parents of every vertex the sources reach
    (``_kernels.pair_distances``); the uniqueness check passes when that
    count is 0.  All pairs need only the sources 0..N-2, since
    sigma(s,v) = sigma(v,s).  On a fail its detail gives the count (the
    sum of parents less one), not the pairs with more than one path.

    Routes are checked on their two halves (``RouteBatch``): per chunk,
    each distinct endpoint's chain is mapped to ids and each of its edges
    tested once, and then each route costs O(1): its length, its two
    halves against their chains' runs of edges, the junction, its two
    ends, and its reversal against the backward route, by key where the
    two splits differ.  That is O(P + E t) per chunk of P pairs with E
    distinct endpoints, not O(P t).
    """
    m, t = graph.m, graph.t
    n = graph.n_vertices
    indptr, indices = graph.csr
    out = []

    exhaustive = n <= EXHAUSTIVE_PAIR_LIMIT
    if exhaustive:
        src, dst = np.triu_indices(n, 1)
    else:
        rng = np.random.default_rng(seed)
        sources = rng.choice(n, SAMPLE_SOURCES, replace=False)
        per_row = np.diff(np.arange(SAMPLE_SOURCES + 1) * sample_pairs // SAMPLE_SOURCES)
        src = np.repeat(sources, per_row)
        dst = rng.integers(0, n - 1, sample_pairs)
        dst[dst >= src] += 1
    dist, extra = _kernels.pair_distances(indptr, indices, src, dst)

    mismatches = 0
    invalid = 0
    ops_max = 0
    asym = 0
    witness = ""
    # each chunk is routed both ways in one call, which finds every endpoint's chain once;
    # each chain's hop pairs are tested once, and each route costs O(1) on its two halves
    for lo in range(0, len(src), _CHUNK_PAIRS):
        chunk = slice(lo, lo + _CHUNK_PAIRS)
        s, v, want = src[chunk], dst[chunk], dist[chunk]
        both = route_batch(graph, np.concatenate((s, v)), np.concatenate((v, s)))
        fwd, bwd = slice(0, len(s)), slice(len(s), None)
        a_row, b_row = both.a_row[fwd], both.b_row[fwd]
        a_hops, b_hops = both.a_hops[fwd], both.b_hops[fwd]
        length, bwd_length = both.length[fwd], both.length[bwd]
        ops_max = max(ops_max, int(both.ops_used[fwd].max()))

        wrong = np.flatnonzero(length != want)
        mismatches += len(wrong)
        if len(wrong) and not witness:
            p = wrong[0]
            witness = (
                f"{graph.label_of(int(s[p]))}->{graph.label_of(int(v[p]))}"
                f" got {int(length[p])} want {int(want[p])}"
            )

        # per chain, how many of its leading hop pairs are edges: the first non-edge's column
        chains = both.chains
        ids = graph.vertex_by_label_key(chains)
        edge = graph.corner_pair(ids[:, :-1], ids[:, 1:]) >= 0
        good = np.argmin(np.column_stack((edge, np.zeros(len(ids), bool))), axis=1)
        a_end, b_end = ids[a_row, np.maximum(a_hops - 1, 0)], ids[b_row, np.maximum(b_hops - 1, 0)]
        valid = (
            (a_hops > 0)
            & (a_hops - 1 <= good[a_row])
            & (b_hops - 1 <= good[b_row])
            & ((b_hops == 0) | (graph.corner_pair(a_end, b_end) >= 0))  # the junction
            & (ids[a_row, 0] == s)
            & (np.where(b_hops > 0, ids[b_row, 0], a_end) == v)  # the last hop
        )
        invalid += int(np.count_nonzero(~valid))

        # route(b,a), split (m_b, m_a), reversed is A[:m_a] then B[:m_b] read back: it equals
        # route(a,b) when the rows and lengths agree and, at each hop k from the smaller split
        # to below the larger, A[k] == B[length - k], one side's key against the other's
        m_a = both.b_hops[bwd]
        sym = (both.b_row[bwd] == a_row) & (both.a_row[bwd] == b_row) & (bwd_length == length)
        k, stop = np.minimum(a_hops, m_a), np.maximum(a_hops, m_a)
        p = np.flatnonzero(sym & (k < stop))
        while len(p):  # at most t + 1 rounds; a typical pair needs one
            at = k[p]
            same = chains[a_row[p], np.minimum(at, t)] == chains[b_row[p], np.clip(length[p] - at, 0, t)]
            sym[p[~same]] = False
            k[p] += 1
            p = p[same & (k[p] < stop[p])]
        asym += int(np.count_nonzero(~sym))

    mode = "all-pairs" if exhaustive else f"{len(src)} seeded pairs"
    out.append(
        _check(
            "routing/optimality",
            f"label-route length equals BFS distance ({mode})",
            mismatches == 0,
            f"pairs={len(src)} mismatches={mismatches}" + (f" first={witness}" if witness else ""),
        )
    )
    out.append(
        _check(
            "routing/path-validity",
            "every consecutive hop pair is an edge",
            invalid == 0,
            f"invalid={invalid}",
        )
    )
    out.append(
        _check(
            "routing/op-budget",
            f"father/companion evaluations per query stay within 2t+3 = {2*t+3}",
            ops_max <= 2 * t + 3,
            f"max_ops={ops_max}",
        )
    )
    out.append(
        _check(
            "routing/reversal",
            "route(a,b) reversed equals route(b,a)",
            asym == 0,
            f"asymmetric={asym}",
        )
    )

    if exhaustive:
        scope = "between every vertex pair"
        detail = f"multi-path (source,target) incidences={extra}"
    else:
        scope = f"from {np.count_nonzero(per_row)} sampled sources to every target"
        detail = f"multi-path incidences={extra}"
    out.append(
        _check("routing/uniqueness", f"exactly one shortest path {scope}", extra == 0, detail)
    )
    return out


# ---------------------------------------------------------------------------
# centrality
# ---------------------------------------------------------------------------

def _birth_symmetry(low: np.ndarray, high: np.ndarray, pair_norm: int) -> CheckResult:
    """Each birth step's exact counts, as their per-step min and max, are all equal."""
    spread = int(np.max(high - low))
    desc = "exact betweenness is identical within each birth step"
    return _check("centrality/birth-symmetry", desc, spread == 0, f"max_spread={_fmt(spread / pair_norm)}")


def _firstorder_young(
    m: int, counts: np.ndarray, births: np.ndarray, forms: list[Fraction], pair_norm: int
) -> CheckResult:
    """Exact counts of the vertices born at t-1 or t against the per-step ``firstorder`` forms.

    Decided pair for pair in integers; ``max_gap`` is the normalized float gap, for the text.
    """
    ok = bool(np.array_equal(counts, np.array([int(form * pair_norm) for form in forms])[births]))
    gap = float(np.max(np.abs(counts / pair_norm - centrality.per_element(forms, births))))
    return CheckResult(
        "centrality/firstorder-young",
        "descendants-times-rest composition equals the oracle at t-birth <= 1",
        PASS if ok else (DISCREPANCY if m >= 2 else FAIL),
        f"max_gap={_fmt(gap)}" + ("" if ok else " (grouped sons of one father route through it when m>1)"),
    )


def _sum_rule(m: int, t: int, total: int, distance_total: int, bfs_total: int | None) -> CheckResult:
    """The summed vertex counts against sum(d_st - 1) over unordered pairs, exactly.

    ``distance_total`` (ordered pairs) must also equal the paper's APL
    closed form, and ``bfs_total``, its BFS oracle where there is one.
    """
    n = vertex_count(m, t)
    pairs = n * (n - 1) // 2
    expected = analytics.apl_closed_form(m, t) * pairs - pairs
    return _check(
        "centrality/sum-rule",
        "interior path counts sum to sum(d_st - 1) over pairs",
        total == distance_total // 2 - pairs == expected and (bfs_total is None or bfs_total == distance_total),
        f"sum={_fmt(float(total))} expected={_fmt(float(expected))}",
    )


def centrality_suite(graph: KochGraph) -> list[CheckResult]:
    """Every verdict but the printed-formula audit and the scaling fit is an int or Fraction equality."""
    m, t = graph.m, graph.t
    report = centrality.centrality_report(graph)
    counts, norm = report.vertex_counts, report.pair_norm
    low, high = graph.step_min_max(counts)
    out = [_birth_symmetry(low, high, norm)]
    leaf_max = int(high[t])
    desc = "vertices born at the final step have betweenness 0"
    out.append(_check("centrality/leaves-zero", desc, leaf_max == 0, f"max={_fmt(leaf_max / norm)}"))
    if t >= 1:
        young = slice(graph.step_starts[t - 1], None)  # born at t - 1 or t
        out.append(_firstorder_young(m, counts[young], graph.birth[young], report.firstorder, norm))
    if t >= 2:
        desc = "exact betweenness strictly decreases with birth step"
        out.append(_check("centrality/monotone", desc, bool(np.all(high[1:] < low[:-1]))))
    out.append(_sum_rule(m, t, int(counts.sum()), graph.distance_total, _bfs_distance_total(graph)))

    tri = triangle_count(m, t)
    classes = edge_class_counts(graph)
    expected_counts = {
        EDGE_HUB_HUB: 3,
        EDGE_COMPANION: tri - 1,
        EDGE_FATHER_CHILD: 2 * (tri - 1),
    }
    sons = graph.triangles[1:, 1:]  # rows ascend, so the two sons are the later ids
    third_vertex_pairs = int(np.count_nonzero(graph.companion_of(sons[:, 0]) == sons[:, 1]))
    out.append(
        _check(
            "centrality/edge-classes",
            "edges split as 3 hub-hub, one companion per group, two father-child per group",
            classes == expected_counts and third_vertex_pairs == tri - 1,
            f"counts={classes}",
        )
    )

    if (m, t) == (1, 1):
        hub = Fraction(int(counts[0]), norm)  # hub 1
        edge = Fraction(int(report.edge_counts[graph.corner_pair(0, 3)]), norm)  # hub 1 to its son 10.1
        out.append(
            _check(
                "centrality/k11-golden",
                "hand-enumerated K_{1,1} values: hub 3/7, hub-son edge 1/4",
                hub == Fraction(3, 7) and edge == Fraction(1, 4),
                f"hub={_fmt(float(hub))} edge={_fmt(float(edge))}",
            )
        )

    audit = report.audit()
    for key, cid, desc in (
        ("eq9_matches", "centrality/printed-vertex-formula", "printed vertex closed form vs oracle"),
        ("eq12_matches", "centrality/printed-edge-formula", "printed edge closed form vs oracle"),
    ):
        out.append(
            CheckResult(
                cid,
                desc,
                PASS if audit[key] else DISCREPANCY,
                f"matches={audit[key]} max_rel_gap={_fmt(audit['max_rel_gap'])}",
            )
        )

    if report.gamma_hat is not None:
        target = analytics.degree_exponent(m)
        rel = abs(report.gamma_hat - target) / target
        ok = rel <= 0.15 or t < 5  # finite-size allowance is only claimed for deep graphs
        out.append(
            _check(
                "centrality/scaling",
                "log-log slope of betweenness vs degree near ln(3m+1)/ln(m+1)",
                ok,
                f"gamma_hat={_fmt(report.gamma_hat)} target={_fmt(target)} rel_dev={_fmt(rel)}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# electrical
# ---------------------------------------------------------------------------

# the voltage-gap statistic of the community-gap control: two triangles {0,1,2} and {3,4,5}
# joined by the bridge (2,3), with unit current in at 0 and out at 3.  The far triangle carries
# none, so 3, 4 and 5 sit at 0 and phi2 = 1; the near triangle is 2/3 ohm from 0 to 2, so
# phi0 = 5/3 and phi1 = 4/3.  Normalized by phi0 the spectrum is {0, 0, 0, 3/5, 4/5, 1}, and its
# largest gap is 3/5
_CONTROL_GAP = 3 / 5


def _hub_probe(graph: KochGraph) -> tuple[float, float]:
    """Effective resistance and voltage gap of the field between hubs 0 and 1; the field is not kept."""
    field = electrical.solve(graph, 0, 1)
    return field.effective_resistance, electrical.voltage_gap(field).gap


def _reciprocal(graph: KochGraph, field: electrical.ElectricalProfile, s: int, v: int) -> bool:
    """The field from s to v against the solve from v to s: equal resistance, negated currents."""
    rev = electrical.solve(graph, v, s)
    return (
        abs(field.effective_resistance - rev.effective_resistance) < 1e-9
        and float(np.max(np.abs(field.edge_currents + rev.edge_currents))) < 1e-9
    )


def electrical_suite(graph: KochGraph, seed: int = 0, n_pairs: int = 50) -> list[CheckResult]:
    n = graph.n_vertices
    out = []

    hub_r, hub_gap = _hub_probe(graph)
    out.append(
        _check(
            "electrical/triangle-base",
            "adjacent hubs see 1 ohm parallel to a 2 ohm detour: R = 2/3",
            abs(hub_r - 2 / 3) < 1e-9,
            f"R={_fmt(hub_r)}",
        )
    )

    rng = np.random.default_rng(seed)
    k = min(n_pairs, n * (n - 1) // 2)
    pairs = set()
    while len(pairs) < k:
        s, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if s != v:
            pairs.add((min(s, v), max(s, v)))
    pairs = sorted(pairs)

    support_ok = voltage_ok = split_ok = series_ok = rayleigh_ok = True
    worst_off = 0.0
    worst_series = 0.0
    reciprocal = None  # read from the first pair's field while it is held
    for s, v in pairs:
        prof = electrical.path_profile(graph, s, v)
        if reciprocal is None:
            reciprocal = _reciprocal(graph, prof.field, s, v)
        support_ok &= prof.thm_support_ok
        voltage_ok &= prof.thm_voltages_ok
        split_ok &= prof.thm_split_ok
        worst_off = max(worst_off, prof.max_offpath_current)
        r_eff = prof.field.effective_resistance
        gap = abs(r_eff - 2 * prof.distance / 3)
        worst_series = max(worst_series, gap)
        series_ok &= gap < 1e-9
        rayleigh_ok &= r_eff <= prof.distance + 1e-12
        del prof  # one field at a time: the next pair's is solved without this one held
    out.append(
        _check(
            "electrical/current-localization",
            f"current confined to the path's triangle chain on {len(pairs)} pairs",
            support_ok,
            f"max_offpath={_fmt(worst_off)}",
        )
    )
    out.append(
        _check(
            "electrical/voltage-progression",
            "on-path voltages fall 1..0 in steps of 1/d, chain midpoints at half-steps",
            voltage_ok,
        )
    )
    out.append(
        _check(
            "electrical/current-split",
            "each chain triangle carries 2/3 direct and 1/3 detour current",
            split_ok,
        )
    )
    out.append(
        _check(
            "electrical/series-law",
            "effective resistance equals (2/3) * distance",
            series_ok,
            f"max_gap={_fmt(worst_series)}",
        )
    )
    out.append(
        _check(
            "electrical/rayleigh",
            "effective resistance never exceeds the shortest-path length",
            rayleigh_ok,
        )
    )

    out.append(
        _check(
            "electrical/reciprocity",
            "swapping the probe pair preserves resistance and negates currents",
            reciprocal,
        )
    )

    if n <= electrical.CFB_EXHAUSTIVE_MAX_N:
        # on the Laplacian oracle; the structural values are pinned to it by the tests
        low, high = graph.step_min_max(electrical._exhaustive_cfb(graph))
        spread = float(np.max(high - low))
        out.append(
            _check(
                "electrical/cfb-symmetry",
                "current-flow betweenness identical within each birth step",
                spread < 1e-9,
                f"max_spread={_fmt(spread)}",
            )
        )
        if graph.t >= 1:
            ordered = bool(np.all(low[:-1] > high[1:]))
            out.append(
                _check(
                    "electrical/cfb-order",
                    "current-flow betweenness decreases with birth step",
                    ordered,
                )
            )

    out.append(
        _check(
            "electrical/community-gap",
            "two bridged triangles out-gap the hub-pair probe (no strong communities here)",
            _CONTROL_GAP > hub_gap,
            f"koch_hub_gap={_fmt(hub_gap)} control={_fmt(_CONTROL_GAP)}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def stats_suite(graph: KochGraph) -> list[CheckResult]:
    m, t = graph.m, graph.t
    out = []
    report = analytics.stats_report(graph)
    out.append(
        _check(
            "stats/order-size",
            "measured N and E equal the closed forms",
            report.counts_match,
            f"N={report.empirical.n_vertices} E={report.empirical.n_edges}",
        )
    )
    out.append(
        _check(
            "stats/degree-histogram",
            "degree multiset is exactly the predicted one",
            report.histogram_matches,
        )
    )
    out.append(
        _check(
            "stats/handshake",
            "degree sum is twice the edge count and growth telescopes to N",
            sum(k * c for k, c in report.empirical.degree_histogram.items())
            == 2 * report.empirical.n_edges
            and sum(report.closed.delta_v) + 3 == report.closed.n_vertices,
        )
    )
    out.append(
        _check(
            "stats/local-clustering",
            "every vertex has local clustering exactly 1/(degree-1)",
            report.empirical.local_clustering_is_inverse_degree,
        )
    )
    out.append(
        _check(
            "stats/avg-clustering",
            "measured average clustering equals the exact rational sum",
            report.empirical.clustering == report.closed.clustering,
            f"value={_fmt(float(report.closed.clustering))}",
        )
    )
    out.append(
        _check(
            "stats/cumulative-degree",
            "cumulative degree fractions follow (2(3m+1)^i + 1)/N",
            analytics.cumulative_degree_check(m, t, report.empirical.degree_histogram),
        )
    )
    bfs_total = _bfs_distance_total(graph)
    out.append(
        _check(
            "stats/apl-exact",
            "structural average path length equals the closed form exactly"
            if bfs_total is None
            else "all-pairs BFS average path length equals the closed form exactly",
            report.apl_matches and (bfs_total is None or bfs_total == graph.distance_total),
            f"apl={report.empirical.apl}",
        )
    )
    if t >= 2:
        audit = analytics.claim_audit(report)
        if m == 1:
            ok = audit.clustering_gap_vs_limit <= 0.01 if t >= 6 else True
            out.append(
                _check(
                    "stats/clustering-limit",
                    "average clustering approaches the claimed 0.82008 limit (checked at t >= 6)",
                    ok,
                    f"value={_fmt(audit.clustering_value)} gap={_fmt(audit.clustering_gap_vs_limit)}",
                )
            )
        ok = audit.apl_increment_rel_dev <= 0.05 if t >= 5 else True
        out.append(
            _check(
                "stats/apl-increment",
                "per-step APL increment approaches 4m/(3m+1) (checked at t >= 5)",
                ok,
                f"increment={_fmt(audit.apl_increment)} target={_fmt(audit.apl_increment_target)}"
                f" rel_dev={_fmt(audit.apl_increment_rel_dev)}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

SUITE_ORDER = _VERIFY_SUITES  # the package holds the one list, which the CLI parser reads too


def run(
    m: int,
    t: int,
    suites: tuple[str, ...] | list[str] = SUITE_ORDER,
    seed: int = 0,
    sample_pairs: int = 10**5,
    electrical_pairs: int = 50,
) -> VerifyRun:
    graph = build(m, t)
    results = []
    for name in suites:
        if name == "labels":
            checks = labels_suite(graph)
        elif name == "routing":
            checks = routing_suite(graph, seed=seed, sample_pairs=sample_pairs)
        elif name == "centrality":
            checks = centrality_suite(graph)
        elif name == "electrical":
            checks = electrical_suite(graph, seed=seed, n_pairs=electrical_pairs)
        elif name == "stats":
            checks = stats_suite(graph)
        else:
            raise ValueError(f"unknown suite {name!r}")
        results.append(VerifySuiteResult(name, checks))
    return VerifyRun(m=m, t=t, suites=results)


def render(run_result: VerifyRun) -> str:
    lines = [f"verify K_{{{run_result.m},{run_result.t}}}"]
    for suite in run_result.suites:
        lines.append(f"suite {suite.name}")
        for c in suite.checks:
            tag = {PASS: "PASS", FAIL: "FAIL", DISCREPANCY: "PAPER-DISCREPANCY"}[c.status]
            line = f"  [{tag}] {c.id}: {c.description}"
            if c.detail:
                line += f" | {c.detail}"
            lines.append(line)
        lines.append(
            f"  {suite.n_pass} passed, {suite.n_fail} failed, "
            f"{suite.n_discrepancy} paper-discrepancies"
        )
    total_fail = sum(s.n_fail for s in run_result.suites)
    lines.append("RESULT: " + ("FAIL" if total_fail else "OK"))
    return "\n".join(lines) + "\n"
