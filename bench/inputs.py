"""Seeded benchmark inputs: interval graphs, the fan gadget, and queries whose
answers are known by construction.

Nothing here imports ``safesep``: the generators are the benchmark's own, so a
change to the program's generators cannot change a workload.  A graph is a
plain ``Graph`` record (vertex count, edge list, weights, and for interval
graphs the interval model the edges were read from); the benchmark's checks
work on these records, and the program receives only the edge lists.

Every query is valid (A and B disjoint and non-adjacent) and carries its
expected existence, proved by construction:

* "exists" queries on an interval graph put A left of a cut point p and B
  right of it, with A and B each connected in the graph minus the intervals
  that contain p.  That point cut is a safe separator, so an answer exists and
  its weight is an upper bound on the optimum.
* "none" queries put a vertex b of B strictly between two vertices of A, none
  of them overlapping.  Every path joining those two A vertices covers b's
  interval, so it passes through b or a neighbour of b: no deletion that keeps
  A connected can also cut A from b.
* fan-gadget queries always have an answer; the benchmark lists several safe
  separators of the gadget and keeps the lightest as the upper bound.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

WMAX = 10


class NoQuery(RuntimeError):
    """The graph has no query of the requested kind near the requested place."""


@dataclass
class Graph:
    n: int
    edges: list
    weights: list
    intervals: list = field(default_factory=list)  # (start, end) per vertex, sorted by start
    degree: float = 0.0  # expected vertex degree the interval lengths were drawn for

    def adjacency(self) -> list:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


@dataclass(frozen=True)
class Query:
    graph: int  # index into the workload's graph list
    A: tuple
    B: tuple
    exists: bool
    witness: tuple | None  # a safe separator known by construction, if any


def interval_graph(n: int, rng, degree: float = 8.0) -> Graph:
    """Connected interval graph on n vertices, numbered in start order.

    Starts are uniform on [0, 1) and lengths uniform on [0, d/n), so a
    vertex overlaps about d others.  An interval that would start past the
    right end of everything before it is shifted left onto that end, which
    keeps the model connected and the starts sorted.
    """
    scale = degree / n
    raw = sorted((rng.random(), rng.random() * scale + 1e-9) for _ in range(n))
    intervals = []
    covered = raw[0][0]
    for start, length in raw:
        start = min(start, covered)
        intervals.append((start, start + length))
        covered = max(covered, start + length)
    edges = []
    active = []  # (end, vertex) of intervals that may still overlap later ones
    for v, (start, end) in enumerate(intervals):
        active = [(e, u) for e, u in active if e >= start]
        edges.extend((u, v) for _, u in active)
        active.append((end, v))
    weights = [rng.randint(1, WMAX) for _ in range(n)]
    return Graph(n, edges, weights, intervals, degree)


def _overlap(iv, jv) -> bool:
    return iv[0] <= jv[1] and jv[0] <= iv[1]


def _connected_within(graph: Graph, members, allowed) -> bool:
    """True iff ``members`` lie in one component of the subgraph induced on
    ``allowed`` (a set of vertices), using overlaps of the interval model."""
    members = list(members)
    if not set(members) <= allowed:
        return False
    ivs = graph.intervals
    pool = sorted(allowed)
    seen = {members[0]}
    stack = [members[0]]
    while stack:
        u = stack.pop()
        for v in pool:
            if v not in seen and _overlap(ivs[u], ivs[v]):
                seen.add(v)
                stack.append(v)
    return all(m in seen for m in members)


def _point_cut(graph: Graph, p: float, lo: int, hi: int) -> list:
    """Vertices in index range [lo, hi) whose interval contains p."""
    return [v for v in range(lo, hi) if graph.intervals[v][0] <= p <= graph.intervals[v][1]]


def _window(graph: Graph, p: float, width: float) -> tuple:
    """Index range [lo, hi) of the intervals that meet [p - width, p + width]."""
    longest = graph.degree / graph.n
    lo = bisect_left(graph.intervals, p - width - longest, key=itemgetter(0))
    hi = bisect_right(graph.intervals, p + width, key=itemgetter(0))
    return lo, hi


def _near(graph: Graph, rng, where) -> int:
    """A random vertex within 1% of the graph from fraction ``where`` of the
    start order, or anywhere in the middle 80% when ``where`` is None.
    Query cost grows with the share of the graph on either side of the
    terminals, so fixing the fraction keeps costs comparable between seeds."""
    if where is None:
        return rng.randrange(graph.n // 10, graph.n - graph.n // 10)
    jitter = max(4, graph.n // 100)
    centre = min(max(int(where * graph.n), jitter), graph.n - 1 - jitter)
    return centre + rng.randint(-jitter, jitter)


def exists_query(graph: Graph, gi: int, rng, size_a: int, size_b: int, where: float) -> Query:
    """A left of a cut point p, B right of it, each connected beside the cut."""
    ivs = graph.intervals
    unit = 1.0 / graph.n
    for _ in range(1000):
        p = ivs[_near(graph, rng, where)][1] + 1e-12
        lo, hi = _window(graph, p, 12 * unit)
        left = [v for v in range(lo, hi) if ivs[v][1] < p and ivs[v][1] > p - 4 * unit]
        right = [v for v in range(lo, hi) if ivs[v][0] > p and ivs[v][0] < p + 4 * unit]
        if len(left) < size_a or len(right) < size_b:
            continue
        A = tuple(sorted(rng.sample(left, size_a)))
        B = tuple(sorted(rng.sample(right, size_b)))
        witness = _best_point_cut(graph, A, B, lo, hi)
        if witness is not None:
            return Query(gi, A, B, True, witness)
    raise NoQuery("no exists query found")


def _best_point_cut(graph: Graph, A, B, lo: int, hi: int):
    """Lightest safe point cut between A and B found inside the window, as a
    sorted vertex tuple, or None.  The cut at q (every interval containing q)
    is safe when A ends before q, B starts after q, and each side stays
    connected inside the window once the cut is removed."""
    ivs = graph.intervals
    a_end = max(ivs[a][1] for a in A)
    b_start = min(ivs[b][0] for b in B)
    points = [a_end + 1e-12] + [
        ivs[v][1] + 1e-12 for v in range(lo, hi) if a_end < ivs[v][1] < b_start
    ]
    best = None
    for q in points:
        if not q < b_start:
            continue
        cut = set(_point_cut(graph, q, lo, hi))
        left = {v for v in range(lo, hi) if ivs[v][1] < q}
        right = {v for v in range(lo, hi) if ivs[v][0] > q}
        if _connected_within(graph, A, left) and _connected_within(graph, B, right):
            weight = sum(graph.weights[v] for v in cut)
            if best is None or weight < best[0]:
                best = (weight, tuple(sorted(cut)))
    return None if best is None else best[1]


def none_query(graph: Graph, gi: int, rng, size_a: int, size_b: int, where: float) -> Query:
    """b in B strictly between a1 and a2 in A, no two of them overlapping."""
    ivs = graph.intervals
    unit = 1.0 / graph.n
    for _ in range(1000):
        b = _near(graph, rng, where)
        lo, hi = _window(graph, (ivs[b][0] + ivs[b][1]) / 2, 12 * unit)
        before = [v for v in range(lo, hi) if ivs[v][1] < ivs[b][0]]
        after = [v for v in range(lo, hi) if ivs[v][0] > ivs[b][1]]
        if not before or not after:
            continue
        A = {rng.choice(before), rng.choice(after)}
        B = {b}
        spare = [v for v in range(lo, hi) if v not in A and v != b]
        rng.shuffle(spare)
        for v in spare:
            if len(A) < size_a and not any(_overlap(ivs[v], ivs[x]) for x in B):
                A.add(v)
            elif len(B) < size_b and not any(_overlap(ivs[v], ivs[x]) for x in A):
                B.add(v)
        if len(A) == size_a and len(B) == size_b:
            return Query(gi, tuple(sorted(A)), tuple(sorted(B)), False, None)
    raise NoQuery("no none query found")


def interval_queries(graph: Graph, gi: int, rng, mix) -> list:
    """Queries on one interval graph; ``mix`` lists (kind, |A|, |B|, where)
    with ``where`` the terminals' position as a fraction of the graph."""
    out = []
    for kind, size_a, size_b, where in mix:
        make = exists_query if kind == "exists" else none_query
        out.append(make(graph, gi, rng, size_a, size_b, where))
    return out


def fan_graph(k: int, body_n: int, rng) -> tuple:
    """The fan gadget: a query whose close families have k members per side.

    A = {s, a} with s and a both joined to every vertex of a k-clique M; each
    m_i has its own exit x_i, the exits form a k-clique, and every exit is
    joined to the first interval of an interval-graph body.  The B side
    mirrors this at the body's last-ending interval.  Returns (graph, A, B,
    candidate safe separators).

    The candidates are X and its mirror, (M - m_i) + x_i and their mirrors,
    and every point cut of the body that leaves the first interval on its
    left and the last-ending one on its right: A and B stay connected
    through their cliques, and no body path from one end to the other
    avoids the cut.
    """
    body = interval_graph(body_n, rng)
    s, a = 0, 1
    M = list(range(2, 2 + k))
    X = list(range(2 + k, 2 + 2 * k))
    off = 2 + 2 * k
    Xb = list(range(off + body_n, off + body_n + k))
    Mb = list(range(off + body_n + k, off + body_n + 2 * k))
    t, b = off + body_n + 2 * k, off + body_n + 2 * k + 1
    n = b + 1
    edges = [(u + off, v + off) for u, v in body.edges]
    first = off
    last = off + max(range(body_n), key=lambda v: body.intervals[v][1])
    for side_a, side_b, mids, exits, anchor in ((s, a, M, X, first), (t, b, Mb, Xb, last)):
        for i, m in enumerate(mids):
            edges += [(side_a, m), (side_b, m), (m, exits[i]), (exits[i], anchor)]
            edges += [(m, m2) for m2 in mids[i + 1:]]
            edges += [(exits[i], x2) for x2 in exits[i + 1:]]
    edges = [(min(u, v), max(u, v)) for u, v in edges]
    weights = [rng.randint(1, WMAX) for _ in range(n)]
    candidates = [X, Xb]
    for mids, exits in ((M, X), (Mb, Xb)):
        for i in range(k):
            candidates.append([m for m in mids if m != mids[i]] + [exits[i]])
    ivs = body.intervals
    for v in range(body_n):
        q = ivs[v][1] + 1e-12
        if ivs[0][1] < q < ivs[last - off][0]:
            lo, hi = _window(body, q, 0.0)
            candidates.append([off + u for u in _point_cut(body, q, lo, hi)])
    return Graph(n, edges, weights), (s, a), (t, b), candidates


def fan_query(graph: Graph, gi: int, A, B, candidates) -> Query:
    witness = min(candidates, key=lambda S: sum(graph.weights[v] for v in S))
    return Query(gi, tuple(A), tuple(B), True, tuple(sorted(witness)))


def write_document(path, graph: Graph) -> None:
    """Write a graph in the line format the ``safesep`` command reads."""
    lines = [f"n={graph.n}", "w " + " ".join(map(str, graph.weights))]
    lines.extend(f"e {u} {v}" for u, v in sorted(graph.edges))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
