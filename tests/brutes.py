"""Exhaustive reference implementations used to cross-check the package.

Everything here favors the most literal reading of each definition over
speed, and relies only on the basic WeightedGraph surface (vertices,
neighbors, has_edge, weights) with its own traversals, so the package
helpers under test are never part of the yardstick.  The one exception,
``vertex_connectivity_st``, is no reference: it is the package's
minimum-weight cut on unit weights, kept here because only tests use it,
and is itself checked against ``max_disjoint_paths_brute``.
``CountingAdjacency`` is no reference either: it counts what a walk reads,
and the small named graphs and ``random_weighted_graph`` build inputs.
"""

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, product

from safesep import WeightedGraph, min_weight_st_separator


def reachable(g, start, forbidden) -> frozenset:
    """Vertices reachable from start without entering a forbidden vertex."""
    forbidden = frozenset(forbidden)
    if start in forbidden:
        return frozenset()
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if v not in seen and v not in forbidden:
                seen.add(v)
                stack.append(v)
    return frozenset(seen)


def side_with_boundary(g, start, forbidden) -> tuple:
    """(C, N(C)) for C the vertices reachable from start avoiding forbidden."""
    comp = reachable(g, start, forbidden)
    return comp, frozenset(y for c in comp for y in g.neighbors(c)) - comp


def components_brute(g, X) -> tuple:
    """(C, N(C)) for every component C of G - X, in the order of their least
    vertex: the reference for ``graph_core.components``."""
    X = frozenset(X)
    pairs = []
    for v in sorted(g.vertices):
        if v not in X and not any(v in C for C, _ in pairs):
            pairs.append(side_with_boundary(g, v, X))
    return tuple(pairs)


def ab_separates(g, A, B, S) -> bool:
    """No vertex of B is reachable from a vertex of A in G - S."""
    return all(reachable(g, a, S).isdisjoint(B) for a in A)


def is_minimal_ab_separator_brute(g, A, B, S) -> bool:
    """S is an A,B-separator and every vertex of S has a neighbor reachable
    from A and one reachable from B in G - S."""
    if not ab_separates(g, A, B, S):
        return False
    from_a = frozenset().union(*(reachable(g, a, S) for a in A))
    from_b = frozenset().union(*(reachable(g, b, S) for b in B))
    return all(g.neighbors(w) & from_a and g.neighbors(w) & from_b for w in S)


def is_safe_ab_separator_brute(g, A, B, S) -> bool:
    """A lies inside one component of G - S and B inside another."""
    sides_a = {reachable(g, a, S) for a in A}
    sides_b = {reachable(g, b, S) for b in B}
    return len(sides_a) == 1 and len(sides_b) == 1 and sides_a != sides_b


def close_side(g, X, t, excluded=frozenset()) -> tuple | None:
    """(C_t(G - E - N[X]), N_G(C_t(G - E - N[X]))) for E = excluded, or None
    when t lies in N[X].  The reference for ``minimal_separators.near_search``,
    whose separator is this boundary minus E."""
    closed = set(excluded) | set(X)
    for x in X:
        closed.update(g.neighbors(x))
    if t in closed:
        return None
    return side_with_boundary(g, t, closed)


def connected_within(g, X) -> bool:
    """True iff the subgraph induced on X is connected (or X is empty)."""
    X = frozenset(X)
    if not X:
        return True
    start = next(iter(X))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if v in X and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == X


def induced_delete(g, X):
    """G - X with every id kept: each vertex of X stays, isolated and with
    its weight, so every s,t-cut of G - X and every component of it that
    holds s or t is one of this graph."""
    X = frozenset(X)
    edges = [e for e in g.edges() if X.isdisjoint(e)]
    return WeightedGraph(g.n, edges, [g.weight(v) for v in g.vertices])


def contract_connected_set(g, u, A):
    """The graph with the connected set {u} | A contracted into u: u keeps
    its weight and sees every vertex outside the set that touched it, and
    each vertex of A stays, isolated and with its weight.  The reference for
    a flow network between cores."""
    A = frozenset(A)
    if not A:
        return g
    if u in A:
        raise ValueError("representative u must not be in A")
    if not g.has_vertex(u):
        raise ValueError(f"u: {u!r} is not an active vertex")
    blob = A | {u}
    if not connected_within(g, blob):
        raise ValueError("the set {u} | A does not induce a connected subgraph")
    ends = [(u if x in blob else x, u if y in blob else y) for x, y in g.edges()]
    return WeightedGraph(g.n, [e for e in ends if e[0] != e[1]], [g.weight(v) for v in g.vertices])


class CountingAdjacency(tuple):
    """A graph's adjacency that counts, in ``reads``, each id whose neighbor
    tuple a walk reads as ``adj[v]``; install it with :func:`count_reads`."""

    def __getitem__(self, v):
        self.reads[v] += 1
        return tuple.__getitem__(self, v)


def count_reads(g) -> Counter:
    """Swap g's adjacency for a :class:`CountingAdjacency` and return its
    (empty) Counter of reads."""
    adj = CountingAdjacency(g._adj)
    adj.reads = Counter()
    g._adj = adj
    return adj.reads


class ArcNetwork:
    """Directed network with integer capacities, built arc by arc, and
    shortest augmenting paths: the explicit vertex-split network that
    ``cold_min_cut`` flows, independent of the package's ``FlowNetwork``."""

    def __init__(self, node_count: int):
        self.node_count = node_count
        self.head = [[] for _ in range(node_count)]
        self.to = []
        self.cap = []

    def add_arc(self, u: int, v: int, capacity: int) -> int:
        """Add u->v with the given capacity plus a zero-capacity reverse arc;
        returns the forward arc index (reverse is index+1)."""
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def max_flow(self, s: int, t: int):
        """Augment the current flow to a maximum one along shortest augmenting
        paths; returns the flow added and the marks of the last, failing
        search, >= 0 exactly where s reaches in the residual.  A node's mark
        is the arc the breadth-first search reached it by."""
        head, to, cap = self.head, self.to, self.cap
        flow = 0
        while True:
            mark = [-1] * self.node_count
            mark[s] = 0  # any value >= 0: the walk back stops at s
            queue = [s]
            for u in queue:
                if mark[t] >= 0:
                    break
                for idx in head[u]:
                    v = to[idx]
                    if cap[idx] > 0 and mark[v] < 0:
                        mark[v] = idx
                        queue.append(v)
            if mark[t] < 0:
                return flow, mark
            path = []
            v = t
            while v != s:
                path.append(mark[v])
                v = to[mark[v] ^ 1]
            pushed = min(cap[idx] for idx in path)
            for idx in path:
                cap[idx] -= pushed
                cap[idx ^ 1] += pushed
            flow += pushed


def cold_min_cut(g, s, t, settled):
    """The cut that ``FlowNetwork(g, s, t).min_cut(settled)`` must return,
    from an explicit network built with the settled split arcs already at the
    infinite capacity and flowed from zero: (separator, weight), or None when
    the flow reaches the infinite capacity.  Every vertex v gets v_in = 2v
    and v_out = 2v + 1, the terminals' split arcs and every edge arc get the
    infinite capacity 1 + total weight, and the flow runs from s_out to
    t_in; the source side is the residual-reachable set."""
    inf = 1 + sum(g.weight(v) for v in g.vertices)
    net = ArcNetwork(2 * g.n)
    for v in g.vertices:
        raised = v in settled or v == s or v == t
        net.add_arc(2 * v, 2 * v + 1, inf if raised else g.weight(v))
        for u in g.neighbors(v):
            net.add_arc(2 * v + 1, 2 * u, inf)
    flow, _ = net.max_flow(2 * s + 1, 2 * t)
    if flow >= inf:
        return None
    seen = {2 * s + 1}
    stack = [2 * s + 1]
    while stack:
        x = stack.pop()
        for idx in net.head[x]:
            y = net.to[idx]
            if net.cap[idx] > 0 and y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(v for v in g.vertices if 2 * v in seen and 2 * v + 1 not in seen), flow


def min_arc_cut_brute(node_count, arcs, s, t) -> int:
    """Capacity of a minimum s,t-cut of a directed network given as
    (u, v, capacity) arcs: the least total capacity of the arcs leaving a node
    set that holds s and not t, over every such set."""
    others = [x for x in range(node_count) if x != s and x != t]
    best = None
    for k in range(len(others) + 1):
        for combo in combinations(others, k):
            side = {s, *combo}
            value = sum(c for u, v, c in arcs if u in side and v not in side)
            if best is None or value < best:
                best = value
    return best


def vertex_connectivity_st(g, s, t) -> int:
    """Size of a minimum s,t vertex cut: ``min_weight_st_separator`` on g
    with every weight treated as 1.  Compared against
    :func:`max_disjoint_paths_brute` (Menger).

    Raises NoSeparatorError when s and t are adjacent, and ValueError when
    they are equal or either is not an active vertex."""
    return min_weight_st_separator(WeightedGraph(g.n, g.edges()), s, t)[1]


def separates(g, s, t, S) -> bool:
    S = frozenset(S)
    if s in S or t in S:
        return False
    return t not in reachable(g, s, S)


def is_minimal_separator_by_deletion(g, s, t, S) -> bool:
    """Separates, and stops separating when any single vertex is put back.

    Supersets of separators always separate, so a proper separating subset
    is always witnessed by deleting one vertex.
    """
    S = frozenset(S)
    if not separates(g, s, t, S):
        return False
    return all(not separates(g, s, t, S - {v}) for v in S)


def minimal_st_separators_by_deletion(g, s, t) -> set:
    ground = sorted(set(g.vertices) - {s, t})
    found = set()
    for k in range(len(ground) + 1):
        for combo in combinations(ground, k):
            if is_minimal_separator_by_deletion(g, s, t, frozenset(combo)):
                found.add(frozenset(combo))
    return found


def min_weight_separator_brute(g, s, t, settled=()):
    """(weight, sorted vertex tuple) of the best separator avoiding the
    settled vertices, or None if there is none (adjacent terminals, or
    settled vertices that join them)."""
    ground = sorted(set(g.vertices) - {s, t} - set(settled))
    best = None
    for k in range(len(ground) + 1):
        for combo in combinations(ground, k):
            S = frozenset(combo)
            if not separates(g, s, t, S):
                continue
            key = (g.weight_of(S), tuple(sorted(S)))
            if best is None or key < best:
                best = key
    return best


def asteroidal_triple_brute(g):
    """First asteroidal triple in lexicographic order, straight from the
    definition: three pairwise non-adjacent vertices, each pair joined by a
    path avoiding the third's closed neighborhood."""
    verts = sorted(g.vertices)
    reach_avoiding = {}
    for z in verts:
        closed = frozenset(g.neighbors(z)) | {z}
        comp_of = {}
        for u in verts:
            if u not in closed and u not in comp_of:
                comp = reachable(g, u, closed)
                for x in comp:
                    comp_of[x] = comp
        reach_avoiding[z] = comp_of

    def joined(u, v, z) -> bool:
        comp = reach_avoiding[z].get(u)
        return comp is not None and v in comp

    for a, b, c in combinations(verts, 3):
        if g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c):
            continue
        if joined(a, b, c) and joined(a, c, b) and joined(b, c, a):
            return (a, b, c)
    return None


def max_disjoint_paths_brute(g, s, t) -> int:
    """Maximum number of internally vertex-disjoint s,t-paths, by exhaustive
    packing of inclusion-minimal path interiors.  Terminals must not be
    adjacent (a direct edge admits arbitrarily many trivial paths)."""
    if g.has_edge(s, t):
        raise ValueError("terminals are adjacent; the path count is unbounded")
    interiors = set()

    def dfs(u, used):
        for v in g.neighbors(u):
            if v == t:
                interiors.add(frozenset(used))
            elif v != s and v not in used:
                used.add(v)
                dfs(v, used)
                used.remove(v)

    dfs(s, set())
    minimal = [S for S in interiors if not any(T < S for T in interiors)]

    @lru_cache(maxsize=None)
    def pack(avail: frozenset) -> int:
        best = 0
        for S in minimal:
            if S <= avail:
                best = max(best, 1 + pack(avail - S))
        return best

    return pack(frozenset(set(g.vertices) - {s, t}))


def two_dcs_partition_brute(g, A, B) -> bool:
    """Disjoint connected supersets of A and B, by trying every assignment of
    the remaining vertices to side A, side B, or neither."""
    A = frozenset(A)
    B = frozenset(B)
    if A & B:
        return False
    rest = sorted(set(g.vertices) - A - B)
    for assign in product((0, 1, 2), repeat=len(rest)):
        va = A | {v for v, side in zip(rest, assign) if side == 1}
        vb = B | {v for v, side in zip(rest, assign) if side == 2}
        if connected_within(g, va) and connected_within(g, vb):
            return True
    return False


def random_weighted_graph(n: int, rng: random.Random, p: float = 0.35, wmax: int = 10) -> WeightedGraph:
    """Random connected graph (spanning tree plus independent extra edges)
    with weights drawn uniformly from [1, wmax]; not restricted to any graph
    class."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[rng.randrange(i)]
        v = order[i]
        edges.add((min(u, v), max(u, v)))
    for u, v in combinations(range(n), 2):
        if rng.random() < p:
            edges.add((u, v))
    weights = [rng.randint(1, wmax) for _ in range(n)]
    return WeightedGraph(n, sorted(edges), weights)


def path_graph(n: int, weights=None) -> WeightedGraph:
    return WeightedGraph(n, [(i, i + 1) for i in range(n - 1)], weights)


def cycle_graph(n: int, weights=None) -> WeightedGraph:
    return WeightedGraph(n, [(i, (i + 1) % n) for i in range(n)], weights)


def claw() -> WeightedGraph:
    return WeightedGraph(4, [(0, 1), (0, 2), (0, 3)])
