"""Weighted undirected graphs and the structural operations everything else builds on.

Vertex identifiers are dense: a graph on n vertices has exactly the ids
``0..n-1``, and an id is *active* when it is an int (not a bool) in that
range.  ``subdivide``, the one derived graph, keeps the ids of the original
vertices and numbers the fresh ones from n, so a vertex set computed there
is a vertex set of the graph it came from (no lifting step).  There are no
holes: a graph never has an inactive id below n.
All values are immutable after construction, except a graph's memo of its
connectivity (see ``is_connected``).

A graph stores its adjacency as a tuple indexed by id, holding each
vertex's neighbors as a strictly increasing tuple, and its weights as a
tuple indexed the same way; set operations against a neighbor tuple run on
the set side (X.isdisjoint(nb)).
"""

from __future__ import annotations

from typing import Iterable, Iterator

EMPTY_SET: frozenset = frozenset()


class WeightedGraph:
    """Undirected simple graph with positive integer vertex weights."""

    __slots__ = ("n", "_adj", "_w", "_total_weight", "_connected")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), weights=None):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"vertex count must be a nonnegative integer, got {n!r}")
        n = int(n)
        weights = [1] * n if weights is None else list(weights)
        if len(weights) != n:
            raise ValueError(f"expected {n} weights, got {len(weights)}")
        for v, w in enumerate(weights):
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise ValueError(f"weight of vertex {v} must be a positive integer, got {w!r}")
        adj = [[] for _ in range(n)]
        for u, v in edges:
            if type(u) is not int or type(v) is not int or u == v or not (0 <= u < n and 0 <= v < n):
                u, v = _checked_edge(u, v, n)
            adj[u].append(v)
            adj[v].append(u)
        for v, nb in enumerate(adj):
            adj[v] = tuple(sorted(set(nb)))  # repeated edges merge
        self.n = n
        self._adj = tuple(adj)
        self._w = tuple(weights)
        self._total_weight = sum(weights)
        self._connected = None  # unknown until proven: see is_connected

    # -- inspection --------------------------------------------------------

    @property
    def vertices(self) -> tuple:
        """Vertex identifiers in ascending order: ``tuple(range(n))``, built
        on each call."""
        return tuple(range(self.n))

    @property
    def vertex_count(self) -> int:
        return self.n

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    def has_vertex(self, v) -> bool:
        """Whether v is an active vertex: an int in 0..n-1.  Ids that are not
        ints, bools, negative ids and ids from n up never are, and
        ``neighbors`` and ``weight`` raise ValueError for them."""
        return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < self.n

    def has_edge(self, u, v) -> bool:
        """Whether u and v are active vertices joined by an edge."""
        return self.has_vertex(u) and self.has_vertex(v) and v in self._adj[u]

    def neighbors(self, v) -> frozenset:
        """The neighbors of v, as a frozenset built from the stored tuple."""
        return frozenset(self._adj[checked_id(self, v, "v")])

    def weight(self, v) -> int:
        return self._w[checked_id(self, v, "v")]

    def weight_of(self, S: Iterable[int]) -> int:
        """The total weight of the vertex set S."""
        return sum(self._w[v] for v in checked_set(self, S, "S"))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in ascending order."""
        for u, nb in enumerate(self._adj):
            for v in nb:
                if u < v:
                    yield (u, v)

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._adj == other._adj and self._w == other._w

    def __hash__(self):
        return hash(self._adj)

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.edge_count})"


def _checked_edge(u, v, n: int) -> tuple:
    """(u, v) as plain ints, or ValueError for an endpoint that is not an
    int (or is a bool), a self-loop, or an endpoint outside 0..n-1."""
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (u, v)):
        raise ValueError(f"edge ({u!r},{v!r}): vertex ids must be integers")
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u},{v}) references an unknown vertex")
    return int(u), int(v)


def checked_id(g: WeightedGraph, v, what: str):
    """v, or ValueError naming ``what`` if ``has_vertex`` refuses it.  The
    one check of vertex ids at the public boundary; :func:`checked_set`
    runs it on each member of a set."""
    if not g.has_vertex(v):
        raise ValueError(f"{what}: {v!r} is not an active vertex")
    return v


def checked_set(g: WeightedGraph, T: Iterable[int], what: str) -> frozenset:
    """T as a frozenset of ids that :func:`checked_id` accepts, or
    ValueError naming ``what``."""
    try:
        T = frozenset(T)
    except TypeError:  # T is not iterable, or holds an id that is not hashable
        raise ValueError(f"{what}: {T!r} is not a set of active vertices") from None
    for v in T:
        checked_id(g, v, what)
    return T


def neighborhood(g: WeightedGraph, T: Iterable[int]) -> frozenset:
    """Open neighborhood N_G(T) = union of neighbors of T, minus T itself."""
    T = checked_set(g, T, "T")
    return frozenset().union(*(g._adj[v] for v in T)) - T


def closed_neighborhood(g: WeightedGraph, T: Iterable[int]) -> frozenset:
    """Closed neighborhood N_G[T] = N_G(T) | T."""
    T = checked_set(g, T, "T")
    return T.union(*(g._adj[v] for v in T))


def component_with_boundary(g: WeightedGraph, X, *starts) -> tuple:
    """(C, N_G(C)) from one walk, where C is the union of the components of
    G-X that hold a start vertex; with one start v, C = C_v(G-X).

    Trusted: X is a set, the starts active vertices outside it; nothing here
    checks that.
    """
    adj = g._adj
    return component_from_seed(g, X, starts, [w for v in starts for w in adj[v]])


def component_from_seed(g: WeightedGraph, X, seed, seed_boundary) -> tuple:
    """(C, N_G(C)) for C the union of the components of G-X that meet
    ``seed``, grown from ``seed_boundary`` without reading the adjacency of
    any seed vertex; a connected seed lies in one component, so C is
    C_v(G-X) for any v in it.  A frozenset seed is never copied: it comes
    back as the same object whenever the walk adds no vertex to it.

    Trusted: X is a set, seed a set of active vertices outside it, and
    seed_boundary an iterable that holds N_G(seed) and may repeat it or
    hold seed vertices, but holds no other vertex; nothing here checks that.
    """
    seed = frozenset(seed)
    adj = g._adj
    seen = set()
    boundary = set()
    stack = []
    nbrs = seed_boundary
    while True:
        for w in nbrs:
            if w not in seen and w not in seed:
                seen.add(w)
                if w in X:
                    boundary.add(w)
                else:
                    stack.append(w)
        if not stack:
            seen -= boundary
            return (seed.union(seen) if seen else seed), frozenset(boundary)
        nbrs = adj[stack.pop()]


def reaches_all(g: WeightedGraph, X, v, targets) -> bool:
    """Whether every vertex of ``targets`` lies in C_v(G-X), by a
    breadth-first walk that stops as soon as the last of them is reached, so
    it reads the adjacency only of vertices nearer to v than the farthest
    target.

    Trusted as :func:`component_with_boundary`.
    """
    missing = set(targets)
    missing.discard(v)
    if not missing:
        return True
    adj = g._adj
    seen = {v}
    queue = [v]
    for u in queue:
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                if w not in X:
                    if w in missing:
                        missing.discard(w)
                        if not missing:
                            return True
                    queue.append(w)
    return False


def hangs_together(g: WeightedGraph, core, rest) -> bool:
    """Whether every vertex of ``rest`` reaches ``core`` by a path through
    ``rest``: g[core | rest] is connected once core is one vertex.

    Trusted: core and rest are disjoint sets of active vertices.
    """
    adj = g._adj
    stack = [r for r in rest if not core.isdisjoint(adj[r])]
    seen = set(stack)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                if w in rest:
                    stack.append(w)
    return seen.issuperset(rest)


def components(g: WeightedGraph, X: Iterable[int]) -> tuple:
    """The connected components C of G-X, as (C, N_G(C)) pairs in the order
    of their least vertex; each N_G(C) lies inside X."""
    X = checked_set(g, X, "X")
    pairs = []
    seen = set()
    for start in range(g.n):
        if start not in X and start not in seen:
            pair = component_with_boundary(g, X, start)
            seen.update(pair[0])
            pairs.append(pair)
    return tuple(pairs)


def component_of(g: WeightedGraph, X: Iterable[int], v) -> frozenset:
    """The component C_v(G-X): all vertices reachable from v in G-X; ValueError
    unless X is a set of active vertices and v an active vertex outside it."""
    X = checked_set(g, X, "X")
    checked_id(g, v, "v")
    if v in X:
        raise ValueError(f"vertex {v} is in the removed set")
    return component_with_boundary(g, X, v)[0]


def subdivide(g: WeightedGraph, subdivision_weight: int = 1):
    """Replace every edge (u, v) by u - e_uv - v with a fresh vertex e_uv.

    Returns (graph, placed) where placed maps each fresh identifier to the
    original edge it replaced.  Original identifiers are preserved; fresh
    identifiers start at g.n.
    """
    if not isinstance(subdivision_weight, int) or isinstance(subdivision_weight, bool) or subdivision_weight < 1:
        raise ValueError("subdivision weight must be a positive integer")
    placed = dict(enumerate(g.edges(), g.n))
    edges = [(x, fresh) for fresh, uv in placed.items() for x in uv]
    return WeightedGraph(g.n + len(placed), edges, g._w + (subdivision_weight,) * len(placed)), placed


def is_connected(g: WeightedGraph) -> bool:
    """Whether one walk from g's first vertex reaches all; g remembers it."""
    if g._connected is None:
        g._connected = not g.n or len(component_with_boundary(g, EMPTY_SET, 0)[0]) == g.n
    return g._connected


def bfs_path(g: WeightedGraph, src, dst, forbidden: frozenset = EMPTY_SET):
    """Shortest src-dst path avoiding `forbidden`, or None.

    Raises ValueError unless src and dst are active vertices; `forbidden`
    is only tested for membership.  Neighbor expansion in ascending order,
    so the returned path is deterministic.
    """
    checked_id(g, src, "endpoint")
    checked_id(g, dst, "endpoint")
    if src in forbidden or dst in forbidden:
        return None
    if src == dst:
        return (src,)
    adj = g._adj
    parent = {src: None}
    queue = [src]
    for u in queue:
        for v in adj[u]:
            if v in forbidden or v in parent:
                continue
            parent[v] = u
            if v == dst:
                path = [v]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
            queue.append(v)
    return None


def family_sorted(sets: Iterable[frozenset]) -> tuple:
    """Deduplicate and order a family of vertex sets lexicographically."""
    uniq = {frozenset(S) for S in sets}
    return tuple(sorted(uniq, key=lambda S: tuple(sorted(S))))
