"""Minimum-weight s,t vertex separator via vertex-capacitated maximum flow.

Every non-terminal vertex v is split into an arc v_in -> v_out of capacity
w(v); each undirected edge becomes a pair of arcs of effectively infinite
capacity (1 + total vertex weight, which no vertex cut can reach).  The
minimum cut of this network crosses only split arcs, and those arcs name the
separator.  Flow is computed along shortest augmenting paths (Edmonds and
Karp); the source-side residual-reachability cut gives a deterministic
minimum-weight separator, which is always minimal.

A vertex can also be *settled*: its split arc is raised to the infinite
capacity, so no finite cut contains it.  Raising a connected side that
contains s (or t) is equivalent to contracting that side into the terminal,
and yields the same cut.  ``SplitNetwork`` builds the network and computes a
maximum flow with nothing settled (the base flow) once, then cuts it for any
number of settled sets.  Settling only raises capacities, so the base flow
stays feasible and each cut augments from it instead of from zero; the
source side of the cut is the residual-reachable set, which every maximum
flow shares, so the cut is the one a cold flow would give.  A settled set
that misses the base cut, read and checked once, keeps it without a flow.
``min_weight_st_separator`` is the single cut with nothing settled.
"""

from __future__ import annotations

from .errors import InternalConsistencyError, NoSeparatorError
from .graph_core import WeightedGraph
from .minimal_separators import is_minimal_st_separator


class FlowNetwork:
    """Directed network with integer capacities and shortest augmenting paths."""

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
        paths (Edmonds and Karp, O(VE^2)); returns the flow added and the
        marks of the last, failing search, >= 0 exactly where s reaches in the
        residual.  A node's mark is the arc the breadth-first search reached
        it by; each search stops at t, and the bottleneck is pushed back
        along the marked arcs."""
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


class SplitNetwork:
    """The vertex-split network of g between s and t, built and flowed once,
    then cut once per set of settled vertices.

    s and t each get one node; every other vertex v gets v_in -> v_out with
    capacity w(v).  A maximum flow with nothing settled, the base flow, is
    computed once and its residual capacities are saved, so each
    :meth:`min_cut` starts from the same flow.  Its cut, checked once, is
    ``cut``; it is None when s and t are adjacent and no finite cut exists.
    """

    def __init__(self, g: WeightedGraph, s, t):
        self.g, self.s, self.t = g, s, t
        self.inf = 1 + sum(g.weight(v) for v in g.vertices)
        node = 0
        in_node = {}
        out_node = {}
        for v in g.vertices:
            if v == s or v == t:
                in_node[v] = out_node[v] = node
                node += 1
            else:
                in_node[v] = node
                out_node[v] = node + 1
                node += 2
        net = FlowNetwork(node)
        split_arc = {}
        for v in g.vertices:
            if v != s and v != t:
                split_arc[v] = net.add_arc(in_node[v], out_node[v], g.weight(v))
        for u, v in g.edges():
            net.add_arc(out_node[u], in_node[v], self.inf)
            net.add_arc(out_node[v], in_node[u], self.inf)
        self.net, self.in_node, self.out_node, self.split_arc = net, in_node, out_node, split_arc
        self.base, mark = net.max_flow(out_node[s], in_node[t])
        self.residual = list(net.cap)
        self.cut = self._cut(mark, self.base) if self.base < self.inf else None

    def _cut(self, mark, flow):
        """The cut named by a maximum flow's last search, checked against it."""
        if flow == 0:
            return frozenset()
        in_node, out_node, g = self.in_node, self.out_node, self.g
        sep = frozenset(
            v for v in self.split_arc if mark[in_node[v]] >= 0 and mark[out_node[v]] < 0
        )
        if g.weight_of(sep) != flow:
            raise InternalConsistencyError(
                f"cut weight {g.weight_of(sep)} does not match flow value {flow}"
            )
        if not is_minimal_st_separator(g, self.s, self.t, sep):
            raise InternalConsistencyError("extracted minimum cut is not a minimal separator")
        return sep

    def min_cut(self, settled=()):
        """A minimum-weight s,t-separator avoiding the settled vertices, and
        its weight.

        The split arcs of the settled vertices are raised to the infinite
        capacity, which is the same as contracting each connected settled
        side into its terminal.  Raising capacities keeps the base flow
        feasible, so augmenting paths raise it to a maximum flow of the raised
        network.  The nodes residual-reachable from s are the same for every
        maximum flow (the source side of the minimal minimum cut), so the cut
        equals the one a flow from zero would give.  It is always a minimal
        separator (validated before returning).  InternalConsistencyError
        means that no finite cut exists, i.e. the settled vertices join s to t.

        A settled set that misses the base cut keeps it, ties included.  Only
        split arcs rise, and one leaving the base residual-reachable set X
        belongs to a base-cut vertex (edge arcs never leave X: their residual
        stays positive below inf).  So X, the cut and the flow stay; and a set
        missing an s,t-separator cannot join s to t.
        """
        if self.cut is not None and self.cut.isdisjoint(settled):
            return self.cut, self.base
        net, g = self.net, self.g
        net.cap[:] = self.residual
        for v in settled:
            net.cap[self.split_arc[v]] += self.inf - g.weight(v)
        extra, mark = net.max_flow(self.out_node[self.s], self.in_node[self.t])
        flow = self.base + extra
        if flow >= self.inf:
            raise InternalConsistencyError(
                "the flow reached the infinite capacity: the settled sides touch"
            )
        return self._cut(mark, flow), flow


def min_weight_st_separator(g: WeightedGraph, s, t):
    """A minimum-weight s,t-separator and its weight.

    Returns (frozenset(), 0) when s and t are already disconnected; raises
    NoSeparatorError when (s, t) is an edge.  Among minimum cuts the
    source-side residual-reachability cut is returned; it is always a minimal
    separator (validated before returning).
    """
    if s == t:
        raise ValueError("terminals must be distinct")
    for x in (s, t):
        if not g.has_vertex(x):
            raise ValueError(f"terminal {x} is not an active vertex")
    if g.has_edge(s, t):
        raise NoSeparatorError("terminals are adjacent; no s,t-separator exists")
    return SplitNetwork(g, s, t).min_cut()


def vertex_connectivity_st(g: WeightedGraph, s, t) -> int:
    """Size of a minimum s,t vertex cut (all weights treated as 1).

    Raises NoSeparatorError when s and t are adjacent, and ValueError when
    they are equal or either is not an active vertex."""
    unit = WeightedGraph._from_parts(g.n, g._adj, {v: 1 for v in g._adj})
    _, value = min_weight_st_separator(unit, s, t)
    return value
