"""Minimum-weight s,t vertex separator via vertex-capacitated maximum flow.

The flow runs on the vertex-split network of g: each non-terminal vertex v
is an arc v_in -> v_out of capacity w(v), and each edge {u, v} the arcs
u_out -> v_in and v_out -> u_in.  ``FlowNetwork`` never builds it: it keeps
flow only for the vertices and edge arcs that carry it and reads every
other arc off g's adjacency, so away from the flow paths a search is a
plain breadth-first search of g.  Edge arcs are unbounded; a bound of
1 + total vertex weight (``inf``), which no vertex cut reaches, would leave
the minimum cuts, and whether the maximum flow reaches inf, unchanged.
Flow follows shortest augmenting paths (Edmonds and Karp); the source-side
residual-reachability cut gives a deterministic minimum-weight separator,
which is always minimal.

A vertex can also be *settled*: its split arc is raised to inf, so no
finite cut contains it.  Raising a connected side that contains s (or t) is
equivalent to contracting that side into the terminal, and yields the same
cut.  So each terminal may stand for a connected *core* around it, which
is never read: the search leaves s through its core's neighborhood and reads
any vertex of t's core as t.  ``FlowNetwork`` computes a maximum flow with
nothing settled (the base flow) once, then cuts it for any number of
settled sets.  Settling only raises capacities, so the base flow stays
feasible and each cut augments from it instead of from zero; the source
side of the cut is the residual-reachable set, which every maximum flow
shares, so the cut is the one a cold flow would give.  Each cut, the empty
one included, is proved minimal on the two sides of G - cut that hold the
cores, and comes with them.  A settled set that misses the base cut, read
and checked once, keeps it and its sides without a flow.
``min_weight_st_separator`` is the single cut with nothing settled.
"""

from __future__ import annotations

from .errors import InternalConsistencyError, NoSeparatorError
from .graph_core import EMPTY_SET, WeightedGraph, component_from_seed
from .minimal_separators import _check_terminals


def _add(flows: dict, key, amount) -> dict:
    """Add amount to flows[key], keeping positive entries only."""
    left = flows.get(key, 0) + amount
    if left:
        flows[key] = left
    else:
        del flows[key]
    return flows


class FlowNetwork:
    """The vertex-split network of g - excluded between s and t, each for
    its core, flowed once with nothing settled, then cut once per set of
    settled vertices.

    A core comes as a seed (core, N_G(core)), {s} or {t} by default.
    Trusted: the cores are connected, disjoint, non-adjacent and outside the
    excluded set.  ``through[v]`` is the flow on v's split arc and
    ``inflow[v][u]`` that on the edge arc u_out -> v_in, never netted
    against the distinct arc v_out -> u_in.  Both keep positive entries
    only, so a vertex outside ``through`` carries no flow, and (t apart) v
    has inflow exactly when it has through-flow.  Each :meth:`min_cut`
    starts from the saved base flow, whose cut, checked once, is ``cut``,
    with its two sides ``sides``: both None when the base flow reaches inf,
    as when s and t are adjacent.
    """

    def __init__(self, g: WeightedGraph, s, t, seed_s=None, seed_t=None, excluded=EMPTY_SET):
        self.g, self.s, self.t, self.excluded = g, s, t, excluded
        self.seed_s = seed_s or ((s,), g._adj[s])
        self.seed_t = seed_t or ((t,), g._adj[t])
        self.inf = 1 + g._total_weight
        self.through, self.inflow = {}, {}
        self.base, reached = self.max_flow()
        self.saved = self.through, self.inflow
        self.cut = self.sides = None
        if self.base < self.inf:
            self.cut, _, self.sides = self._cut(reached, self.base)

    def max_flow(self, settled=EMPTY_SET):
        """Augment the current flow along shortest augmenting paths (Edmonds
        and Karp), with the split arcs of the settled vertices at inf, until
        it is maximum or has grown by inf; returns the flow added and the
        (in-nodes, out-nodes) the last search reached.  Each search stops at
        t, and the bottleneck, at most inf, is pushed back along the arcs
        that reached each node.  A node's entry names the vertex it was
        reached from; a vertex's own name means its split arc."""
        adj, w, s, t, inf = self.g._adj, self.g._w, self.s, self.t, self.inf
        (core_s, near_s), (core_t, _), excluded = self.seed_s, self.seed_t, self.excluded
        through, inflow = self.through, self.inflow
        flow = 0
        while flow < inf:
            # A queue entry v is v's in-node, ~v its out-node.
            in_from, out_from = {s: s}, {s: s}
            queue = [~s]
            for x in queue:
                if t in in_from:
                    break
                if x >= 0:
                    # An in-node that carries flow: its split arc while it
                    # has room, and the reverse of each edge arc into it.
                    if x not in out_from and through[x] < (inf if x in settled else w[x]):
                        out_from[x] = x
                        queue.append(~x)
                    for u in inflow[x]:
                        if u not in out_from:
                            out_from[u] = x
                            queue.append(~u)
                    continue
                u = ~x
                if u in through and u not in in_from:
                    in_from[u] = u
                    queue.append(u)
                # s's out-node leads to its core's neighborhood, and an edge
                # arc into t's core to t's in-node; s's core and the excluded
                # set are never entered.
                for v in (near_s if u == s else adj[u]):
                    if v not in in_from:
                        if v in core_t:
                            in_from[t] = u
                            break
                        if v in excluded or v in core_s:
                            continue
                        in_from[v] = u
                        if v in through:
                            queue.append(v)
                        else:
                            out_from[v] = v
                            queue.append(~v)
            if t not in in_from:
                return flow, (in_from, out_from)
            # Walk back from t's in-node to s; a step (v, u, at_in) reached a
            # node of v from u, along v's own split arc when u == v.
            path, pushed, v, at_in = [], inf, t, True
            while v != s or at_in:
                u = in_from[v] if at_in else out_from[v]
                path.append((v, u, at_in))
                if u == v:
                    pushed = min(pushed, through[v] if at_in else (inf if v in settled else w[v]) - through.get(v, 0))
                elif not at_in:
                    pushed = min(pushed, inflow[u][v])
                v, at_in = u, not at_in
            for v, u, at_in in path:
                if u == v:
                    _add(through, v, -pushed if at_in else pushed)
                elif at_in:
                    _add(inflow.setdefault(v, {}), u, pushed)
                elif not _add(inflow[u], v, -pushed):
                    del inflow[u]
            flow += pushed
        return flow, None

    def _cut(self, reached, flow):
        """(cut, flow, sides) for the cut named by a maximum flow's last
        search, checked against it: the vertices, all carrying flow, whose
        in-node alone it reached, the empty set for a flow of 0.  It is proved
        minimal on the two sides of G - (cut | excluded) grown from the seeds,
        which come back as ((C_s, N_G(C_s)), (C_t, N_G(C_t)))."""
        in_from, out_from = reached
        g = self.g
        sep = frozenset(v for v in self.through if v in in_from and v not in out_from)
        if g.weight_of(sep) != flow:
            raise InternalConsistencyError(
                f"cut weight {g.weight_of(sep)} does not match flow value {flow}"
            )
        gone = sep | self.excluded
        sides = component_from_seed(g, gone, *self.seed_s), component_from_seed(g, gone, *self.seed_t)
        (c_s, n_s), (_, n_t) = sides
        if self.t in c_s or not sep <= n_s or not sep <= n_t:
            raise InternalConsistencyError("extracted minimum cut is not a minimal separator")
        return sep, flow, sides

    def min_cut(self, settled=EMPTY_SET):
        """(cut, weight, sides): a minimum-weight s,t-separator avoiding the
        settled vertices, its weight, and the sides of G - (cut | excluded)
        that hold the two cores, ((C_s, N_G(C_s)), (C_t, N_G(C_t))).

        The split arcs of the settled vertices are raised to the infinite
        capacity, which is the same as contracting each connected settled
        side into its terminal.  Raising capacities keeps the base flow
        feasible, so augmenting paths raise it to a maximum flow of the raised
        network.  The nodes residual-reachable from s are the same for every
        maximum flow (the source side of the minimal minimum cut), so the cut
        equals the one a flow from zero would give.  It is always a minimal
        separator, proved on its sides before returning.
        InternalConsistencyError means that no finite cut exists, i.e. the
        settled vertices join s to t.

        A settled set that misses the base cut keeps it and its sides, ties
        included.  Only split arcs rise, and one leaving the base
        residual-reachable set X belongs to a base-cut vertex (edge arcs have
        no bound, so none leaves X).  So X, the cut and the flow stay; and a
        set missing an s,t-separator cannot join s to t.
        """
        if self.cut is not None and self.cut.isdisjoint(settled):
            return self.cut, self.base, self.sides
        through, inflow = self.saved
        self.through, self.inflow = dict(through), {v: dict(arcs) for v, arcs in inflow.items()}
        extra, reached = self.max_flow(settled)
        flow = self.base + extra
        if flow >= self.inf:
            raise InternalConsistencyError(
                "the flow reached the infinite capacity: the settled sides touch"
            )
        return self._cut(reached, flow)


def min_weight_st_separator(g: WeightedGraph, s, t):
    """A minimum-weight s,t-separator and its weight.

    Returns (frozenset(), 0) when s and t are already disconnected; raises
    NoSeparatorError when (s, t) is an edge.  Among minimum cuts the
    source-side residual-reachability cut is returned; it is always a minimal
    separator (validated before returning).
    """
    _check_terminals(g, s, t)
    if g.has_edge(s, t):
        raise NoSeparatorError("terminals are adjacent; no s,t-separator exists")
    sep, weight, _ = FlowNetwork(g, s, t).min_cut()
    return sep, weight
