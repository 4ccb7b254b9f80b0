"""Asteroidal-triple-free graph recognition with witness extraction.

Three pairwise non-adjacent vertices form an asteroidal triple when every two
of them are joined by a path avoiding the closed neighborhood of the third.
A graph is AT-free when it contains no such triple.

Recognition first looks for a certificate: a vertex ordering without
umbrellas (an edge uw with a vertex between u and w adjacent to neither).
Such an ordering exists exactly on cocomparability graphs, which are
AT-free.  Up to ``SWEEPS`` LexBFS sweeps propose orderings, each costing
O(n + m) plus bitset work on the spans of the neighborhoods, and each
ordering is checked before it is trusted.  Interval and permutation graphs
pass within a few sweeps.  When no sweep yields a certificate (the graph has
an asteroidal triple, or is AT-free but not cocomparability, like C5), the
exhaustive scan decides and extracts the witness; it is roughly cubic in
the size of the graph.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .graph_core import WeightedGraph, bfs_path, closed_neighborhood, components

# LexBFS sweeps tried for an umbrella-free ordering before the scan runs.
SWEEPS = 8


class AtWitness(NamedTuple):
    """An asteroidal triple (a, b, c) with the three certifying paths.

    ``path_ab`` avoids N[c], ``path_ac`` avoids N[b], ``path_bc`` avoids N[a].
    """

    a: int
    b: int
    c: int
    path_ab: tuple
    path_ac: tuple
    path_bc: tuple

    @property
    def triple(self) -> tuple:
        return (self.a, self.b, self.c)


def _lex_bfs(nbrs, prior) -> list:
    """A LexBFS ordering of the vertices 0..n-1 (``nbrs[v]`` lists the
    neighbors of v) whose ties go to the vertex earliest in ``prior``.

    Partition refinement over a linked list of blocks.  Each block lists its
    members in prior order; a vertex that leaves a block stays in that list
    as a stale entry and is skipped when it reaches the front.  Neighbor
    lists are put in prior order once, so the neighbors of a pivot p land in
    their new blocks already sorted, and p costs O(deg p).
    """
    n = len(prior)
    ranked = [[] for _ in range(n)]
    for u in prior:
        for w in nbrs[u]:
            ranked[w].append(u)
    members, head, live, prv, nxt = [list(prior)], [0], [n], [-1], [-1]
    where = [0] * n  # block of each unvisited vertex, -1 once visited
    first = 0
    order = []
    for _ in range(n):
        while not live[first]:
            first = nxt[first]
            prv[first] = -1
        block = members[first]
        i = head[first]
        while where[block[i]] != first:
            i += 1
        p = block[i]
        head[first] = i + 1
        live[first] -= 1
        where[p] = -1
        order.append(p)
        split = {}  # block -> the block of its members adjacent to p
        for w in ranked[p]:
            b = where[w]
            if b < 0:
                continue
            nb = split.get(b)
            if nb is None:
                nb = split[b] = len(members)
                members.append([])
                head.append(0)
                live.append(0)
                prv.append(prv[b])
                nxt.append(b)
                if prv[b] < 0:
                    first = nb
                else:
                    nxt[prv[b]] = nb
                prv[b] = nb
            members[nb].append(w)
            live[nb] += 1
            live[b] -= 1
            where[w] = nb
    return order


def _is_umbrella_free(nbrs, order) -> bool:
    """True iff for every edge uw, each vertex placed between u and w in
    ``order`` is adjacent to u or to w.

    Each vertex v keeps a bitset of the non-neighbors placed inside the span
    of its closed neighborhood: ``later[v]`` those after v (bit i for position
    pos[v] + 1 + i), ``earlier[v]`` those before it (bit i for position
    start[v] + i).  For an edge uw with u first, both spans cover every
    position between them, and an umbrella over uw shows as a common bit:
    one shift and one AND per edge, on integers no wider than the spans.
    """
    n = len(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    start = [0] * n
    later = [0] * n
    earlier = [0] * n
    for v in range(n):
        p = pos[v]
        near = [pos[w] for w in nbrs[v]]
        near.append(p)
        lo = min(near)
        adj = 0
        for q in near:
            adj |= 1 << (q - lo)
        gaps = ((1 << adj.bit_length()) - 1) ^ adj
        start[v] = lo
        later[v] = gaps >> (p + 1 - lo)
        earlier[v] = gaps & ((1 << (p - lo)) - 1)
    for u in range(n):
        p, gaps = pos[u], later[u]
        for w in nbrs[u]:
            if pos[w] > p and gaps & (earlier[w] >> (p + 1 - start[w])):
                return False
    return True


def _has_cocomparability_ordering(g: WeightedGraph) -> bool:
    """True when LexBFS sweeps find an umbrella-free ordering of g.

    The first sweep breaks ties by ascending vertex identifier; each later
    one is a LexBFS+ sweep, whose ties go to the vertex latest in the
    previous ordering.  Every ordering is checked before it counts, so a
    True answer is proof; a False one only means no certificate turned up.
    """
    nbrs = g._adj
    order = list(range(g.n))
    seen = set()
    for _ in range(SWEEPS):
        order = _lex_bfs(nbrs, order)
        key = tuple(order)
        if key in seen:
            # Each sweep is a function of the one before, so the sweeps now
            # cycle through orderings that have already failed.
            return False
        seen.add(key)
        if _is_umbrella_free(nbrs, order):
            return True
        order.reverse()
    return False


def find_asteroidal_triple(g: WeightedGraph):
    """First asteroidal triple in lexicographic order, or None.

    An umbrella-free ordering (see :func:`_has_cocomparability_ordering`)
    answers None without the scan.  Proof: order a triple's vertices by
    position as x, y, z.  A path from x to z that avoids y steps across y's
    position along some edge uw, and umbrella-freeness puts u or w in N(y);
    so no x,z-path avoids N[y].  Otherwise :func:`scan_asteroidal_triple`
    decides.
    """
    if _has_cocomparability_ordering(g):
        return None
    return scan_asteroidal_triple(g)


def scan_asteroidal_triple(g: WeightedGraph):
    """:func:`find_asteroidal_triple` without the certificate: the exhaustive
    scan alone, roughly cubic.  It suits inputs that mostly have a triple,
    such as the draws of a rejection sampler, where no certificate exists.

    Method: for each vertex c, precompute the components of G - N[c]; the
    triple (a, b, c) is asteroidal iff each pair lies in one component of the
    graph minus the third's closed neighborhood.  That shared component is
    exactly the set of vertices reachable by paths avoiding N[third], so the
    witness paths are extracted by a traversal inside it.
    """
    verts = g.vertices
    if len(verts) < 3:
        return None
    closed = {c: closed_neighborhood(g, (c,)) for c in verts}
    # table[c] maps each vertex outside N[c] to the index of its component.
    table = {
        c: {v: i for i, (C, _) in enumerate(components(g, closed[c])) for v in C}
        for c in verts
    }

    def together(c, x, y) -> bool:
        i = table[c].get(x)
        return i is not None and i == table[c].get(y)

    for a, b, c in combinations(verts, 3):
        if b in closed[a] or c in closed[a] or c in closed[b]:
            continue
        if together(c, a, b) and together(b, a, c) and together(a, b, c):
            return AtWitness(
                a,
                b,
                c,
                path_ab=bfs_path(g, a, b, closed[c]),
                path_ac=bfs_path(g, a, c, closed[b]),
                path_bc=bfs_path(g, b, c, closed[a]),
            )
    return None


def is_at_free(g: WeightedGraph) -> bool:
    return find_asteroidal_triple(g) is None
