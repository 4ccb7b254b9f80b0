"""Independent checks of the program's answers.

Nothing here imports ``safesep``.  Every check works on the benchmark's own
``Graph`` records with plain traversals, a max-flow of its own and an
exhaustive search.  The checks compare weights, never vertex sets, because
several separators can share the optimum weight.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations


def reach(adj, start, removed) -> set:
    """Vertices reachable from ``start`` in the graph minus ``removed``."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen and v not in removed:
                seen.add(v)
                stack.append(v)
    return seen


def safe_sides(adj, A, B, S):
    """(component of A, component of B) in G - S when S is a safe
    A,B-separator, otherwise None."""
    S = set(S)
    if S & set(A) or S & set(B):
        return None
    side_a = reach(adj, A[0], S)
    if not set(A) <= side_a or side_a & set(B):
        return None
    side_b = reach(adj, B[0], S)
    if not set(B) <= side_b:
        return None
    return side_a, side_b


def check_answer(graph, adj, query, exists, separator, weight, lower) -> str | None:
    """Why the answer is wrong, or None when every check passes.

    ``lower`` is a max-flow lower bound on the minimum A,B vertex cut; every
    safe separator is an A,B-separator, so the optimum weighs at least that.
    """
    if exists != query.exists:
        return f"existence {exists}, expected {query.exists}"
    if not exists:
        return None
    S = set(separator)
    if len(S) != len(separator) or not all(0 <= v < graph.n for v in S):
        return f"separator {sorted(separator)} is not a vertex set of the graph"
    sides = safe_sides(adj, query.A, query.B, S)
    if sides is None:
        return f"separator {sorted(S)} is not safe"
    side_a, side_b = sides
    for v in S:
        if not any(x in side_a for x in adj[v]) or not any(x in side_b for x in adj[v]):
            return f"separator vertex {v} does not touch both sides"
    if weight != sum(graph.weights[v] for v in S):
        return f"weight {weight} is not the weight of the separator"
    if weight < lower:
        return f"weight {weight} is below the minimum A,B cut {lower}"
    if query.witness is not None:
        known = sum(graph.weights[v] for v in query.witness)
        if weight > known:
            return f"weight {weight} exceeds the known safe separator's {known}"
    return None


def min_cut_lower_bound(adj, weights, A, B, vertices=None) -> int:
    """Maximum flow from A to B with vertex capacities (A and B uncapacitated)
    in the subgraph induced on ``vertices`` (default: all).

    A flow in a subgraph is a flow in the whole graph, so by weak duality the
    value is a lower bound on the minimum-weight A,B vertex cut either way.
    """
    keep = set(range(len(adj))) if vertices is None else set(vertices) | set(A) | set(B)
    terminals = set(A) | set(B)
    inf = sum(weights) + 1
    # node 2v is v's entry, 2v+1 its exit; -1 is the source, -2 the sink.
    cap = {}

    def arc(u, v, c):
        cap.setdefault(u, {})[v] = cap.get(u, {}).get(v, 0) + c
        cap.setdefault(v, {}).setdefault(u, 0)

    for v in keep:
        arc(2 * v, 2 * v + 1, inf if v in terminals else weights[v])
        for x in adj[v]:
            if x in keep:
                arc(2 * v + 1, 2 * x, inf)
    for a in A:
        arc(-1, 2 * a, inf)
    for b in B:
        arc(2 * b + 1, -2, inf)
    flow = 0
    while True:
        parent = {-1: None}
        queue = deque([-1])
        while queue and -2 not in parent:
            u = queue.popleft()
            for v, c in cap[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if -2 not in parent:
            return flow
        path = []
        v = -2
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        pushed = min(cap[u][v] for u, v in path)
        for u, v in path:
            cap[u][v] -= pushed
            cap[v][u] += pushed
        flow += pushed


def exhaustive_min_safe(graph, A, B):
    """Optimum weight of a safe A,B-separator by trying every vertex subset
    outside A and B, or None when no subset is safe."""
    adj = graph.adjacency()
    others = [v for v in range(graph.n) if v not in A and v not in B]
    best = None
    for size in range(len(others) + 1):
        for S in combinations(others, size):
            weight = sum(graph.weights[v] for v in S)
            if best is not None and weight >= best:
                continue
            if safe_sides(adj, A, B, S) is not None:
                best = weight
    return best


def is_at_free(graph) -> bool:
    """AT-freeness by the definition: no three pairwise non-adjacent vertices
    of which every two are joined by a path avoiding the closed
    neighbourhood of the third."""
    adj = graph.adjacency()
    nbrs = [set(a) for a in adj]
    closed = [nbrs[v] | {v} for v in range(graph.n)]
    for a, b, c in combinations(range(graph.n), 3):
        if b in nbrs[a] or c in nbrs[a] or c in nbrs[b]:
            continue
        if (
            b in reach(adj, a, closed[c])
            and c in reach(adj, a, closed[b])
            and c in reach(adj, b, closed[a])
        ):
            return False
    return True
