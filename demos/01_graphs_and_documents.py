"""
Weighted graphs and the document format
=======================================

The package works on undirected graphs with positive integer vertex
weights.  This script builds one, pokes at its accessors, round-trips it
through the line-oriented document format the CLI reads, and shows the
structural operations (components, subdivision) the separator algorithms are
built on.
"""

from safesep.cli import parse_graph, serialize_graph
from safesep.graph_core import (
    WeightedGraph,
    components,
    neighborhood,
    subdivide,
)

###############################################################################
# A six-cycle with one heavy vertex.  Vertices are always 0..n-1; weights
# default to 1 when omitted.
g = WeightedGraph(
    6,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
    weights=[1, 1, 1, 9, 1, 1],
)
print("vertices:", g.vertices)
print("edges:", list(g.edges()))
print("weight of 3:", g.weight(3))
print("neighbors of 0:", sorted(g.neighbors(0)))
print("N({0, 1}):", sorted(neighborhood(g, {0, 1})))

###############################################################################
# The document format is one directive per line: an ``n=`` header, optional
# ``w`` weight lines, ``e u v`` edges, and named vertex sets.  It
# round-trips exactly.
doc = serialize_graph(g, {"left": frozenset({0, 1})})
print()
print(doc, end="")
parsed, named = parse_graph(doc)
print("round-trip ok:", list(parsed.edges()) == list(g.edges()), dict(named))

###############################################################################
# The components of G - X come as (C, N(C)) pairs in the order of their
# least vertex; each neighborhood lies inside X.  Vertex ids never change, so
# every set read off them names vertices of g itself.
pairs = components(g, {0, 3})
print()
print("components of g - {0, 3}:", [sorted(c) for c, _ in pairs])
print("their neighborhoods:", [sorted(nb) for _, nb in pairs])

###############################################################################
# Subdivision puts a fresh vertex in the middle of every edge and reports
# where each new vertex landed.
sub, placed = subdivide(g)
print("subdivided: n =", sub.n, "first placements:", dict(sorted(placed.items())[:3]))
