"""
Minimum-weight vertex cuts
==========================

The weighted workhorse: a minimum-weight s,t-separator via max-flow on
the split network (each vertex becomes an in/out arc carrying its
weight).  The network is never built: the flow is kept only where it
runs, and every other arc is read off the graph's own adjacency.  On
unit weights the optimum value is the classical count of internally
vertex-disjoint s,t-paths.
"""

from safesep.graph_core import WeightedGraph
from safesep.min_weight_separator import min_weight_st_separator

###############################################################################
# On a weighted path any interior vertex is a cut; the flow picks the
# cheapest one.
path = WeightedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], weights=[1, 5, 2, 9, 1])
sep, weight = min_weight_st_separator(path, 0, 4)
print("cheapest cut on the path:", sorted(sep), "weight", weight)

###############################################################################
# A wide gadget: two terminals joined through three parallel two-hop
# channels, with weights steering the optimum away from the hubs.
g = WeightedGraph(
    8,
    [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 7), (6, 7)],
    weights=[1, 5, 5, 5, 2, 2, 2, 1],
)
sep, weight = min_weight_st_separator(g, 0, 7)
print("cut through the channels:", sorted(sep), "weight", weight)

###############################################################################
# Ignoring the weights (every vertex of weight 1), the same flow counts
# internally vertex-disjoint paths between the terminals.
unit = WeightedGraph(g.n, g.edges())
print("disjoint 0,7-paths:", min_weight_st_separator(unit, 0, 7)[1])

###############################################################################
# Disconnected pairs need no cut at all, and the empty separator with
# weight zero says exactly that.
split = WeightedGraph(4, [(0, 1), (2, 3)])
print("already separated:", min_weight_st_separator(split, 0, 3))
