"""
Families of separators close to an anchored block
=================================================

Given terminals s, t and extra anchor vertices A, the close family
collects every minimal s,t-separator that keeps all of A on s's side
while making that side as small as possible.  On AT-free graphs the
family is provably small (at most n members in the flat case, n^2 in
general), which is what makes the safe-separator search tractable.
"""

from safesep.close_to import close_to
from safesep.graph_core import WeightedGraph
from safesep.oracle import close_family_bound_check, close_family_brute

###############################################################################
# With no anchors the family is just the close separator of {s}: the
# tightest cut around the source.
path = WeightedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
print("no anchors:", [sorted(S) for S in close_to(path, 0, 4, ())])

###############################################################################
# Anchoring vertex 2 pushes the family past it: the cut must now keep 2
# with the source.
print("anchor {2}:", [sorted(S) for S in close_to(path, 0, 4, {2})])

###############################################################################
# Anchors inside N[t] make separation impossible, and the family is empty.
ring = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
print("anchor touching t:", close_to(ring, 0, 2, {1}))

###############################################################################
# The family can have several incomparable members.  On this 7-vertex
# AT-free graph, keeping 4 with s=1 admits two close separators, {0, 6} and
# {2, 5}: neither s-component contains the other.  verified=True first
# proves the graph AT-free; the internal chain invariant is checked in
# either mode, and the result always matches the exhaustive oracle.
g = WeightedGraph(
    7,
    [(0, 2), (0, 3), (0, 5), (1, 2), (1, 6), (2, 4), (2, 6), (3, 5), (4, 6), (5, 6)],
)
family = close_to(g, 1, 3, {4}, verified=True)
print("family with two members:", [sorted(S) for S in family])
print("matches the oracle:", family == close_family_brute(g, 1, 3, {4}))
print("within the stated bounds:", close_family_bound_check(g, 1, 3, {4}, family))
