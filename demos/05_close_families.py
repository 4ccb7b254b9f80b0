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
from safesep.oracle import close_family_bound_check, close_family_brute, gen_atfree_rejection

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
# On a denser AT-free instance the family can have several incomparable
# members.  verified=True first proves the graph AT-free; the internal
# chain invariant is checked in either mode, and the result always matches
# the exhaustive oracle.
g = gen_atfree_rejection(10, wmax=10, seed=12489)
family = close_to(g, 0, 2, {1}, verified=True)
print("family on the sampled graph:", [sorted(S) for S in family])
print("matches the oracle:", family == close_family_brute(g, 0, 2, {1}))
print("within the stated bounds:", close_family_bound_check(g, 0, 2, {1}, family))
