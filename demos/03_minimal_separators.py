"""
Minimal separators and close separators
=======================================

A set S separates s from t when removing it leaves them in different
components; S is a *minimal* s,t-separator when both terminal components
see all of S.  This script walks the predicates, the exhaustive
enumerator, and the close separator: the unique minimal separator packed
tightest against a connected block of vertices around s.
"""

from safesep.graph_core import WeightedGraph, component_of
from safesep.minimal_separators import (
    close_separator,
    is_minimal_st_separator,
    is_st_separator,
)
from safesep.oracle import enumerate_minimal_st_separators

###############################################################################
# On a path every interior vertex is a minimal separator on its own, while
# bigger cuts that strictly contain one are not minimal.
path = WeightedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
print("{2} separates:", is_st_separator(path, 0, 4, {2}))
print("{2} minimal:", is_minimal_st_separator(path, 0, 4, {2}))
print("{1, 2} minimal:", is_minimal_st_separator(path, 0, 4, {1, 2}))

###############################################################################
# The oracle enumerates every minimal s,t-separator by scanning vertex
# subsets; it exists to cross-check the fast algorithms and is happy on
# small graphs only.
print("all minimal 0,4-separators:",
      [sorted(S) for S in enumerate_minimal_st_separators(path, 0, 4)])

###############################################################################
# The close separator of a block X is N(C_t(G - N(X))): the piece of N(X)
# that still touches t's side.  It is the minimal s,t-separator nearest to
# X, and the building block of everything downstream.  On a cycle the
# block {0} is cut off by its two neighbors.
ring = WeightedGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
S = close_separator(ring, {0}, 3)
print("close separator of {0} toward 3:", sorted(S))
print("source side:", sorted(component_of(ring, S, 0)))

###############################################################################
# To anchor a separator at a whole vertex set, pass the set as the block:
# the separator then keeps all of it on the source side.
print("anchored at {0, 1, 2}:", sorted(close_separator(path, (0, 1, 2), 4)))
