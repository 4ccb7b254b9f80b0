"""
Recognizing AT-free graphs
==========================

An asteroidal triple is three pairwise non-adjacent vertices such that
every pair is joined by a path avoiding the closed neighborhood of the
third.  The separator algorithms in this package assume the input has no
such triple; this script shows the recognizer and its witnesses, plus the
two seeded generators that produce AT-free test instances.
"""

from safesep.atfree import find_asteroidal_triple, is_at_free
from safesep.graph_core import WeightedGraph
from safesep.oracle import gen_atfree_rejection, gen_interval

###############################################################################
# Paths and small cycles are AT-free.
path = WeightedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
print("P5 AT-free:", is_at_free(path))

###############################################################################
# The six-cycle is the smallest chordless cycle with an asteroidal triple:
# the three pairwise-opposite vertices can route around each other.  The
# witness carries the three connecting paths so it can be checked directly.
hexagon = WeightedGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
witness = find_asteroidal_triple(hexagon)
print("C6 triple:", witness.triple)
print("  path avoiding N[%d]: %s" % (witness.c, witness.path_ab))
print("  path avoiding N[%d]: %s" % (witness.b, witness.path_ac))
print("  path avoiding N[%d]: %s" % (witness.a, witness.path_bc))

###############################################################################
# A spider with three long legs is the classic tree-like example: the three
# leaf tips form a triple.
spider = WeightedGraph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
print("spider triple:", find_asteroidal_triple(spider).triple)

###############################################################################
# Interval graphs are AT-free by construction, so the interval generator is
# the fast way to produce large instances.  The recognizer proves them
# AT-free with a checked umbrella-free vertex ordering found by LexBFS, so
# n=500 takes milliseconds, not the cubic scan.  The rejection generator
# samples arbitrary connected graphs and keeps the AT-free ones, giving
# denser, less structured instances (sizes up to 12).
big = gen_interval(500, wmax=10, seed=7)
print("interval n=500 AT-free:", is_at_free(big))
small = gen_atfree_rejection(10, wmax=5, seed=21)
print("rejection n=10 AT-free:", is_at_free(small), "edges:", len(list(small.edges())))
