"""Minimum-weight safe A,B-separators in AT-free graphs.

A separator S (disjoint from A and B) is *safe* when deleting it leaves all
of A inside a single component, all of B inside a single different component.
``min_safe_separator`` finds a minimum-weight safe separator, or reports that
none exists.

Outline: vertices adjacent to both A and B necessarily belong to every safe
separator, so they are collected (R) and left out of every walk.  In G - R,
the families of minimal s,t-separators close to the A-side and close to the
B-side are computed (s and t being representatives of A and B).  Every safe
separator is sandwiched between a qualifying pair (S_A, S_B) -- one from each
family with the A-side of S_A inside the A-side of S_B, which holds exactly
when the A-side of S_A, connected and holding s, misses S_B -- and
conversely each qualifying pair yields a candidate: a minimum-weight
s,t-separator that avoids both settled sides, C_s(G-S_A) and C_t(G-S_B).
The best candidate over all qualifying pairs, plus R, is the answer.

Each family member comes with its own terminal's side, walked once while the
family was computed, so the qualifying test and the settled sides of a pair
need no walk of their own.  All pairs are cut on one flow network per query,
between the parts of the two sides that every qualifying pair settles (the
cores).  The flow runs on g's own adjacency, with no network and no other
graph built: it skips R, leaves s through the neighborhood of its core, known
without a walk, and never reads a core vertex, so each core acts as if
contracted into its terminal.  One base max-flow runs with nothing else
settled, and a pair whose settled sides miss the base cut keeps it.  For any
other pair, the rest of its settled sides gets infinite capacity (as if
contracted), and augmenting the base flow gives the cut.

On graphs that are not AT-free the close families can be wrong, so only the
``verified`` mode, which first scans the graph for an asteroidal triple,
guarantees an answer on arbitrary inputs; fast mode skips the scan and
trusts the caller.  Every other check runs in both modes, and the winner is
validated against the safety and minimality definitions on the original
graph before it is returned, on the full sides of G minus the winner that
hold A and B.  The flow network grew both sides, with their neighborhoods,
to prove the winning cut minimal, so the validation is a handful of set
tests and walks nothing.  The sides, with a walk of any vertex outside them
and the winner, prove G connected, which G remembers; that walk, and a NONE
answer's walk of the whole graph, run only while G is not known to be so.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Optional

from .atfree import is_at_free
from .close_to import close_to_run
from .errors import InternalConsistencyError
from .graph_core import (
    EMPTY_SET,
    WeightedGraph,
    closed_neighborhood,
    component_with_boundary,
    hangs_together,
    is_connected,
    neighborhood,
)
from .min_weight_separator import FlowNetwork
from .minimal_separators import checked_sides, safe_minimal_sides


class QueryInstance(NamedTuple("QueryInstance", [("graph", WeightedGraph), ("A", frozenset), ("B", frozenset)])):
    """A safe-separator query: a weighted graph and the two terminal sets.

    The one place a query is checked, by :func:`checked_sides`: both sets
    must be non-empty, disjoint and made of active vertices (ints, not
    bools), or construction raises ValueError.  Sets that are merely
    adjacent are a valid query whose answer is NONE.  A named tuple whose
    every way of being built (call, ``_make``, ``_replace``) runs the check.
    """

    __slots__ = ()

    def __new__(cls, graph: WeightedGraph, A, B):
        return super().__new__(cls, graph, *checked_sides(graph, A, B))

    @classmethod
    def _make(cls, iterable) -> "QueryInstance":
        return cls(*iterable)  # _replace builds through _make


class SafeSeparatorAnswer(NamedTuple):
    """Either a minimum-weight safe separator with its weight, or NONE."""

    separator: Optional[FrozenSet[int]] = None
    weight: Optional[int] = None

    @property
    def exists(self) -> bool:
        return self.separator is not None

    @classmethod
    def none(cls) -> "SafeSeparatorAnswer":
        return cls(separator=None, weight=None)


def _core(g: WeightedGraph, R: frozenset, v, sides: dict) -> tuple:
    """(core, N_G(core)) for the part of v's side in G - R that every
    qualifying pair settles: the side of a lone qualifying member S, else
    the component of v avoiding every qualifying member, inside each of
    their sides.  A lone member's side has N_G = S | R with no walk:
    N(side) - R = S by the lemma of the close_to module, and every vertex
    of R = N(A) & N(B) touches the terminal set inside the side."""
    if len(sides) == 1:
        ((S, side),) = sides.items()
        return side, S | R
    return component_with_boundary(g, R.union(*sides), v)


def _best_pair_cut(g: WeightedGraph, s, t, pairs, R, weight_R):
    """((weight, sorted vertex tuple), vertex set, sides) of the best
    candidate over the qualifying pairs (S_A, S_B, c_sA, c_tB), all cut on
    one network of G - R between the cores, handed to it as seeds; sides are
    the two sides, each with its neighborhood, on which the network proved
    the winning cut minimal: the components of G minus the candidate that
    hold s and t; a lone member's side is its core and settles nothing."""
    seed_s = _core(g, R, s, {S_A: c_sA for S_A, _, c_sA, _ in pairs})
    seed_t = _core(g, R, t, {S_B: c_tB for _, S_B, _, c_tB in pairs})
    core_s, core_t = seed_s[0], seed_t[0]
    net = FlowNetwork(g, s, t, seed_s, seed_t, R)
    best = None
    for _, _, c_sA, c_tB in pairs:
        settled = (EMPTY_SET if c_sA is core_s else c_sA - core_s) | (EMPTY_SET if c_tB is core_t else c_tB - core_t)
        sep, wt, sides = net.min_cut(settled)
        answer_set = sep | R
        key = (wt + weight_R, tuple(sorted(answer_set)))
        if best is None or key < best[0]:
            best = (key, answer_set, sides)
    return best


def min_safe_separator(q: QueryInstance, *, verified: bool = False) -> SafeSeparatorAnswer:
    """Minimum-weight safe A,B-separator of q.graph, or the NONE answer.

    Each qualifying close-family pair yields one minimum cut; among these
    candidates the smallest (weight, sorted vertex tuple) wins.  The answer
    is therefore a deterministic safe separator of minimum weight, but not
    necessarily the lexicographically smallest of all minimum-weight safe
    separators.  ``verified=True`` scans the graph once for an asteroidal
    triple and raises ValueError if it finds one; fast mode skips the scan.
    Raises ValueError on a disconnected graph, in both modes and on every
    path.  InternalConsistencyError means an internal check failed: the
    close-family chain, the settled sides of a pair, a cut, or the
    validation of the winner against the safety definition.  On an AT-free
    graph none of them fails.  In fast mode on a graph with an asteroidal
    triple nothing is guaranteed beyond three outcomes: a NONE (possibly
    wrong), a safe minimal separator (possibly not of minimum weight), or
    this error.  Connectivity is read off the winning cut's two full sides
    plus a walk of any vertex outside them and the winner, or, for a NONE
    answer or this error, a walk of the whole graph; neither walk runs once
    g, which remembers it, is known to be connected.  A graph already known
    to be disconnected is refused before anything is read.
    """
    if q.graph._connected is False:
        raise ValueError("input graph must be connected")
    try:
        answer = _answer(q.graph, q.A, q.B, verified)
    except InternalConsistencyError:
        if is_connected(q.graph):
            raise
        raise ValueError("input graph must be connected") from None
    if not answer.exists and not is_connected(q.graph):
        raise ValueError("input graph must be connected")
    return answer


def _answer(g: WeightedGraph, A: frozenset, B: frozenset, verified: bool) -> SafeSeparatorAnswer:
    """The query behind :func:`min_safe_separator`; a NONE answer here leaves
    connectivity unchecked, and an answer marks g connected."""
    if verified and not is_at_free(g):
        raise ValueError("input graph is not AT-free")
    if A & closed_neighborhood(g, B):
        # A is adjacent to B: any deletion avoiding both sets leaves some
        # a,b in one component.
        return SafeSeparatorAnswer.none()

    R = neighborhood(g, A) & neighborhood(g, B)
    s, t = min(A), min(B)

    # QueryInstance has checked the terminals, and G - R is an induced
    # subgraph of g, so it is AT-free whenever g is: the close families need
    # no scan.  Each family member comes with its source side in G - R;
    # run_B's is C_t(G-R-S_B), as t is its source.
    run_A = close_to_run(g, s, t, A - {s}, R)
    if not run_A.family:
        return SafeSeparatorAnswer.none()
    run_B = close_to_run(g, t, s, B - {t}, R)

    pairs = []
    for S_B, c_tB in zip(run_B.family, run_B.sides):
        for S_A, c_sA in zip(run_A.family, run_A.sides):
            # Qualifying: C_s(G-R-S_A) <= C_s(G-R-S_B).  c_sA is connected
            # and holds s, so that is c_sA missing S_B.
            if not S_B.isdisjoint(c_sA):
                continue
            # N(c_sA) <= S_A | R, so this also keeps the sides non-adjacent.
            if not (c_tB.isdisjoint(c_sA) and c_tB.isdisjoint(S_A)):
                raise InternalConsistencyError("the settled sides of a qualifying pair meet")
            pairs.append((S_A, S_B, c_sA, c_tB))
    if not pairs:
        return SafeSeparatorAnswer.none()

    (total, _), winner, (side_a, side_b) = _best_pair_cut(g, s, t, pairs, R, g.weight_of(R))
    if not safe_minimal_sides(A, B, winner, side_a, side_b):
        raise InternalConsistencyError(
            "computed winner failed validation against the safety definition"
        )
    # Each vertex of the winner W touches both full sides, so g[C_A | W | C_B]
    # is connected if W is not empty, and g is if every other vertex reaches W.
    c_a, c_b = side_a[0], side_b[0]
    if not winner or (
        g._connected is not True
        and len(c_a) + len(c_b) + len(winner) < g.n
        and not hangs_together(g, winner, set(range(g.n)).difference(c_a, c_b, winner))
    ):
        raise ValueError("input graph must be connected")
    g._connected = True
    if g.weight_of(winner) != total:
        raise InternalConsistencyError("winner weight disagrees with its vertex set")
    return SafeSeparatorAnswer(separator=winner, weight=total)
