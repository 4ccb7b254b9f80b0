"""The family of minimal s,t-separators close to the source side.

For a set A of vertices to be kept on s's side, a minimal s,t-separator S is
*close to sA* when A lies inside C_s(G-S) and no other minimal s,t-separator
T with A inside C_s(G-T) has a strictly smaller s-component.  ``close_to``
computes exactly this family.  On AT-free inputs it runs in polynomial time
and the family has at most n^2 members (at most n in the restricted case
where A already sits inside C_s(G-T_s) | T_s | C_t(G-T_s) for the separator
T_s closest to s).

The procedure works in the graph G' = G - L where L collects the common
neighbors of sA and t (vertices every qualifying separator must contain),
walks the component structure under the separator closest to s, and reads
off one close separator N(C_t(G' - N[X])) per anchor set X: s with the
anchored part of A and one candidate anchor vertex, and in the contraction
branch a settled source side with one of its boundary vertices, alone and
with the part of A that the side strands.  Each is found from X's side
(``near_search``), which walks t's side only as far as the first vertex
known to reach t; X need not be connected, and the result is the close
separator of s in G' with s joined to N[X] - {s}.  Several anchor vertices
share one walk of C_t(G' - Z), Z the closed neighborhood of all their
anchor sets, which seeds each search.

Every candidate is T | L for the close separator T = N(C_t(G' - N[X])) of
G' of an anchor set X that holds s and misses N[t] (sA misses N[t], or the
run stops at once; a boundary vertex w in N(t) is skipped), and in G - R:

* T | L avoids s and t: T lies in N(X), and L in N(t), which misses s;
* it separates them, and N(C_t) = T | L: C_t(G' - N[X]) misses s in X, its
  neighbors lie in T | L | R, every vertex of T touches it, and L <= N(t).

The lemma: if A lies inside C_s = C_s(G - R - T - L), then so does X, and
N(C_s) - R = T | L, on any graph, AT-free or not.

* X misses T | L | R: T lies in N(X) - X, s and A miss N[t] and R, and the
  other vertices of X lie in G'.
* So s, A and an anchor vertex v, in N(s), lie in C_s; c_s_1 below is
  connected, holds s and misses T | L | R; a boundary vertex w lies in
  S_1 <= N(A_v | {s}), so it touches c_s_1 or d_v = A_v - c_s_1, which
  lies in A, as v lies in c_s_1.
* Every vertex of T touches X, and every vertex of L touches sA, so
  T | L <= N(C_s) <= T | L | R.

So a candidate is a minimal s,t-separator with A on its s-side exactly when
A lies inside C_s: the definitional filter tests only that, and domination
among the survivors, and keeps exactly the family from any list that
contains it, as a survivor outside the family is dominated by a member
(domination is well-founded).  On AT-free inputs the raw candidates contain
the whole family.  The s-side of each member, and the branches the run
took, stay available to callers.

In the contraction branch the anchor pass left part of A_v outside
c_s_1 = C_s(G' - S_1), and Q_s is the part of S_1 touched by the walk from
N[X] - S_1.  That walk holds c_s_1, so c_s_1 is also C_s(G' - Q_s); as the
anchor v lies in c_s_1 (it is s, or lies in N(s) - S_1), Q_s | L would
strand part of A and is no candidate.

G' is never built: every walk runs in G with L excluded, and collects the
neighborhood of its component in G on the way; minus L, that is the
separator of G' the walk finds.  The sides the procedure walks are reused
rather than walked again.  The gate asks whether sA lies in C_s(G' - N(t)),
which is the s-side of the separator closest to t, by a breadth-first walk
from s that stops at the last vertex of A it reaches, so it reads only the
ball around s that holds A; a gate that fails walks the whole side.  The
search that finds the separator T_s closest to s also yields
C_s(G' - T_s) from what it walked.  Every later anchor set holds s, so the
pockets of G' - N[s] it walked are dead in the later searches, which never
walk them, and the s-side C_s(G' - T) that tests A for an anchor's
separator T grows from C_s(G' - T_s) and the pockets holding part of A.
Each is the s-side of the candidate T | L in G - R as well, so the filter
is handed it, and walks only the s-sides of the contraction branch's
candidates.  No candidate needs its t-side walked.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .atfree import is_at_free
from .errors import InternalConsistencyError
from .graph_core import (
    EMPTY_SET,
    WeightedGraph,
    closed_neighborhood,
    component_from_seed,
    component_with_boundary,
    neighborhood,
    reaches_all,
)
from .minimal_separators import _check_terminals, near_search


def nested_component_meet(T_s: frozenset, boundaries):
    """Intersection of the neighborhoods N(C_i) & T_s of the target
    components, given their neighborhoods N_G(C_i) in ``boundaries``.

    On AT-free inputs the neighborhoods of the non-source components of
    G - T_s form a chain under inclusion, so the intersection is the smallest
    of them.  The chain is checked on every call, as the neighborhoods are at
    hand anyway: a broken chain proves the input is not AT-free and raises
    InternalConsistencyError.  ``boundaries`` must not be empty.
    """
    ordered = sorted((NC & T_s for NC in boundaries), key=len)
    for small, big in zip(ordered, ordered[1:]):
        if not small <= big:
            raise InternalConsistencyError(
                "component neighborhoods under T_s do not form a chain; "
                "the input graph cannot be AT-free"
            )
    return ordered[0]


class CloseToRun(NamedTuple):
    """One close_to invocation: the family that survived the definitional
    filter, the s-side of each member, and the path the run took.
    ``sides[i]`` is C_s(G-S) for S = family[i], the full component on which
    the filter proved A on the s-side; it was walked once, by the procedure
    or by the filter.  ``path`` names the branches reached: exactly one of
    ``adjacent`` (sA meets N[t]), ``gate``, ``shortcut`` (closest to s),
    ``anchor at s`` (no pockets) and ``chain`` (:func:`nested_component_meet`
    anchors), and any of ``several anchors``, ``contraction`` (a boundary
    search was made) and ``rest`` (a rest search was made)."""

    family: tuple
    sides: tuple
    path: frozenset


def _definition_filter(g: WeightedGraph, s, A: frozenset, candidates, walked: dict, R) -> tuple:
    """Keep exactly the separators close to sA in G - R among candidates
    built as the module describes: minimal, A on the s-side, and not
    dominated by another survivor with a strictly smaller s-component.
    Returns (family, sides) as in :class:`CloseToRun`; ``walked`` maps a
    candidate S to its s-side C_s(G-R-S) when that has been walked.

    One test runs on every candidate, A inside C_s: construction proves that
    each candidate avoids s and t, separates them and has N(C_t) = S in
    G - R, and the module's lemma that N(C_s) - R = S once A lies inside
    C_s.  So every member has N_G(C_s) = S | (N_G(C_s) & R), the seed
    neighborhood that the flow network of :func:`min_safe_separator` takes
    without a walk for a family of one member."""
    survivors = []
    for S in dict.fromkeys(candidates):
        c_s = walked.get(S) or component_with_boundary(g, S | R, s)[0]
        if A <= c_s:
            survivors.append((S, c_s))
    # Distinct minimal separators have distinct source components (each is the
    # neighborhood of its own), so domination is a strict-subset test; sorting
    # by component size lets each survivor check only smaller ones.
    survivors.sort(key=lambda item: len(item[1]))
    kept = [
        (S, c_s)
        for i, (S, c_s) in enumerate(survivors)
        if not any(other < c_s for _, other in survivors[:i])
    ]
    kept.sort(key=lambda member: tuple(sorted(member[0])))
    return tuple(S for S, _ in kept), tuple(c_s for _, c_s in kept)


def close_to_run(g: WeightedGraph, s, t, A: Iterable[int], R: frozenset = EMPTY_SET) -> CloseToRun:
    """The procedure behind :func:`close_to` on G - R, returning the filtered
    family with the sides of each member, and the path the run took.

    G - R is never built: every walk runs in g with R excluded.  Trusts its
    input: s and t must be distinct active vertices, A a set of active
    vertices avoiding both, none of them in R, and G - R AT-free.  Nothing
    here checks that; :func:`close_to` does, with R empty.  The
    component-neighborhood chain is checked on every run (see
    :func:`nested_component_meet`).
    """
    A = frozenset(A)
    sA = A | {s}
    if sA & closed_neighborhood(g, (t,)):
        return CloseToRun((), (), frozenset({"adjacent"}))

    # G' = G - gone.  A walk returns the neighborhood N_G(C) of its component:
    # minus gone it is a separator of G', minus R the neighborhood in G - R.
    L = (neighborhood(g, sA) & neighborhood(g, (t,))) - R
    gone = R | L

    # Gate: the separator closest to t decides whether any minimal separator
    # keeps all of A on the s-side.  That separator is T_t = N(C), with
    # C = C_s(G' - N(t)), and C is also C_s(G' - T_t), so the gate asks
    # whether sA lies in C.
    if not reaches_all(g, gone.union(g._adj[t]), s, sA):
        return CloseToRun((), (), frozenset({"gate"}))

    # The separator T_s closest to s, found from s's side, which also yields
    # C_s(G' - T_s), the s-side of the candidate T_s | L in G - R.  t lies
    # outside N[s] and gone, so the search exists.
    search = near_search(g, (s,), t, gone)
    T_s = search.separator
    c_s_ts, nb_ts = search.near_side()
    if sA <= c_s_ts:
        # The lone candidate keeps A on its side c_s_ts: the filter would keep it.
        S = T_s | L
        return CloseToRun((S,), (c_s_ts,), frozenset({"shortcut"}))

    # The vertices of A in C_s, T_s or C_t(G' - T_s) form the anchored core.
    # Any other a lies in a pocket P of the search, which is its component of
    # G' - T_s; P is a full component of G - gone - N[s], so the boundary the
    # search kept with it is N_G(P).  One target per pocket.
    a_core = set()
    pockets = {}
    for a in sorted(A):
        if a in c_s_ts or a in T_s or search.reaches_t(a):
            a_core.add(a)
        else:
            P, NP = search.pockets[a]
            pockets[P] = NP
    a_core = frozenset(a_core)
    # With no pocket to reach, the single pass anchors at s itself: X is the
    # same set, and s lies on every s-side.
    anchors = sorted(nested_component_meet(T_s, pockets.values())) if pockets else [s]
    path = {"chain" if pockets else "anchor at s"}
    # Every anchor's N[X] lies in Z = N[{s} | a_core | anchors], so the
    # vertices of C_t(G' - Z), walked once, reach t in each anchor's search.
    known = EMPTY_SET
    if len(anchors) > 1:
        path.add("several anchors")
        known = component_with_boundary(g, gone | closed_neighborhood(g, a_core.union(anchors, (s,))), t)[0]
    # Each X below holds s, so the pockets of G' - N[s] walked so far are
    # dead there.  S_1 misses C_s(G' - T_s) and the target pockets (its
    # vertices in N(s) lie in T_s, the others touch C_t(G' - N[s])), and v
    # in N(s) - S_1 touches each target pocket: C_s(G' - S_1) grows from them.
    seed = (c_s_ts.union(*pockets), nb_ts.union(*pockets.values()))
    candidates = []
    walked = {}
    for v in anchors:
        A_v = a_core | {v}
        X = A_v | {s}
        S_1 = near_search(g, X, t, gone, known, search.pockets).separator
        gone_1 = gone | S_1
        c_s_1 = component_from_seed(g, gone_1, *seed)[0]
        candidates.append(S_1 | L)
        walked[S_1 | L] = c_s_1
        if A_v <= c_s_1:
            # S_1 keeps all of A_v on the source side of G' itself, so it is
            # the only separator this pass can contribute.  (Testing the
            # containment in the walk from all of N[X] instead would accept
            # passes where N(X), not the graph, holds A_v together, and the
            # boundary candidates below would then never be generated.)
            continue
        # Contraction branch: Q_s is the part of S_1 that the components of
        # G' - S_1 meeting N[X] touch, and c_s_1 is C_s(G' - Q_s) (see the
        # module docstring).  Anchor at c_s_1 plus each boundary vertex w,
        # and at those with the rest of the targets d_v that c_s_1 leaves
        # out: when the first anchor strands part of A_v, the second
        # recovers the member.
        Q_s = component_with_boundary(g, gone_1, *(closed_neighborhood(g, X) - gone_1))[1] - gone
        d_v = A_v - c_s_1
        for w in sorted(Q_s):
            path.add("contraction")
            X_w = c_s_1 | {w}
            found = near_search(g, X_w, t, gone, dead=search.pockets)
            if found is None:
                continue
            candidates.append(found.separator | L)
            rest = d_v - {w}
            if rest:
                path.add("rest")
                candidates.append(near_search(g, X_w | rest, t, gone, dead=search.pockets).separator | L)

    family, sides = _definition_filter(g, s, A, candidates, walked, R)
    return CloseToRun(family, sides, frozenset(path))


def close_to(g: WeightedGraph, s, t, A: Iterable[int], *, verified: bool = False) -> tuple:
    """The family of all minimal s,t-separators close to sA, in lexicographic
    order.

    Raises ValueError unless s and t are distinct active vertices and A is a
    set of active vertices avoiding both ("A must avoid the terminals"), as
    :func:`_check_terminals` checks them.  ``verified=True`` additionally
    scans g once for an asteroidal triple (ValueError if it has one); fast
    mode skips the scan, and the correctness guarantee then rests on the
    caller supplying an AT-free graph.  Both modes check the
    component-neighborhood chain during the run, and raise
    InternalConsistencyError when it fails.  The checked query runs through
    :func:`close_to_run`.
    """
    A = _check_terminals(g, s, t, A, "A")
    if verified and not is_at_free(g):
        raise ValueError("input graph is not AT-free")
    return close_to_run(g, s, t, A).family
