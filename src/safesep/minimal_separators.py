"""Predicates and constructions for minimal vertex separators.

Conventions used throughout:

* If the two terminals are already disconnected, the empty set is the unique
  minimal separator between them, and every predicate treats it that way.
  Derived graphs inside the higher-level procedures routinely become
  disconnected, and this convention keeps every characterization true
  vacuously.
* ``close_separator`` raises :class:`NoSeparatorError` (distinct from
  returning the empty set) when the source side reaches into the target's
  closed neighborhood.  Its trusted search ``near_search``, on which
  ``close_to`` reads every close separator N(C_t(G - N(X))) of an anchor
  set X, returns None instead, and X may be any set there.
"""

from __future__ import annotations

from typing import Iterable

from .errors import NoSeparatorError
from .graph_core import (
    EMPTY_SET,
    WeightedGraph,
    checked_id,
    checked_set,
    closed_neighborhood,
    component_with_boundary,
    hangs_together,
)


def _check_terminals(g: WeightedGraph, s, t, S: Iterable[int] = EMPTY_SET, what: str = "S") -> frozenset:
    """S as a frozenset, once s and t are distinct active vertices and S a
    set of active vertices avoiding both; else ValueError naming S as
    ``what`` ("<what> must avoid the terminals")."""
    checked_id(g, s, "terminal")
    checked_id(g, t, "terminal")
    if s == t:
        raise ValueError("terminals must be distinct")
    S = checked_set(g, S, what)
    if s in S or t in S:
        raise ValueError(f"{what} must avoid the terminals")
    return S


def is_st_separator(g: WeightedGraph, s, t, S: Iterable[int]) -> bool:
    """True iff s and t are in different connected components of G-S."""
    S = _check_terminals(g, s, t, S)
    return t not in component_with_boundary(g, S, s)[0]


def is_minimal_st_separator(g: WeightedGraph, s, t, S: Iterable[int]) -> bool:
    """True iff S separates s from t and both terminal components are full,
    i.e. N(C_s(G-S)) = N(C_t(G-S)) = S."""
    return _has_full_sides(g, s, t, _check_terminals(g, s, t, S))


def _has_full_sides(g: WeightedGraph, s, t, S: frozenset) -> bool:
    """:func:`is_minimal_st_separator` on trusted input: S a set of active
    vertices avoiding s and t, distinct active vertices."""
    c_s, n_s = component_with_boundary(g, S, s)
    if t in c_s or n_s != S:
        return False
    return component_with_boundary(g, S, t)[1] == S


def checked_sides(g: WeightedGraph, A: Iterable[int], B: Iterable[int]) -> tuple:
    """(A, B) as non-empty, disjoint frozensets of active vertices, else
    ValueError; the one check of two sides, for QueryInstance and _check_ab."""
    A, B = checked_set(g, A, "A"), checked_set(g, B, "B")
    if not A or not B:
        raise ValueError("A and B must be non-empty")
    if A & B:
        raise ValueError("A and B must be disjoint")
    return A, B


def _check_ab(g: WeightedGraph, A: Iterable[int], B: Iterable[int], S: Iterable[int]) -> tuple:
    """(A, B, S) as frozensets: non-adjacent sides that :func:`checked_sides`
    accepts, and S a set of active vertices avoiding both; else ValueError."""
    (A, B), S = checked_sides(g, A, B), checked_set(g, S, "S")
    if A & closed_neighborhood(g, B):
        raise ValueError("A and B must be non-adjacent")
    if S & (A | B):
        raise ValueError("S must avoid A and B")
    return A, B, S


def is_AB_separator(g: WeightedGraph, A: Iterable[int], B: Iterable[int], S: Iterable[int]) -> bool:
    """True iff no path joins A and B in G-S: B misses the side of A, the
    union of the components of G-S that meet A."""
    A, B, S = _check_ab(g, A, B, S)
    return B.isdisjoint(component_with_boundary(g, S, *A)[0])


def is_minimal_AB_separator(g: WeightedGraph, A: Iterable[int], B: Iterable[int], S: Iterable[int]) -> bool:
    """True iff S is an A,B-separator and every w in S touches both sides:
    there are components C_A (meeting A) and C_B (meeting B) of G-S with
    w in N(C_A) and w in N(C_B).  The side of A (of B) is the union of the
    components that meet it, and its neighborhood the union of theirs."""
    A, B, S = _check_ab(g, A, B, S)
    side_a, near_a = component_with_boundary(g, S, *A)
    if not (B.isdisjoint(side_a) and S <= near_a):
        return False
    return S <= component_with_boundary(g, S, *B)[1]


def is_safe_AB_separator(g: WeightedGraph, A: Iterable[int], B: Iterable[int], S: Iterable[int]) -> bool:
    """True iff S separates A from B while A stays inside one component of
    G-S and B inside one (different) component: the components of min(A)
    and of min(B)."""
    A, B, S = _check_ab(g, A, B, S)
    b = min(B)
    side_a = component_with_boundary(g, S, min(A))[0]
    if b in side_a or not A <= side_a:
        return False
    return B <= component_with_boundary(g, S, b)[0]


def safe_minimal_sides(A: frozenset, B: frozenset, S: frozenset, side_a: tuple, side_b: tuple) -> bool:
    """Whether S is a safe minimal A,B-separator, read off side_a = (C_A,
    N_G(C_A)) and side_b = (C_B, N_G(C_B)), the components of G-S that hold
    min(A) and min(B): A lies inside C_A, B inside C_B, min(B) outside C_A,
    and N(C_A) = S = N(C_B).  Once A fills one component and B another, the
    last says exactly that S is minimal.  Nothing is walked.

    Trusted: the sides are those components, each with its exact
    neighborhood, which therefore lies inside S."""
    (c_a, n_a), (c_b, n_b) = side_a, side_b
    return A <= c_a and B <= c_b and min(B) not in c_a and n_a == S == n_b


def close_separator(g: WeightedGraph, X: Iterable[int], t) -> frozenset:
    """The unique minimal separator between X and t contained in N(X).

    Computed as N(C_t(G - N(X))); if t cannot reach X at all, the result
    is the empty separator.  Raises ValueError unless X is a non-empty set
    of active vertices with g[X] connected and t is an active vertex, and
    NoSeparatorError when X meets N[t].
    """
    X = checked_set(g, X, "X")
    checked_id(g, t, "terminal")
    if not X:
        raise ValueError("X must be non-empty")
    if X & closed_neighborhood(g, (t,)):
        raise NoSeparatorError("X intersects the closed neighborhood of t")
    start = next(iter(X))
    if not hangs_together(g, {start}, X - {start}):
        raise ValueError("g[X] is not connected")
    return near_search(g, X, t).separator


def near_search(
    g: WeightedGraph, X: Iterable[int], t, excluded: frozenset = EMPTY_SET, known: frozenset = EMPTY_SET, dead=EMPTY_SET
) -> NearSearch | None:
    """The :class:`NearSearch` for the close separator of X in G - excluded,
    or None when t lies in N[X].

    Trusted: X is a non-empty set of active vertices and t an active vertex,
    all outside ``excluded``; nothing here checks that.  X need not be
    connected: the separator is then the close separator of s in g with s
    joined to N[X] - {s}, for any s in X.  ``known`` holds vertices already
    known to reach t in G - excluded - N[X], which the search starts from,
    and ``dead`` vertices known not to, which it never walks.
    """
    adj = g._adj
    near_adj = [adj[x] for x in X]
    closed = set(excluded)
    closed.update(X, *near_adj)
    if t in closed:
        return None
    return NearSearch(adj, X, t, closed, closed.difference(excluded, X), near_adj, known, dead)


class NearSearch:
    """The close separator S = N(C_t(G - E - N[X])) - E of an anchor set X,
    found from X's side, for the excluded set E.

    Each neighbor u of a vertex v in N(X) - E, with u outside E and N[X], is
    classified by a walk of G - E - N[X] that stops as soon as it touches a
    vertex already known to reach t (at first t and the seed); its vertices
    then reach t too, and v joins S.  A walk that runs out first has walked
    a whole component other than t's, a *pocket*; ``pockets`` maps each of
    its vertices to (C, N_G(C)).  A classified neighbor is not walked again,
    so no vertex is walked twice, and t's side is walked only as far as the
    first vertex known to reach t.  The seed is a set of vertices known to
    reach t, such as C_t(G - Z) for a Z holding E and N[X]: no walk enters
    it, and the separator and pockets are those of an unseeded search.  The
    dead vertices are known not to reach t, such as the pockets of a search
    for a set inside X, and are never walked; the separator is unchanged,
    but a search given dead vertices has no :meth:`near_side`.  Every vertex
    of S is next to a vertex that reaches t, so N(C_t(G - E - S)) - E = S
    holds by construction.  Each walk's vertex set is built once: less its
    boundary, in place, it joins the vertices known to reach t or becomes
    the pocket that every one of its vertices maps to.  Build it with
    :func:`near_search`.
    """

    def __init__(self, adj, X, t, closed, border, near_adj, known, dead):
        # border is N(X) - E; near_adj holds the neighbors of X, and gains
        # those of each border vertex outside S.
        self._adj = adj
        self._X = X
        self._closed = closed
        self._reach = {t, *known}
        self.pockets = {}
        self._dead = dead
        self._inner = []
        self._near_adj = near_adj
        separator = set()
        for v in border:
            nbrs = adj[v]
            for u in nbrs:
                if u not in closed and self.reaches_t(u):
                    separator.add(v)
                    break
            else:
                self._inner.append(v)
                near_adj.append(nbrs)
        self.separator = frozenset(separator)

    def reaches_t(self, u) -> bool:
        """Whether u, a vertex outside E and N[X], lies in C_t(G - E - N[X]),
        by a walk that stops at the first vertex known to reach t."""
        reach = self._reach
        if u in reach:
            return True
        if u in self.pockets or u in self._dead:
            return False
        adj, closed = self._adj, self._closed
        seen = {u}
        boundary = set()
        stack = [u]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    if w in closed:
                        boundary.add(w)
                    elif w in reach:
                        seen -= boundary
                        reach.update(seen)
                        return True
                    else:
                        stack.append(w)
        seen -= boundary
        comp = frozenset(seen)
        found = dict.fromkeys(comp, (comp, frozenset(boundary)))
        if self.pockets:
            self.pockets.update(found)
        else:
            self.pockets = found
        return False

    def near_side(self) -> tuple:
        """(C, N_G(C)) for C = C_s(G - E - S) when X = {s}, with no walk:
        C is s, the border vertices outside S, and the pockets those touch,
        all of which the search has classified.  C is built by one union,
        taking each touched pocket once by the identity of its entry."""
        boundary = set().union(*self._near_adj)
        touched = {id(entry): entry for entry in map(self.pockets.__getitem__, boundary - self._closed)}
        side = frozenset(self._X).union(self._inner, *(pocket for pocket, _ in touched.values()))
        boundary.update(*(pocket_boundary for _, pocket_boundary in touched.values()))
        return side, frozenset(boundary - side)
