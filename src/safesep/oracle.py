"""Exhaustive reference implementations and instance generators.

Everything here trades speed for obviousness: the oracles enumerate vertex
subsets and apply the definitions directly, so they are usable as ground
truth against the polynomial algorithms on small instances.  Subset scans
refuse to run once the ground set exceeds a cap (default 16 vertices,
overridable through the SAFESEP_SUBSET_CAP environment variable) instead of
silently taking forever.  ``close_family_bound_check`` tests a computed close
family against the size bounds the algorithm promises.

The generators produce weighted test instances: interval graphs (AT-free by
construction, scalable) and small random AT-free graphs by rejection.  Both
are deterministic functions of their seed.
"""

from __future__ import annotations

import os
import random
from itertools import combinations
from typing import FrozenSet, Iterable, Tuple

from .atfree import scan_asteroidal_triple
from .errors import NoSeparatorError
from .graph_core import (
    WeightedGraph,
    closed_neighborhood,
    component_of,
    family_sorted,
    hangs_together,
)
from .min_safe_sep import QueryInstance, SafeSeparatorAnswer
from .minimal_separators import _check_terminals, _has_full_sides, close_separator, is_safe_AB_separator

DEFAULT_SUBSET_CAP = 16


class SubsetCapError(RuntimeError):
    """Raised when an exhaustive scan would enumerate subsets of a ground set
    larger than the configured cap."""


def _subset_cap() -> int:
    raw = os.environ.get("SAFESEP_SUBSET_CAP")
    if raw is None:
        return DEFAULT_SUBSET_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"SAFESEP_SUBSET_CAP must be an integer, got {raw!r}") from exc
    return cap


def _check_cap(ground_size: int, what: str) -> None:
    cap = _subset_cap()
    if ground_size > cap:
        raise SubsetCapError(
            f"{what} would scan subsets of {ground_size} vertices "
            f"(cap {cap}; raise SAFESEP_SUBSET_CAP to override)"
        )


def _subsets_by_size(ground: Iterable[int]):
    ground = sorted(ground)
    for k in range(len(ground) + 1):
        for combo in combinations(ground, k):
            yield frozenset(combo)


def enumerate_minimal_st_separators(g: WeightedGraph, s, t) -> Tuple[FrozenSet[int], ...]:
    """All minimal s,t-separators, by exhaustive scan of vertex subsets.

    Includes the empty separator exactly when s and t are already
    disconnected.  Output is in lexicographic order.  Raises ValueError
    unless s and t are distinct active vertices.
    """
    _check_terminals(g, s, t)
    ground = set(g.vertices) - {s, t}
    _check_cap(len(ground), "minimal-separator enumeration")
    found = [S for S in _subsets_by_size(ground) if _has_full_sides(g, s, t, S)]
    return family_sorted(found)


def close_family_brute(g: WeightedGraph, s, t, A: Iterable[int]) -> Tuple[FrozenSet[int], ...]:
    """The close-to-sA family, straight from the definition: keep the minimal
    s,t-separators with A on the s-side, then drop every one whose s-side
    strictly contains another's.  Raises ValueError as :func:`close_to`
    does."""
    A = _check_terminals(g, s, t, A, "A")
    with_side = []
    for S in enumerate_minimal_st_separators(g, s, t):
        c_s = component_of(g, S, s)
        if A <= c_s:
            with_side.append((S, c_s))
    kept = [
        S
        for S, c_s in with_side
        if not any(other < c_s for T, other in with_side if T != S)
    ]
    return family_sorted(kept)


def close_family_bound_check(g: WeightedGraph, s, t, A: Iterable[int], fam) -> bool:
    """True iff the family respects the size guarantees: at most n^2 members
    always, and at most n whenever A is confined to
    C_s(G-T_s) | T_s | C_t(G-T_s)."""
    A = frozenset(A)
    n = len(g.vertices)
    if len(fam) > n * n:
        return False
    try:
        T_s = close_separator(g, (s,), t)
    except NoSeparatorError:
        return True
    confined = A <= component_of(g, T_s, s) | T_s | component_of(g, T_s, t)
    return not (confined and len(fam) > n)


def min_safe_brute(g: WeightedGraph, A: Iterable[int], B: Iterable[int]) -> SafeSeparatorAnswer:
    """Minimum-weight safe A,B-separator by scanning every candidate subset.

    Ties break toward the lexicographically smallest vertex tuple.  The
    polynomial ``min_safe_separator`` breaks ties differently, so the two
    agree on the weight and existence of an answer, not necessarily on the
    set.  Raises ValueError where :class:`QueryInstance` does.
    """
    q = QueryInstance(g, A, B)
    A, B = q.A, q.B
    if A & closed_neighborhood(g, B):
        return SafeSeparatorAnswer.none()
    ground = sorted(set(g.vertices) - A - B)
    _check_cap(len(ground), "safe-separator search")
    w = {v: g.weight(v) for v in ground}
    best = None  # ((weight, sorted vertex tuple), set) of the best so far
    for k in range(len(ground) + 1):
        if best is not None and k > best[0][0]:
            break  # every weight is at least 1, so k vertices weigh at least k
        for S in combinations(ground, k):  # each S is a sorted tuple
            key = (sum(w[v] for v in S), S)
            if (best is None or key < best[0]) and is_safe_AB_separator(g, A, B, S):
                best = (key, frozenset(S))
    if best is None:
        return SafeSeparatorAnswer.none()
    (wt, _), S = best
    return SafeSeparatorAnswer(separator=S, weight=wt)


def two_dcs_brute(g: WeightedGraph, A: Iterable[int], B: Iterable[int]) -> bool:
    """Decide 2-disjoint-connected-subgraphs by exhaustive search: are there
    disjoint vertex sets V_A >= A and V_B >= B, each inducing a connected
    subgraph?  (A and B may be adjacent; only overlap is forbidden.)
    Raises ValueError where :class:`QueryInstance` does."""
    q = QueryInstance(g, A, B)
    A, B = q.A, q.B
    ground = frozenset(g.vertices) - A - B
    _check_cap(len(ground), "two-disjoint-connected-subgraphs search")
    a0, b0 = frozenset({min(A)}), min(B)
    for X in _subsets_by_size(ground):
        v_a = A | X
        if not hangs_together(g, a0, v_a - a0):
            continue
        # A connected superset of B avoiding v_a exists iff B sits inside a
        # single component once v_a is gone.
        if B <= component_of(g, v_a, b0):
            return True
    return False


def _random_weights(n: int, wmax: int, rng: random.Random) -> tuple:
    return tuple(rng.randint(1, wmax) for _ in range(n))


def _check_sizes(**sizes):
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def gen_interval(n: int, wmax: int = 1, seed: int = 0) -> WeightedGraph:
    """Random connected interval graph (interval graphs are AT-free).

    Intervals get short random lengths so the expected degree stays modest at
    large n; coverage gaps are closed by shifting intervals left, which keeps
    the model an interval model and guarantees connectivity.  Raises
    ValueError unless n and wmax are at least 1.
    """
    _check_sizes(n=n, wmax=wmax)
    rng = random.Random(f"interval:{n}:{wmax}:{seed}")
    if n == 1:
        return WeightedGraph(1, (), _random_weights(1, wmax, rng))
    scale = 8.0 / n
    raw = sorted(
        (rng.random(), rng.random() * scale + 1e-9) for _ in range(n)
    )
    intervals = []
    covered = None
    for start, length in raw:
        if covered is not None and start > covered:
            start = covered
        intervals.append((start, start + length))
        covered = max(covered, start + length) if covered is not None else start + length
    edges = []
    # Sweep in start order; an earlier interval overlaps a later one exactly
    # when it ends after the later one starts.
    active = []  # (end, vertex) pairs still open
    for v, (start, end) in enumerate(intervals):
        active = [(e, u) for e, u in active if e >= start]
        edges.extend((u, v) for _, u in active)
        active.append((end, v))
    return WeightedGraph(n, edges, _random_weights(n, wmax, rng))


def _random_connected_graph(n: int, rng: random.Random, p: float = 0.35) -> list:
    """Edge list of a random connected graph: random spanning tree plus
    independent extra edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[rng.randrange(i)]
        v = order[i]
        edges.add((min(u, v), max(u, v)))
    for u, v in combinations(range(n), 2):
        if rng.random() < p:
            edges.add((u, v))
    return sorted(edges)


def gen_atfree_rejection(n: int, wmax: int = 1, seed: int = 0) -> WeightedGraph:
    """Random connected AT-free graph, found by resampling random connected
    graphs until one passes the AT-free check.  Only sensible for small n.

    Most draws have an asteroidal triple, and no ordering certificate can
    prove those AT-free, so each draw goes straight to the scan.  Raises
    ValueError unless 1 <= n <= 12 and wmax >= 1.
    """
    _check_sizes(n=n, wmax=wmax)
    if n > 12:
        raise ValueError("rejection sampling is only practical for n <= 12")
    rng = random.Random(f"atfree-reject:{n}:{wmax}:{seed}")
    while True:
        g = WeightedGraph(n, _random_connected_graph(n, rng), _random_weights(n, wmax, rng))
        if scan_asteroidal_triple(g) is None:
            return g


def sample_terminals(g: WeightedGraph, rng: random.Random, max_size: int = 3, tries: int = 200):
    """Random terminal sets for a safe-separator query: disjoint, with A
    avoiding the closed neighborhood of B, both of size 1..max_size.
    Returns (A, B) or None when no such pair turns up."""
    verts = list(g.vertices)
    for _ in range(tries):
        size_a = rng.randint(1, max_size)
        size_b = rng.randint(1, max_size)
        if size_a + size_b > len(verts):
            continue
        chosen = rng.sample(verts, size_a + size_b)
        A = frozenset(chosen[:size_a])
        B = frozenset(chosen[size_a:])
        if A & closed_neighborhood(g, B):
            continue
        return A, B
    return None
