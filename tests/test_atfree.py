"""Asteroidal-triple recognition."""

import random

import pytest
from hypothesis import given, settings

from safesep import (
    WeightedGraph,
    atfree,
    closed_neighborhood,
    find_asteroidal_triple,
    gen_interval,
    is_at_free,
    is_connected,
)
from tests.brutes import asteroidal_triple_brute, cycle_graph, random_weighted_graph, reachable
from tests.strategies import connected_graphs
from tests.test_min_safe_sep import broken_chain_query


def test_six_cycle_has_the_alternating_triple():
    wit = find_asteroidal_triple(cycle_graph(6))
    assert wit is not None
    assert wit.triple == (0, 2, 4)
    assert not is_at_free(cycle_graph(6))


def test_small_graphs_have_no_triple():
    assert is_at_free(WeightedGraph(2, [(0, 1)]))
    for n in (3, 4, 5):
        assert is_at_free(cycle_graph(n))


def test_spider_with_long_legs():
    # center 0 with three legs of length two: the leg tips are asteroidal
    g = WeightedGraph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
    wit = find_asteroidal_triple(g)
    assert wit.triple == (4, 5, 6)


def test_witness_paths_avoid_the_thirds_closed_neighborhood():
    wit = find_asteroidal_triple(cycle_graph(6))
    a, b, c = wit.triple
    for path, (u, v, z) in (
        (wit.path_ab, (a, b, c)),
        (wit.path_ac, (a, c, b)),
        (wit.path_bc, (b, c, a)),
    ):
        g = cycle_graph(6)
        assert path[0] == u and path[-1] == v
        assert not set(path) & closed_neighborhood(g, (z,))
        for x, y in zip(path, path[1:]):
            assert g.has_edge(x, y)


@settings(max_examples=250, deadline=None)
@given(connected_graphs(min_n=3, max_n=8))
def test_recognizer_agrees_with_definition(g):
    mine = find_asteroidal_triple(g)
    ref = asteroidal_triple_brute(g)
    assert (mine is None) == (ref is None)
    if mine is not None:
        a, b, c = mine.triple
        assert not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c))
        for u, v, z in ((a, b, c), (a, c, b), (b, c, a)):
            assert v in reachable(g, u, closed_neighborhood(g, (z,)))


def permutation_graph(n, window, seed):
    """A connected permutation graph (a cocomparability graph, so AT-free)
    from a locally shuffled permutation, with shuffled vertex labels.

    i < j are adjacent when the permutation inverts them.  The graph is
    disconnected exactly where a prefix of the permutation maps onto itself;
    swapping the two values at each such cut joins the sides.
    """
    rng = random.Random(f"perm:{n}:{window}:{seed}")
    pi = list(range(n))
    for i in range(n):
        j = min(n - 1, i + rng.randrange(window))
        pi[i], pi[j] = pi[j], pi[i]
    top = -1
    for k in range(n - 1):
        top = max(top, pi[k])
        if top == k:
            pi[k], pi[k + 1] = pi[k + 1], pi[k]
            top = pi[k]
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[i], label[j]) for i in range(n) for j in range(i + 1, n) if pi[i] > pi[j]]
    return WeightedGraph(n, edges)


@pytest.fixture
def scan_calls(monkeypatch):
    """Counts the scan's ``components`` calls (one per vertex when it runs)."""
    calls = []
    real = atfree.components

    def spy(g, X):
        calls.append(X)
        return real(g, X)

    monkeypatch.setattr(atfree, "components", spy)
    return calls


def test_cocomparability_graphs_are_certified_without_the_scan(scan_calls):
    interval = gen_interval(200, wmax=5, seed=3)
    perm = permutation_graph(200, 5, 1)
    assert is_connected(perm)
    for g in (interval, perm):
        assert find_asteroidal_triple(g) is None
    assert scan_calls == []


def test_five_cycle_falls_back_to_the_scan(scan_calls):
    # C5 is AT-free but not a cocomparability graph: no ordering passes.
    assert find_asteroidal_triple(cycle_graph(5)) is None
    assert len(scan_calls) == 5


def test_sweeps_that_run_out_fall_back_to_the_scan(monkeypatch, scan_calls):
    # One sweep proposes one ordering; when it fails, the sweeps have run out
    # with no ordering repeated, and only the scan decides.
    monkeypatch.setattr(atfree, "SWEEPS", 1)
    assert atfree._has_cocomparability_ordering(cycle_graph(5)) is False
    assert find_asteroidal_triple(cycle_graph(5)) is None and len(scan_calls) == 5
    for g in (cycle_graph(6), broken_chain_query().graph):
        assert atfree._has_cocomparability_ordering(g) is False
        assert find_asteroidal_triple(g).triple == asteroidal_triple_brute(g)


def test_graphs_with_a_triple_still_yield_a_witness():
    for g, triple in ((cycle_graph(6), (0, 2, 4)), (broken_chain_query().graph, (0, 1, 9))):
        wit = find_asteroidal_triple(g)
        assert wit.triple == triple
        a, b, c = triple
        for path, z in ((wit.path_ab, c), (wit.path_ac, b), (wit.path_bc, a)):
            assert not set(path) & closed_neighborhood(g, (z,))


def test_ordering_checker_rejects_an_umbrella():
    # On the path 0-1-2-3, the edge 0-1 spans vertex 3, adjacent to neither.
    nbrs = [[1], [0, 2], [1, 3], [2]]
    assert atfree._is_umbrella_free(nbrs, [0, 1, 2, 3])
    assert not atfree._is_umbrella_free(nbrs, [0, 3, 1, 2])


def test_a_bad_ordering_is_refused_not_trusted(monkeypatch, scan_calls):
    monkeypatch.setattr(atfree, "_lex_bfs", lambda nbrs, prior: [0, 3, 1, 2])
    path = WeightedGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert find_asteroidal_triple(path) is None
    assert len(scan_calls) == 4


def test_ordering_checker_matches_the_definition():
    for i in range(300):
        rng = random.Random(f"umbrella:{i}")
        g = random_weighted_graph(rng.randint(1, 8), rng, p=rng.choice((0.3, 0.6)), wmax=1)
        nbrs = [sorted(g.neighbors(v)) for v in g.vertices]
        order = list(g.vertices)
        rng.shuffle(order)
        pos = {v: k for k, v in enumerate(order)}
        umbrella = any(
            pos[u] < pos[v] < pos[w] and g.has_edge(u, w)
            and not g.has_edge(u, v) and not g.has_edge(v, w)
            for u in order for v in order for w in order
        )
        assert atfree._is_umbrella_free(nbrs, order) == (not umbrella), i
