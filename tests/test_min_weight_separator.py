"""Minimum-weight vertex separators via vertex-capacitated max-flow."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safesep import (
    InternalConsistencyError,
    NoSeparatorError,
    WeightedGraph,
    is_minimal_st_separator,
    min_weight_st_separator,
)
from safesep.min_weight_separator import FlowNetwork
from tests.brutes import (
    ArcNetwork,
    cold_min_cut,
    contract_connected_set,
    induced_delete,
    max_disjoint_paths_brute,
    min_arc_cut_brute,
    min_weight_separator_brute,
    minimal_st_separators_by_deletion,
    random_weighted_graph,
    reachable,
    vertex_connectivity_st,
)
from tests.strategies import graphs_with_terminals


def test_path_with_heavy_middle():
    g = WeightedGraph(3, [(0, 1), (1, 2)], [1, 7, 1])
    assert min_weight_st_separator(g, 0, 2) == (frozenset({1}), 7)


def test_cycle_must_pay_both_sides():
    g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1, 2, 1, 3])
    assert min_weight_st_separator(g, 0, 2) == (frozenset({1, 3}), 5)


def test_picks_the_cheapest_cut_vertex():
    g = WeightedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [1, 5, 2, 9, 1])
    assert min_weight_st_separator(g, 0, 4) == (frozenset({2}), 2)


def test_disconnected_pair_costs_nothing():
    g = induced_delete(WeightedGraph(5, [(i, i + 1) for i in range(4)]), {2})
    assert min_weight_st_separator(g, 0, 4) == (frozenset(), 0)


def test_validation():
    g = WeightedGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(NoSeparatorError):
        min_weight_st_separator(g, 0, 1)
    with pytest.raises(ValueError):
        min_weight_st_separator(g, 0, 0)
    with pytest.raises(ValueError):
        min_weight_st_separator(g, 0, 7)


def test_refuses_terminal_ids_that_are_not_ints():
    g = WeightedGraph(5, [(i, i + 1) for i in range(4)])
    for s, t in ((False, 3), (0, 3.0), (True, 4), (0, None)):
        with pytest.raises(ValueError, match="not an active vertex"):
            min_weight_st_separator(g, s, t)


def test_unit_weight_connectivity():
    g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [5, 9, 5, 9])
    assert vertex_connectivity_st(g, 0, 2) == 2
    with pytest.raises(NoSeparatorError):
        vertex_connectivity_st(g, 0, 1)
    for s, t in ((0, 0), (0, 7)):
        with pytest.raises(ValueError):
            vertex_connectivity_st(g, s, t)


def test_flow_network_on_its_own():
    """The cold reference ``ArcNetwork``, on seeded random directed networks
    of at most 8 nodes with integer capacities, zero included, checked
    against the arcs as built: the flow is feasible, its value is a minimum
    s,t arc cut, the nodes marked by the last search are exactly those the
    residual of that flow reaches from s, and a second call adds nothing.
    The corpus must reach flows that need more than one augmenting path."""
    multi_path = 0
    for i in range(400):
        rng = random.Random(f"flow:{i}")
        n = rng.randint(2, 8)
        s, t = rng.sample(range(n), 2)
        arcs = [
            (u, v, rng.choice((0, 1, 2, 3, 5, 9)))
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.4
        ]
        net = ArcNetwork(n)
        ids = [net.add_arc(u, v, c) for u, v, c in arcs]
        value, mark = net.max_flow(s, t)
        assert value == min_arc_cut_brute(n, arcs, s, t), i
        flow = [c - net.cap[idx] for (_, _, c), idx in zip(arcs, ids)]
        excess = [0] * n
        residual = [[] for _ in range(n)]
        for (u, v, c), idx, f in zip(arcs, ids, flow):
            assert 0 <= f <= c and net.cap[idx ^ 1] == f, i
            excess[u] -= f
            excess[v] += f
            if f < c:
                residual[u].append(v)
            if f > 0:
                residual[v].append(u)
        assert excess[t] == value == -excess[s], i
        assert all(excess[x] == 0 for x in range(n) if x != s and x != t), i
        seen = {s}
        stack = [s]
        while stack:
            for y in residual[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert {x for x in range(n) if mark[x] >= 0} == seen, i
        again, mark = net.max_flow(s, t)
        assert again == 0 and {x for x in range(n) if mark[x] >= 0} == seen, i
        # one path carries at most the capacity of its first arc
        multi_path += value > max((c for u, _, c in arcs if u == s), default=0)
    assert multi_path >= 50, multi_path


@settings(max_examples=150, deadline=None)
@given(graphs_with_terminals(min_n=3, max_n=9, wmax=8))
def test_matches_exhaustive_minimum(gst):
    g, s, t = gst
    if g.has_edge(s, t):
        with pytest.raises(NoSeparatorError):
            min_weight_st_separator(g, s, t)
        return
    sep, value = min_weight_st_separator(g, s, t)
    best = min_weight_separator_brute(g, s, t)
    assert best is not None
    assert value == best[0]
    assert g.weight_of(sep) == value
    assert is_minimal_st_separator(g, s, t, sep)


@settings(max_examples=200, deadline=None)
@given(graphs_with_terminals(min_n=3, max_n=9, wmax=8), st.data())
def test_cuts_with_settled_sets_match_the_subset_oracle(gst, data):
    """Several cuts of one network, each with its own settled set, against
    the cheapest separator that avoids the settled vertices: the same
    weight, a minimal separator avoiding them, or no finite cut when there
    is none.  Each cut must start again from the base flow."""
    g, s, t = gst
    others = [v for v in g.vertices if v not in (s, t)]
    net = FlowNetwork(g, s, t)
    sets = st.sets(st.sampled_from(others)) if others else st.just(set())
    for settled in data.draw(st.lists(sets, min_size=1, max_size=4)):
        best = min_weight_separator_brute(g, s, t, settled)
        if best is None:
            with pytest.raises(InternalConsistencyError, match="infinite capacity"):
                net.min_cut(settled)
            continue
        sep, value, _ = net.min_cut(settled)
        assert value == best[0] == g.weight_of(sep)
        assert sep.isdisjoint(settled) and is_minimal_st_separator(g, s, t, sep)


def test_a_flow_that_must_undo_an_edge_arc():
    """Unit weights: the shortest path 0, 1, 2, 3 is found first and blocks
    the two disjoint paths 0, 1, 4, 5, 3 and 0, 6, 7, 2, 3, so the second
    augmenting path enters 2 from 7 and takes back the flow on 1 -> 2."""
    g = WeightedGraph(8, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 3), (0, 6), (6, 7), (7, 2)])
    net = FlowNetwork(g, 0, 3)
    assert (net.cut, net.base) == (frozenset({1, 6}), 2)
    assert net.min_cut({1})[:2] == cold_min_cut(g, 0, 3, {1}) == (frozenset({2, 4}), 2)


def test_a_flow_that_must_undo_a_vertex():
    """Unit weights: the shortest path 0, 1, 2, 3, 4 is found first.  The
    second augmenting path 0, 5, 6, 7 enters 3, goes back through 2 from its
    out-node to its in-node, reaches 1 and leaves by 8, 9, 10, so 2 ends up
    carrying no flow."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 3), (1, 8), (8, 9), (9, 10), (10, 4)]
    g = WeightedGraph(11, edges)
    net = FlowNetwork(g, 0, 4)
    assert (net.cut, net.base) == (frozenset({1, 5}), 2) and 2 not in net.through
    assert net.min_cut({1, 3})[:2] == cold_min_cut(g, 0, 4, {1, 3}) == (frozenset({2, 5, 8}), 3)


@settings(max_examples=100, deadline=None)
@given(graphs_with_terminals(min_n=3, max_n=8))
def test_unit_cut_equals_max_disjoint_paths(gst):
    g, s, t = gst
    if g.has_edge(s, t):
        return
    assert vertex_connectivity_st(g, s, t) == max_disjoint_paths_brute(g, s, t)


@settings(max_examples=150, deadline=None)
@given(graphs_with_terminals(min_n=3, max_n=9, wmax=8))
def test_raised_sides_cut_like_contracted_sides(gst):
    """For every qualifying pair of minimal s,t-separators (S_A's s-side
    inside S_B's), raising the split arcs of C_s(G-S_A) and C_t(G-S_B) on one
    shared network gives the cut, vertex set and weight, of the graph with
    both sides contracted."""
    g, s, t = gst
    seps = minimal_st_separators_by_deletion(g, s, t)
    net = FlowNetwork(g, s, t)
    for S_A in seps:
        c_sA = reachable(g, s, S_A)
        for S_B in seps:
            if not c_sA <= reachable(g, s, S_B):
                continue
            c_tB = reachable(g, t, S_B)
            h = contract_connected_set(g, s, c_sA - {s})
            h = contract_connected_set(h, t, c_tB - {t})
            assert net.min_cut((c_sA | c_tB) - {s, t})[:2] == min_weight_st_separator(h, s, t)


@pytest.mark.parametrize(
    "edges, t, sep",
    [
        ([(0, 1), (1, 2), (2, 3), (3, 0)], 2, {1}),
        ([(0, 1), (1, 2), (2, 3), (3, 4)], 4, {1, 3}),
        ([(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)], 4, {2, 5}),
        ([(0, 1), (1, 2)], 2, set()),
    ],
    ids=["t on the side of s", "a cut vertex s's side misses", "a cut vertex t's side misses",
         "the empty cut of a connected pair"],
)
def test_the_cut_check_refuses_what_is_not_a_minimal_separator(edges, t, sep):
    """Each cut is proved from the seeds of s and t: a set of the flow's
    weight that leaves t on the side of s, or is not all in the neighborhood
    of one side, is refused.  A forged last search names the set; a flow of
    0 names the empty set, which is proved like any other."""
    g = WeightedGraph(1 + max(map(max, edges)), edges)
    net = FlowNetwork(g, 0, t)
    net.through = dict.fromkeys(sep, 1)
    with pytest.raises(InternalConsistencyError, match="not a minimal separator"):
        net._cut((dict.fromkeys(sep, 0), {}), len(sep))


def test_the_cut_check_refuses_a_cut_that_does_not_weigh_the_flow(monkeypatch):
    """Every cut, the base cut and each settled one, must weigh what the flow
    reports: a max_flow that overstates its value by one is refused."""
    honest = FlowNetwork.max_flow

    def overstated(self, settled=frozenset()):
        flow, reached = honest(self, settled)
        return flow + 1, reached

    g = WeightedGraph(5, [(i, i + 1) for i in range(4)], [1, 3, 2, 5, 1])
    net = FlowNetwork(g, 0, 4)
    assert (net.cut, net.base) == (frozenset({2}), 2)
    monkeypatch.setattr(FlowNetwork, "max_flow", overstated)
    with pytest.raises(InternalConsistencyError, match="^cut weight 2 does not match flow value 3$"):
        FlowNetwork(g, 0, 4)
    with pytest.raises(InternalConsistencyError, match="^cut weight 3 does not match flow value 4$"):
        net.min_cut({2})


def test_settled_sides_that_touch_have_no_finite_cut():
    g = WeightedGraph(5, [(i, i + 1) for i in range(4)])
    net = FlowNetwork(g, 0, 4)
    with pytest.raises(InternalConsistencyError, match="infinite capacity"):
        net.min_cut({1, 2, 3})
    # every cut starts again from the saved capacities
    assert net.min_cut({1})[:2] == (frozenset({2}), 1)


def test_adjacent_terminals_build_but_have_no_finite_cut():
    """With s and t adjacent the base flow reaches the infinite capacity, so
    there is no base cut to keep: every cut raises, settled or not."""
    g = WeightedGraph(3, [(0, 1), (0, 2)])
    net = FlowNetwork(g, 0, 1)
    assert net.cut is None
    for settled in ((), {2}):
        with pytest.raises(InternalConsistencyError, match="infinite capacity"):
            net.min_cut(settled)


def test_augmenting_from_the_base_flow_cuts_like_a_cold_flow():
    """On seeded random graphs and arbitrary settled sets (not only sides),
    each cut augmented from the shared base flow is the cut of a network
    built with those arcs raised and flowed from zero, vertex set and weight,
    or both find no finite cut.  The corpus must reach flows above the base,
    settled sets that touch, and non-empty settled sets that miss the base
    cut and keep it, or one of the three paths would go untested."""
    risen = touching = kept = 0
    for i in range(300):
        rng = random.Random(f"warm:{i}")
        n = rng.randint(4, 14)
        p, wmax = rng.choice((0.15, 0.3, 0.5)), rng.choice((1, 4, 9))
        g = random_weighted_graph(n, rng, p=p, wmax=wmax)
        s, t = rng.sample(range(n), 2)
        net = FlowNetwork(g, s, t)
        others = [v for v in range(n) if v not in (s, t)]
        for _ in range(8):
            q = rng.choice((0.05, 0.15, 0.3))
            settled = frozenset(v for v in others if rng.random() < q)
            cold = cold_min_cut(g, s, t, settled)
            if cold is None:
                touching += 1
                with pytest.raises(InternalConsistencyError, match="infinite capacity"):
                    net.min_cut(settled)
                continue
            assert net.min_cut(settled)[:2] == cold, (i, sorted(settled))
            risen += cold[1] > net.base
            kept += bool(settled) and net.cut.isdisjoint(settled)
    assert risen >= 50 and touching >= 50 and kept >= 50, (risen, touching, kept)
