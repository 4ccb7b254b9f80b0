"""Graph container and basic operations."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from safesep import (
    WeightedGraph,
    bfs_path,
    closed_neighborhood,
    component_of,
    components,
    family_sorted,
    induced_delete,
    is_connected,
    neighborhood,
    subdivide,
)
from safesep.graph_core import component_from_seed, component_with_boundary, hangs_together, reaches_all
from tests.brutes import connected_within, contract_connected_set
from tests.strategies import connected_graphs


def path_graph(n, weights=None):
    return WeightedGraph(n, [(i, i + 1) for i in range(n - 1)], weights)


def cycle_graph(n, weights=None):
    return WeightedGraph(n, [(i, (i + 1) % n) for i in range(n)], weights)


class TestConstruction:
    def test_basic_accessors(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], [2, 5, 7])
        assert g.vertices == (0, 1, 2)
        assert g.vertex_count == 3
        assert g.edge_count == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.neighbors(1) == frozenset({0, 2})
        assert g.weight(1) == 5
        assert g.weight_of({0, 2}) == 9
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 0)])

    def test_rejects_unknown_vertex_in_edge(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 5)])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [], [1])
        with pytest.raises(ValueError):
            WeightedGraph(2, [], [1, 0])
        with pytest.raises(ValueError):
            WeightedGraph(2, [], [1, 2.5])
        with pytest.raises(ValueError):
            WeightedGraph(-1, [])

    def test_inactive_vertex_queries_raise(self):
        g = induced_delete(path_graph(3), {1})
        with pytest.raises(ValueError):
            g.neighbors(1)
        with pytest.raises(ValueError):
            g.weight(1)


class TestNeighborhoods:
    def test_open_and_closed(self):
        g = path_graph(4)
        assert neighborhood(g, {1, 2}) == frozenset({0, 3})
        assert closed_neighborhood(g, {1, 2}) == frozenset({0, 1, 2, 3})
        assert neighborhood(g, {}) == frozenset()


class TestComponents:
    def test_cycle_minus_two_vertices(self):
        g = cycle_graph(6)
        part = components(g, {0, 3})
        assert set(part.components) == {frozenset({1, 2}), frozenset({4, 5})}
        assert part.neighborhood_of(1) == frozenset({0, 3})
        assert part.neighborhood_of(4) == frozenset({0, 3})
        assert part.index_of(0) is None
        assert part.of(2) == frozenset({1, 2})

    def test_component_of(self):
        g = path_graph(5)
        assert component_of(g, {2}, 0) == frozenset({0, 1})
        assert component_of(g, {2}, 4) == frozenset({3, 4})
        with pytest.raises(ValueError):
            component_of(g, {2}, 2)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=8), st.data())
    def test_partition_covers_exactly(self, g, data):
        removed = frozenset(
            data.draw(st.lists(st.sampled_from(sorted(g.vertices)), max_size=4))
        )
        part = components(g, removed)
        union = set()
        for comp in part:
            assert comp, "components are non-empty"
            assert not comp & removed
            # internally connected and maximal: boundary lies inside removed
            v = next(iter(comp))
            c_v = component_of(g, removed, v)
            assert c_v == comp
            assert neighborhood(g, comp) <= removed
            # the one-pass walk returns the component and its neighborhood
            assert component_with_boundary(g, removed, v) == (c_v, neighborhood(g, c_v))
            # the early-exit walk decides containment, removed targets included
            targets = data.draw(st.sets(st.sampled_from(sorted(comp)), max_size=3))
            targets |= data.draw(st.sets(st.sampled_from(sorted(g.vertices)), max_size=2))
            assert reaches_all(g, removed, v, targets) == (targets <= c_v)
            assert not union & comp, "components are disjoint"
            union |= comp
        assert union == set(g.vertices) - removed
        # a walk from several starts covers the union of their components
        if union:
            starts = data.draw(st.sets(st.sampled_from(sorted(union)), min_size=1, max_size=3))
            joint = frozenset().union(*(part.of(v) for v in starts))
            assert component_with_boundary(g, removed, *starts) == (joint, neighborhood(g, joint))

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=8), st.data())
    def test_hangs_together_is_connectivity_with_the_core_as_one_vertex(self, g, data):
        verts = sorted(g.vertices)
        core = data.draw(st.sets(st.sampled_from(verts), min_size=1, max_size=3))
        rest = data.draw(st.sets(st.sampled_from(verts), max_size=4)) - core
        wired = WeightedGraph(g.n, [*g.edges(), *((u, v) for u in core for v in core if u < v)])
        assert hangs_together(g, frozenset(core), frozenset(rest)) == connected_within(wired, core | rest)

    @settings(max_examples=100, deadline=None)
    @given(connected_graphs(max_n=9), st.data())
    def test_a_side_grown_from_a_seed_is_the_component(self, g, data):
        verts = sorted(g.vertices)
        removed = frozenset(data.draw(st.sets(st.sampled_from(verts), max_size=4)))
        v = data.draw(st.sampled_from(verts))
        assume(v not in removed)
        c_v = component_of(g, removed, v)
        # A connected seed that avoids the removed set: v, then one vertex of
        # the component next to the seed at a time.
        seed = {v}
        for _ in range(data.draw(st.integers(0, len(c_v) - 1))):
            seed.add(data.draw(st.sampled_from(sorted(neighborhood(g, seed) & c_v))))
        grown = component_from_seed(g, removed, frozenset(seed), neighborhood(g, seed))
        assert grown == component_with_boundary(g, removed, v)


class TestDeletionAndContraction:
    def test_induced_delete_keeps_identifiers(self):
        g = induced_delete(path_graph(5), {2})
        assert g.vertices == (0, 1, 3, 4)
        assert g.has_edge(0, 1) and g.has_edge(3, 4)
        assert not g.has_edge(1, 3)

    def test_contract_connected_set(self):
        g = contract_connected_set(path_graph(5), 1, {2, 3})
        assert g.vertices == (0, 1, 4)
        assert g.has_edge(0, 1) and g.has_edge(1, 4)

    def test_contract_disconnected_set_raises(self):
        with pytest.raises(ValueError):
            contract_connected_set(path_graph(5), 0, {2})


class TestSubdivide:
    def test_path(self):
        g, placed = subdivide(path_graph(3, [4, 5, 6]))
        assert g.vertex_count == 5
        assert placed == {3: (0, 1), 4: (1, 2)}
        assert g.neighbors(3) == frozenset({0, 1})
        assert g.weight(3) == 1 and g.weight(0) == 4

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            subdivide(path_graph(3), subdivision_weight=0)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=7))
    def test_every_fresh_vertex_replaces_one_edge(self, g):
        h, placed = subdivide(g)
        assert h.vertex_count == g.vertex_count + g.edge_count
        assert sorted(placed.values()) == sorted(g.edges())
        for fresh, (u, v) in placed.items():
            assert h.neighbors(fresh) == frozenset({u, v})
            assert not h.has_edge(u, v)
        assert is_connected(h) == is_connected(g)


class TestTraversal:
    def test_bfs_path_avoids_forbidden(self):
        g = cycle_graph(4)
        assert bfs_path(g, 0, 2) in ((0, 1, 2), (0, 3, 2))
        assert bfs_path(g, 0, 2, frozenset({1})) == (0, 3, 2)
        assert bfs_path(g, 0, 2, frozenset({1, 3})) is None
        assert bfs_path(g, 0, 0) == (0,)

    def test_family_sorted_orders_lexicographically(self):
        fam = family_sorted([frozenset({2}), frozenset({1, 3}), frozenset({2})])
        assert fam == (frozenset({1, 3}), frozenset({2}))
