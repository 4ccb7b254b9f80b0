"""Graph container and basic operations."""

import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from safesep import (
    QueryInstance,
    WeightedGraph,
    bfs_path,
    close_to,
    closed_neighborhood,
    component_of,
    components,
    family_sorted,
    is_connected,
    is_st_separator,
    min_weight_st_separator,
    neighborhood,
    subdivide,
)
from safesep.graph_core import (
    component_from_seed,
    component_with_boundary,
    hangs_together,
    reaches_all,
)
from tests.brutes import (
    connected_within,
    contract_connected_set,
    count_reads,
    cycle_graph,
    induced_delete,
    path_graph,
    random_weighted_graph,
)
from tests.strategies import connected_graphs


def assert_adjacency_tuples(g):
    """The adjacency and the weights are tuples of one entry per id 0..n-1,
    every adjacency a strictly increasing tuple of active vertices, and the
    adjacency is symmetric."""
    assert type(g._adj) is tuple and type(g._w) is tuple
    assert len(g._adj) == len(g._w) == g.n
    for v, nb in enumerate(g._adj):
        assert type(nb) is tuple, (v, nb)
        assert all(a < b for a, b in zip(nb, nb[1:])), (v, nb)
        assert all(type(u) is int and 0 <= u < g.n and v in g._adj[u] for u in nb), (v, nb)


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
        with pytest.raises(ValueError, match="unknown vertex"):
            WeightedGraph(3, [(0, 1), (-1, 2)])

    def test_rejects_vertex_ids_that_are_not_integers(self):
        for edge in ((0, 1.0), (1.0, 0), (True, 2), (0, False), (0, "1"), (0, None)):
            with pytest.raises(ValueError, match="integers"):
                WeightedGraph(3, [(1, 2), edge])

    def test_int_subclass_ids_are_stored_as_ints(self):
        class Id(int):
            pass

        g = WeightedGraph(Id(3), [(Id(0), Id(1)), (1, 2)])
        assert g == path_graph(3) and type(g.n) is int
        assert all(type(x) is int for e in g.edges() for x in e)

    def test_has_vertex_refuses_ids_that_are_not_ints(self):
        class Id(int):
            pass

        g = path_graph(3)
        assert g.has_vertex(1) and g.has_vertex(Id(1))
        for v in (True, False, 1.0, "1", None):
            assert not g.has_vertex(v)

    def test_neighbors_refuses_ids_that_are_not_ints(self):
        g = path_graph(3)
        assert g.neighbors(1) == {0, 2}
        for v in (True, False, 1.0, "1", None, 3, [1]):
            with pytest.raises(ValueError, match=f"^v: {re.escape(repr(v))} is not an active vertex$"):
                g.neighbors(v)

    def test_weight_refuses_ids_that_are_not_ints(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], [4, 5, 6])
        assert g.weight(1) == 5 and g.weight_of({0, 2}) == 10 and g.weight_of(()) == 0
        for v in (True, False, 1.0, "1", None, 3, [1]):
            with pytest.raises(ValueError, match=f"^v: {re.escape(repr(v))} is not an active vertex$"):
                g.weight(v)
            with pytest.raises(ValueError, match="^S: .* is not (an active vertex|a set of active vertices)$"):
                g.weight_of([2, v])

    def test_has_edge_is_false_for_ids_that_are_not_ints(self):
        g = path_graph(3)
        assert g.has_edge(0, 1) and g.has_edge(1, 0) and not g.has_edge(0, 2)
        for v in (True, 1.0, None, 3):
            assert not g.has_edge(0, v) and not g.has_edge(v, 0) and not g.has_edge(v, 2)

    def test_negative_and_out_of_range_ids_are_refused_everywhere(self):
        # On the 5-cycle a tuple indexed by -1 reads vertex 4, a neighbor of
        # 0, and one indexed by 5 raises IndexError: neither may answer.
        g = cycle_graph(5)
        for bad in (-1, 5):
            calls = [
                lambda: QueryInstance(g, {bad}, {2}),
                lambda: QueryInstance(g, {0}, {bad}),
                lambda: close_to(g, bad, 2, ()),
                lambda: close_to(g, 0, bad, ()),
                lambda: close_to(g, 0, 2, {bad}),
                lambda: min_weight_st_separator(g, bad, 2),
                lambda: min_weight_st_separator(g, 0, bad),
                lambda: is_st_separator(g, bad, 2, ()),
                lambda: is_st_separator(g, 0, 2, {bad}),
                lambda: component_of(g, {bad}, 0),
                lambda: component_of(g, (), bad),
                lambda: bfs_path(g, bad, 0),
                lambda: bfs_path(g, 0, bad),
                lambda: g.neighbors(bad),
                lambda: g.weight(bad),
            ]
            for call in calls:
                with pytest.raises(ValueError, match="not an active vertex"):
                    call()
            assert not g.has_vertex(bad) and not g.has_edge(bad, 0) and not g.has_edge(0, bad)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [], [1])
        with pytest.raises(ValueError):
            WeightedGraph(2, [], [1, 0])
        with pytest.raises(ValueError):
            WeightedGraph(2, [], [1, 2.5])
        with pytest.raises(ValueError):
            WeightedGraph(-1, [])

    def test_rejects_vertex_counts_that_are_not_integers(self):
        for n in (True, False, 2.0, "3", None):
            with pytest.raises(ValueError, match="vertex count"):
                WeightedGraph(n)

    def test_inactive_vertex_queries_raise(self):
        # Every id below n is active, an isolated one too; ids from n up, and
        # ids that are not ints, are not.
        g = induced_delete(path_graph(3), {1})
        assert g.neighbors(1) == frozenset() and g.weight(1) == 1
        assert bfs_path(g, 0, 1) is None and component_of(g, (), 1) == {1}
        for src, dst in ((0, True), (0, 3), (99, 99), ([1], 2), (0, [1])):
            with pytest.raises(ValueError, match="not an active vertex"):
                bfs_path(g, src, dst)
        for h, X, v in ((g, (), True), (g, {True}, True), (g, {2}, 3), (path_graph(3), {1}, True), (g, (), [1])):
            with pytest.raises(ValueError, match="not an active vertex"):
                component_of(h, X, v)


class TestAdjacencyTuples:
    """Seeded graphs of up to 60 vertices, large enough that a set of
    neighbors often iterates out of ascending order."""

    @staticmethod
    def graphs(label, count):
        for seed in range(count):
            rng = random.Random(f"{label}:{seed}")
            n = rng.randint(2, 60)
            yield random_weighted_graph(n, rng, p=min(0.5, 3 / n)), rng

    def test_edge_order_and_repeats_do_not_matter(self):
        for g, rng in self.graphs("order", 30):
            edges = list(g.edges())
            shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            rng.shuffle(shuffled)
            weights = [g.weight(v) for v in g.vertices]
            for variant in (shuffled, [(v, u) for u, v in reversed(edges)], edges + shuffled + edges[:3]):
                h = WeightedGraph(g.n, variant, weights)
                assert_adjacency_tuples(h)
                assert h == g and hash(h) == hash(g)
                assert list(h.edges()) == edges
                assert h.edge_count == len(edges)
                for v in h.vertices:
                    assert type(h.neighbors(v)) is frozenset
                    assert h.neighbors(v) == {u for e in edges if v in e for u in e} - {v}

    def test_derived_graphs_keep_adjacency_tuples(self):
        for g, rng in self.graphs("derived", 60):
            verts = sorted(g.vertices)
            removed = frozenset(rng.sample(verts, rng.randint(0, len(verts) // 4)))
            h = induced_delete(g, removed)
            assert_adjacency_tuples(h)
            assert set(h.edges()) == {e for e in g.edges() if removed.isdisjoint(e)}
            assert_adjacency_tuples(subdivide(h)[0])


class TestNeighborhoods:
    def test_open_and_closed(self):
        g = path_graph(4)
        assert neighborhood(g, {1, 2}) == frozenset({0, 3})
        assert closed_neighborhood(g, {1, 2}) == frozenset({0, 1, 2, 3})
        assert neighborhood(g, {}) == frozenset()


class TestComponents:
    def test_cycle_minus_two_vertices(self):
        g = cycle_graph(6)
        assert components(g, {0, 3}) == (
            (frozenset({1, 2}), frozenset({0, 3})),
            (frozenset({4, 5}), frozenset({0, 3})),
        )

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
        for comp, boundary in part:
            assert comp, "components are non-empty"
            assert not comp & removed
            # internally connected and maximal: boundary lies inside removed
            v = next(iter(comp))
            c_v = component_of(g, removed, v)
            assert c_v == comp
            assert neighborhood(g, comp) == boundary and boundary <= removed
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
            joint = frozenset().union(*(comp for comp, _ in part if not starts.isdisjoint(comp)))
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

    def test_a_frozenset_seed_with_its_neighbors_removed_comes_back_itself(self):
        # On the path 0-...-5 the seed {2, 3} has N(seed) = {1, 4}.  With
        # both removed it is its own component: the same object, nothing read.
        g = path_graph(6)
        seed = frozenset({2, 3})
        reads = count_reads(g)
        side, boundary = component_from_seed(g, frozenset({1, 4}), seed, (1, 4))
        assert side is seed and boundary == {1, 4} and not reads
        # One seed neighbour outside X: the component grows through it.
        grown = component_from_seed(g, frozenset({1, 5}), seed, (1, 4))
        assert grown == (frozenset({2, 3, 4}), frozenset({1, 5})) and reads == {4: 1}
        # A tuple seed is grown into a frozenset component.
        side, boundary = component_from_seed(g, frozenset({1, 4}), (2, 3), (1, 4))
        assert type(side) is frozenset and side == seed and boundary == {1, 4}


class TestDeletionAndContraction:
    def test_induced_delete_keeps_identifiers(self):
        g = induced_delete(path_graph(5, [1, 2, 3, 4, 5]), {2})
        assert g.vertices == (0, 1, 2, 3, 4)
        assert g.neighbors(2) == frozenset() and g.weight(2) == 3
        assert list(g.edges()) == [(0, 1), (3, 4)]
        assert components(g, ()) == (
            (frozenset({0, 1}), frozenset()), (frozenset({2}), frozenset()), (frozenset({3, 4}), frozenset()))

    def test_contract_connected_set(self):
        g = contract_connected_set(path_graph(5, [1, 2, 3, 4, 5]), 1, {2, 3})
        assert g.vertices == (0, 1, 2, 3, 4)
        assert list(g.edges()) == [(0, 1), (1, 4)]
        assert g.neighbors(2) == g.neighbors(3) == frozenset()
        assert [g.weight(v) for v in g.vertices] == [1, 2, 3, 4, 5]

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

    def test_refuses_a_weight_that_is_not_an_int(self):
        for weight in (True, 1.0, "1"):
            with pytest.raises(ValueError, match="positive integer"):
                subdivide(path_graph(3), weight)

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


class TestConnectivity:
    def test_is_connected_is_one_component(self):
        rng = random.Random(17)
        for _ in range(200):
            g = random_weighted_graph(rng.randint(1, 9), rng, p=rng.choice((0.15, 0.3, 0.5)))
            removed = set(rng.sample(sorted(g.vertices), rng.randint(0, g.vertex_count - 1)))
            for h in (g, induced_delete(g, removed)):
                assert is_connected(h) == (len(components(h, ())) == 1)
        assert is_connected(WeightedGraph(0))

    def test_connectivity_is_walked_once_and_remembered(self):
        # Every constructor leaves the memo unset, is_connected walks the
        # graph once and remembers the answer, and the memo is no part of a
        # graph's value.
        rng = random.Random(23)
        for _ in range(100):
            g = random_weighted_graph(rng.randint(2, 9), rng, p=rng.choice((0.15, 0.3, 0.5)))
            derived = [subdivide(g)[0], induced_delete(g, {0})]
            for h in (g, *derived):
                assert h._connected is None
                expected = len(components(h, ())) == 1
                copy = WeightedGraph(h.n, h.edges(), h._w)
                assert is_connected(h) is expected and h._connected is expected
                assert h == copy and hash(h) == hash(copy) and copy._connected is None
                reads = count_reads(h)
                assert is_connected(h) is expected and not reads


class TestTraversal:
    def test_bfs_path_is_none_without_a_path(self):
        # Two components: the walk from 0 runs out before it reaches 3.
        g = WeightedGraph(5, [(0, 1), (1, 2), (3, 4)])
        assert bfs_path(g, 0, 3) is None and bfs_path(g, 4, 2) is None
        assert bfs_path(g, 0, 2) == (0, 1, 2)
        # A forbidden endpoint is refused before any walk.
        reads = count_reads(g)
        assert bfs_path(g, 0, 2, frozenset({2})) is None and bfs_path(g, 0, 0, frozenset({0})) is None
        assert not reads

    def test_bfs_path_avoids_forbidden(self):
        g = cycle_graph(4)
        assert bfs_path(g, 0, 2) in ((0, 1, 2), (0, 3, 2))
        assert bfs_path(g, 0, 2, frozenset({1})) == (0, 3, 2)
        assert bfs_path(g, 0, 2, frozenset({1, 3})) is None
        assert bfs_path(g, 0, 0) == (0,)

    def test_family_sorted_orders_lexicographically(self):
        fam = family_sorted([frozenset({2}), frozenset({1, 3}), frozenset({2})])
        assert fam == (frozenset({1, 3}), frozenset({2}))
