"""Separator predicates and close separators."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from safesep import (
    NoSeparatorError,
    WeightedGraph,
    close_separator,
    closed_neighborhood,
    component_of,
    components,
    is_AB_separator,
    is_minimal_AB_separator,
    is_minimal_st_separator,
    is_safe_AB_separator,
    is_st_separator,
    neighborhood,
)
from safesep.graph_core import component_with_boundary
from safesep.minimal_separators import near_search, safe_minimal_sides
from safesep.oracle import enumerate_minimal_st_separators
from tests.brutes import (
    ab_separates,
    claw,
    close_side,
    components_brute,
    count_reads,
    cycle_graph,
    induced_delete,
    is_minimal_ab_separator_brute,
    is_minimal_separator_by_deletion,
    is_safe_ab_separator_brute,
    path_graph,
    reachable,
    separates,
    side_with_boundary,
)
from tests.strategies import atfree_graphs, connected_graphs, graphs_with_terminals


def draw_ab_query(g, data):
    """(A, B, S) with A and B disjoint, non-empty and non-adjacent, and S
    avoiding both."""
    verts = sorted(g.vertices)
    if data.draw(st.booleans()):
        # A and B drawn from the two sides of a minimal a,b-separator,
        # sometimes padded with one more vertex: often safe and minimal.
        a, b = data.draw(st.lists(st.sampled_from(verts), min_size=2, max_size=2, unique=True))
        assume(not g.has_edge(a, b))
        S = close_separator(g, (a,), b)
        S |= data.draw(st.sets(st.sampled_from(verts), max_size=1)) - {a, b}
        A = {a} | data.draw(st.sets(st.sampled_from(verts), max_size=2)) & component_of(g, S, a)
        B = {b} | data.draw(st.sets(st.sampled_from(verts), max_size=2)) & component_of(g, S, b)
    else:
        A = data.draw(st.sets(st.sampled_from(verts), min_size=1, max_size=2))
        far = sorted(set(verts) - closed_neighborhood(g, A))
        assume(far)
        B = data.draw(st.sets(st.sampled_from(far), min_size=1, max_size=2))
        S = data.draw(st.sets(st.sampled_from(verts), max_size=4)) - A - B
    return frozenset(A), frozenset(B), frozenset(S)


class TestPairPredicates:
    def test_path_separators(self):
        g = path_graph(5)
        assert is_st_separator(g, 0, 4, {2})
        assert is_minimal_st_separator(g, 0, 4, {2})
        assert is_st_separator(g, 0, 4, {1, 2})
        assert not is_minimal_st_separator(g, 0, 4, {1, 2})
        assert not is_st_separator(g, 0, 4, set())
        with pytest.raises(ValueError):
            is_st_separator(g, 0, 4, {0})  # terminals may not sit in S

    def test_refuse_vertex_ids_that_are_not_ints(self):
        g = path_graph(5)
        for s, t, S in ((True, 3, {2}), (0, 4.0, {2}), ("0", 4, {2}), (0, 3, {True}), (0, 3, {7})):
            for predicate in (is_st_separator, is_minimal_st_separator):
                with pytest.raises(ValueError, match="not an active vertex"):
                    predicate(g, s, t, S)
        # A single id is named as passed, never as a set.
        with pytest.raises(ValueError, match=r"^terminal: \[0\] is not an active vertex$"):
            is_st_separator(g, [0], 4, {2})
        with pytest.raises(ValueError, match="^S: 2 is not a set of active vertices$"):
            is_st_separator(g, 0, 4, 2)
        with pytest.raises(ValueError, match="not an active vertex"):
            close_separator(g, (True,), 4)
        with pytest.raises(ValueError, match=r"^terminal: \[1\] is not an active vertex$"):
            close_separator(g, {3}, [1])
        with pytest.raises(ValueError, match="not an active vertex"):
            is_AB_separator(g, {True}, {4}, {2})

    def test_empty_separator_for_disconnected_pair(self):
        g = induced_delete(path_graph(5), {2})
        assert is_st_separator(g, 0, 4, set())
        assert is_minimal_st_separator(g, 0, 4, set())

    @settings(max_examples=120, deadline=None)
    @given(graphs_with_terminals(max_n=8), st.data())
    def test_predicates_match_literal_definitions(self, gst, data):
        g, s, t = gst
        pool = sorted(set(g.vertices) - {s, t})
        S = frozenset(data.draw(st.lists(st.sampled_from(pool), max_size=5))) if pool else frozenset()
        assert is_st_separator(g, s, t, S) == separates(g, s, t, S)
        assert is_minimal_st_separator(g, s, t, S) == is_minimal_separator_by_deletion(g, s, t, S)


class TestSetPredicates:
    def test_safe_versus_merely_minimal(self):
        g = claw()
        # removing the center splits the leaves into singletons
        assert is_AB_separator(g, {1}, {2}, {0})
        assert is_minimal_AB_separator(g, {1}, {2}, {0})
        assert is_safe_AB_separator(g, {1}, {2}, {0})
        # A = {1, 3} ends up split across two components: not safe
        assert is_AB_separator(g, {1, 3}, {2}, {0})
        assert not is_safe_AB_separator(g, {1, 3}, {2}, {0})

    def test_minimality_of_set_separator(self):
        g = path_graph(5)
        assert is_minimal_AB_separator(g, {0}, {4}, {2})
        assert not is_minimal_AB_separator(g, {0}, {4}, {1, 3})
        assert is_safe_AB_separator(g, {0}, {4}, {1, 3})

    def test_each_side_is_walked_from_its_whole_set(self):
        # Path 0-...-5 without 1: A = {0, 5} reaches B = {3} from 5 only.
        g = path_graph(6)
        assert not is_AB_separator(g, {0, 5}, {3}, {1})
        assert not is_minimal_AB_separator(g, {0, 5}, {3}, {1})
        # Path 0-1-2-3: {1, 3} separates 0 from 2, but 3 touches only the
        # side of 2.
        g = path_graph(4)
        assert is_AB_separator(g, {0}, {2}, {1, 3})
        assert not is_minimal_AB_separator(g, {0}, {2}, {1, 3})
        assert not is_minimal_AB_separator(g, {2}, {0}, {1, 3})
        # The claw without its center: B = {2, 3} lies in two components.
        assert is_AB_separator(claw(), {1}, {2, 3}, {0})
        assert not is_safe_AB_separator(claw(), {1}, {2, 3}, {0})
        # Nothing removed: A and B share the one component.
        assert not is_safe_AB_separator(path_graph(5), {0}, {4}, set())

    @settings(max_examples=300, deadline=None)
    @given(connected_graphs(min_n=3, max_n=9), st.data())
    def test_set_predicates_match_literal_definitions(self, g, data):
        A, B, S = draw_ab_query(g, data)
        assert is_AB_separator(g, A, B, S) == ab_separates(g, A, B, S)
        assert is_minimal_AB_separator(g, A, B, S) == is_minimal_ab_separator_brute(g, A, B, S)
        assert is_safe_AB_separator(g, A, B, S) == is_safe_ab_separator_brute(g, A, B, S)
        assert components(g, S) == components_brute(g, S)

    @settings(max_examples=200, deadline=None)
    @given(connected_graphs(min_n=3, max_n=9), st.data())
    def test_single_partition_validation_matches_the_two_predicates(self, g, data):
        A, B, S = draw_ab_query(g, data)
        expected = is_safe_AB_separator(g, A, B, S) and is_minimal_AB_separator(g, A, B, S)
        sides = component_with_boundary(g, S, min(A)), component_with_boundary(g, S, min(B))
        assert safe_minimal_sides(A, B, S, *sides) == expected

    def test_validation_refuses_each_condition_that_fails_alone(self):
        # Each query breaks one condition of safe_minimal_sides and keeps
        # the others, so dropping any one of them lets a query through.
        def validate(g, A, B, S):
            A, B, S = frozenset(A), frozenset(B), frozenset(S)
            sides = component_with_boundary(g, S, min(A)), component_with_boundary(g, S, min(B))
            return safe_minimal_sides(A, B, S, *sides)

        assert validate(path_graph(5), {0}, {4}, {2})
        # The claw without its center: A, then B, lies in two components.
        assert not validate(claw(), {1, 3}, {2}, {0})
        assert not validate(claw(), {1}, {2, 3}, {0})
        # Nothing removed: A and B share the one component.
        assert not validate(path_graph(3), {0}, {2}, set())
        # Path 0-1-2-3 without 1 and 3: 3 touches only the side of 2.
        assert not validate(path_graph(4), {2}, {0}, {1, 3})
        assert not validate(path_graph(4), {0}, {2}, {1, 3})

    def test_separator_overlapping_the_sets_is_rejected(self):
        g = path_graph(5)
        with pytest.raises(ValueError):
            is_AB_separator(g, {0, 1}, {4}, {1, 2})
        with pytest.raises(ValueError):
            is_safe_AB_separator(g, {0, 1}, {4}, {1, 2})
        # and the other refusals of their shared check, in each predicate
        for predicate in (is_AB_separator, is_minimal_AB_separator, is_safe_AB_separator):
            for A, B, S, message in (
                ({0, 1}, {4}, {1, 2}, "S must avoid A and B"),
                (set(), {4}, {2}, "A and B must be non-empty"),
                ({0}, set(), {2}, "A and B must be non-empty"),
                ({0, 2}, {2, 4}, {3}, "A and B must be disjoint"),
                ({0, 1}, {2}, {3}, "A and B must be non-adjacent"),
            ):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    predicate(g, A, B, S)


class TestCloseSeparator:
    def test_path_examples(self):
        g = path_graph(5)
        assert close_separator(g, (0,), 4) == frozenset({1})
        assert close_separator(g, (0, 1), 4) == frozenset({2})

    def test_cycle_example(self):
        assert close_separator(cycle_graph(4), (0,), 2) == frozenset({1, 3})

    def test_disconnected_terminal_gives_empty(self):
        g = induced_delete(path_graph(5), {2})
        assert close_separator(g, (0,), 4) == frozenset()

    def test_validation(self):
        g = path_graph(5)
        with pytest.raises(NoSeparatorError):
            close_separator(g, (3,), 4)  # X touches N[t]
        with pytest.raises(ValueError):
            close_separator(g, (0, 2), 4)  # g[X] disconnected
        with pytest.raises(ValueError):
            close_separator(g, (), 4)
        with pytest.raises(ValueError):
            close_separator(g, (9,), 4)

    @settings(max_examples=120, deadline=None)
    @given(graphs_with_terminals(min_n=4, max_n=8))
    def test_result_is_the_unique_minimal_separator_in_the_boundary(self, gst):
        g, s, t = gst
        if s in g.neighbors(t):
            return
        S = close_separator(g, (s,), t)
        assert S <= neighborhood(g, (s,))
        assert is_minimal_st_separator(g, s, t, S)
        inside = [
            T
            for T in enumerate_minimal_st_separators(g, s, t)
            if T <= neighborhood(g, (s,))
        ]
        assert inside == [S]


class TestCloseSide:
    @settings(max_examples=150, deadline=None)
    @given(graphs_with_terminals(min_n=4, max_n=9), st.data())
    def test_anchor_set_reads_like_a_joined_source(self, gst, data):
        # For any X around s, connected or not, the close side of X in g is
        # the close side of s in the graph with s joined to N[X] - {s}.
        g, s, t = gst
        pool = sorted(set(g.vertices) - {s, t})
        X = {s} | data.draw(st.sets(st.sampled_from(pool), max_size=4))
        closed_x = closed_neighborhood(g, X)
        if t in closed_x:
            assert close_side(g, frozenset(X), t) is None
            return
        joined = WeightedGraph(g.n, [*g.edges(), *((s, z) for z in closed_x - g.neighbors(s) - {s})])
        c_t = reachable(joined, t, joined.neighbors(s))
        boundary = frozenset(y for c in c_t for y in joined.neighbors(c)) - c_t
        assert close_side(g, frozenset(X), t) == (c_t, boundary)


class TestNearSearch:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(connected_graphs(min_n=4, max_n=14), atfree_graphs(max_n=14)), st.data())
    def test_matches_the_walk_of_the_far_side(self, g, data):
        # The search finds the separator of the far-side walk of close_side,
        # for connected and disconnected X and an excluded set E that can
        # split G - E into pieces; for X = {s} its near side is C_s(G - E - S),
        # and every vertex outside E and N[X] is classified as that walk's.
        # Over all of this the search reads no vertex's neighbors twice.
        verts = sorted(g.vertices)
        t = data.draw(st.sampled_from(verts))
        X = data.draw(st.sets(st.sampled_from([v for v in verts if v != t]), min_size=1, max_size=4))
        pool = [v for v in verts if v != t and v not in X]
        E = data.draw(st.sets(st.sampled_from(pool), max_size=4)) if pool else set()
        X, E = frozenset(X), frozenset(E)
        reference = close_side(g, X, t, E)
        closed = E | closed_neighborhood(g, X)
        order = data.draw(st.permutations([v for v in verts if v not in closed]))
        if len(X) == 1:
            (s,) = X
            near = side_with_boundary(g, s, E | (reference[1] - E)) if reference else None
        pockets = {u: side_with_boundary(g, u, closed) for u in order}
        reads = count_reads(g)
        search = near_search(g, X, t, E)
        if reference is None:
            assert search is None
            return
        c_t, boundary = reference
        assert search.separator == boundary - E
        if len(X) == 1:
            assert search.near_side() == near
        for u in order:
            assert search.reaches_t(u) == (u in c_t)
            if u not in c_t:
                assert search.pockets[u] == pockets[u]
        assert max(reads.values()) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(connected_graphs(min_n=4, max_n=14), atfree_graphs(max_n=14)), st.data())
    def test_dead_vertices_are_classified_without_a_walk(self, g, data):
        # The pockets of the search for a vertex x of X stay cut off from t
        # in G - E - N[X].  Handed over as dead, they leave the separator and
        # every classification unchanged, and the search reads none of them
        # outside N[X].
        verts = sorted(g.vertices)
        t = data.draw(st.sampled_from(verts))
        X = data.draw(st.sets(st.sampled_from([v for v in verts if v != t]), min_size=1, max_size=4))
        pool = [v for v in verts if v != t and v not in X]
        E = data.draw(st.sets(st.sampled_from(pool), max_size=4)) if pool else set()
        X, E = frozenset(X), frozenset(E)
        first = near_search(g, {min(X)}, t, E)
        if first is not None:
            for u in set(verts) - E - closed_neighborhood(g, {min(X)}):
                first.reaches_t(u)
        dead = first.pockets if first is not None else {}
        reference = close_side(g, X, t, E)
        closed = E | closed_neighborhood(g, X)
        read = count_reads(g)
        search = near_search(g, X, t, E, dead=dead)
        if reference is None:
            assert search is None
            return
        assert search.separator == reference[1] - E
        for u in sorted(set(verts) - closed):
            assert search.reaches_t(u) == (u in reference[0])
        assert read.keys().isdisjoint(set(dead) - closed)

    def test_near_side_with_a_pocket_reached_from_two_border_vertices(self):
        # s = 0 has the border {1, 2, 5}.  The pocket {3, 4} hangs off both 1
        # (through 3) and 2 (through 4); 5 leads on to t = 7 by 6.
        g = WeightedGraph(8, [(0, 1), (0, 2), (0, 5), (1, 3), (2, 4), (3, 4), (5, 6), (6, 7)])
        search = near_search(g, (0,), 7)
        assert search.separator == {5}
        assert search.pockets[3] is search.pockets[4]
        assert search.near_side() == component_with_boundary(g, search.separator, 0)
        assert search.near_side() == (frozenset({0, 1, 2, 3, 4}), frozenset({5}))


class TestComponentOrder:
    """The pair loop orders minimal separators by their source components
    through the cheaper test S <= T | C_s(G-T)."""

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_terminals(min_n=3, max_n=8))
    def test_matches_direct_component_comparison(self, gst):
        g, s, t = gst
        seps = enumerate_minimal_st_separators(g, s, t)
        for S in seps:
            for T in seps:
                c_s_T = component_of(g, T, s)
                assert (S <= T | c_s_T) == (component_of(g, S, s) <= c_s_T)
