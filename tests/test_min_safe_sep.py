"""End-to-end minimum-weight safe separator computation."""

import random

import pytest

from safesep import (
    InternalConsistencyError,
    QueryInstance,
    SafeSeparatorAnswer,
    WeightedGraph,
    atfree,
    gen_atfree_rejection,
    gen_interval,
    is_at_free,
    is_minimal_AB_separator,
    is_safe_AB_separator,
    min_safe_separator,
    sample_terminals,
)
from safesep.min_safe_sep import build_contracted_instance
from safesep.oracle import min_safe_brute
from tests.brutes import random_weighted_graph


def path_graph(n, weights=None):
    return WeightedGraph(n, [(i, i + 1) for i in range(n - 1)], weights)


def claw():
    return WeightedGraph(4, [(0, 1), (0, 2), (0, 3)])


def broken_chain_query():
    """A graph with the asteroidal triple (0, 1, 9) on which the close-family
    chain breaks.  {1, 3} is a safe separator of weight 3."""
    edges = [
        (0, 4), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3),
        (3, 4), (3, 9), (4, 8), (5, 6), (5, 7), (6, 7), (6, 8), (7, 9),
    ]
    g = WeightedGraph(10, edges, [5, 2, 3, 1, 2, 2, 1, 5, 1, 3])
    return QueryInstance(g, {2}, {0, 8, 9})


class TestAnswerType:
    def test_exists(self):
        assert SafeSeparatorAnswer(frozenset({1}), 3).exists
        assert not SafeSeparatorAnswer.none().exists

    def test_query_validation(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            QueryInstance(g, frozenset(), frozenset({2}))
        with pytest.raises(ValueError):
            QueryInstance(g, frozenset({0}), frozenset({9}))
        with pytest.raises(ValueError):
            QueryInstance(path_graph(5), {0, 1}, {1, 4})


class TestFrozenAnswers:
    def test_path_lexicographic_tie_break(self):
        ans = min_safe_separator(QueryInstance(path_graph(5), {0}, {4}))
        assert (ans.separator, ans.weight) == (frozenset({1}), 1)

    def test_split_side_means_none(self):
        # removing the claw's center strands the two A-leaves separately
        ans = min_safe_separator(QueryInstance(claw(), {1, 2}, {3}))
        assert not ans.exists

    def test_weighted_cycle(self):
        g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1, 5, 1, 2])
        ans = min_safe_separator(QueryInstance(g, {0}, {2}))
        assert (ans.separator, ans.weight) == (frozenset({1, 3}), 7)

    def test_common_neighbors_are_forced(self):
        # 0 and 2 share the neighbor 1; it is in every safe separator
        ans = min_safe_separator(QueryInstance(path_graph(3, [1, 9, 1]), {0}, {2}))
        assert (ans.separator, ans.weight) == (frozenset({1}), 9)

    def test_terminal_sets_touching_means_none(self):
        ans = min_safe_separator(QueryInstance(path_graph(3), {0, 1}, {2}))
        assert not ans.exists

    def test_forced_vertices_alone_can_separate(self):
        # two triangles sharing vertex 2: removing the forced common
        # neighbor already splits the sides, so the answer is exactly it
        g = WeightedGraph(
            5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], [1, 1, 5, 1, 1]
        )
        ans = min_safe_separator(QueryInstance(g, {0, 1}, {3, 4}))
        assert (ans.separator, ans.weight) == (frozenset({2}), 5)

    def test_disconnected_graph_is_rejected(self):
        g = WeightedGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            min_safe_separator(QueryInstance(g, {0}, {1}))

    def test_verified_mode_rejects_asteroidal_triples(self):
        g = WeightedGraph(6, [(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(ValueError):
            min_safe_separator(QueryInstance(g, {0}, {3}), verified=True)
        with pytest.raises(ValueError):
            min_safe_separator(broken_chain_query(), verified=True)

    def test_fast_mode_reports_a_broken_chain(self):
        with pytest.raises(InternalConsistencyError):
            min_safe_separator(broken_chain_query())

    def test_verified_query_scans_the_input_graph_once(self, monkeypatch):
        scanned = []
        original = atfree.find_asteroidal_triple

        def counting(g):
            scanned.append(g)
            return original(g)

        monkeypatch.setattr(atfree, "find_asteroidal_triple", counting)
        g = path_graph(5)
        ans = min_safe_separator(QueryInstance(g, {0}, {4}), verified=True)
        assert (ans.separator, ans.weight) == (frozenset({1}), 1)
        assert scanned == [g]


class TestContractedInstance:
    def test_qualifying_pair(self):
        g = path_graph(5)
        h = build_contracted_instance(g, 0, 4, frozenset({1}), frozenset({3}))
        assert set(h.vertices) == {0, 1, 2, 3, 4}

    def test_folds_the_settled_sides(self):
        g = path_graph(5)
        h = build_contracted_instance(g, 0, 4, frozenset({2}), frozenset({2}))
        assert set(h.vertices) == {0, 2, 4}
        assert h.has_edge(0, 2) and h.has_edge(2, 4) and not h.has_edge(0, 4)


class TestAgainstBruteForce:
    def test_matches_exhaustive_answer_on_random_instances(self):
        # Two safe separators of weight 2 exist here, {0, 5} and {0, 6}; the
        # oracle picks the lexicographically smaller, the algorithm need not.
        tie = WeightedGraph(
            7,
            [(0, 2), (0, 3), (0, 5), (1, 2), (1, 6), (2, 4), (2, 6), (3, 5), (4, 6), (5, 6)],
        )
        cases = [("tie", tie, frozenset({1, 4}), frozenset({3}))]
        for seed in range(150):
            rng = random.Random(f"safe-unit:{seed}")
            n = rng.randint(4, 10)
            g = (
                gen_interval(n, wmax=8, seed=seed)
                if seed % 2 == 0
                else gen_atfree_rejection(n, wmax=8, seed=seed)
            )
            terms = sample_terminals(g, rng)
            if terms is not None:
                cases.append((f"seed={seed}", g, *terms))
        assert len(cases) >= 101
        for label, g, A, B in cases:
            fast = min_safe_separator(QueryInstance(g, A, B))
            brute = min_safe_brute(g, A, B)
            assert fast.exists == brute.exists, label
            if fast.exists:
                assert fast.weight == brute.weight, label
                assert is_safe_AB_separator(g, A, B, fast.separator)
                assert is_minimal_AB_separator(g, A, B, fast.separator)


def test_fast_mode_contract_on_graphs_with_asteroidal_triples():
    """Fast mode skips the AT-free scan, so on a graph with an asteroidal
    triple it may miss the answer, but it never returns a set that is not a
    safe minimal separator: each query ends in NONE, a validated separator or
    InternalConsistencyError."""
    outcomes = {"none": 0, "separator": 0, "inconsistent": 0}
    i = 0
    while sum(outcomes.values()) < 200:
        rng = random.Random(f"fast-contract:{i}")
        i += 1
        g = random_weighted_graph(rng.randint(6, 10), rng)
        if is_at_free(g):
            continue
        picked = sample_terminals(g, rng)
        if picked is None:
            continue
        A, B = picked
        try:
            ans = min_safe_separator(QueryInstance(g, A, B))
        except InternalConsistencyError:
            outcomes["inconsistent"] += 1
            continue
        if not ans.exists:
            outcomes["none"] += 1
            continue
        assert is_safe_AB_separator(g, A, B, ans.separator), (i, sorted(A), sorted(B))
        assert is_minimal_AB_separator(g, A, B, ans.separator), (i, sorted(A), sorted(B))
        assert ans.weight == g.weight_of(ans.separator)
        outcomes["separator"] += 1
    assert outcomes["separator"] > 0
