"""Exhaustive oracles and seeded instance generators."""

import random

import pytest

from safesep import (
    SubsetCapError,
    WeightedGraph,
    closed_neighborhood,
    gen_atfree_rejection,
    gen_interval,
    is_at_free,
    is_connected,
    sample_terminals,
    subdivide,
)
from safesep.oracle import (
    close_family_brute,
    enumerate_minimal_st_separators,
    min_safe_brute,
    two_dcs_brute,
)
from tests.brutes import (
    claw,
    minimal_st_separators_by_deletion,
    path_graph,
    random_weighted_graph,
    two_dcs_partition_brute,
)


class TestEnumeration:
    def test_path(self):
        assert enumerate_minimal_st_separators(path_graph(5), 0, 4) == (
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        )

    def test_cycle_and_near_clique(self):
        c4 = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert enumerate_minimal_st_separators(c4, 0, 2) == (frozenset({1, 3}),)
        k4_minus = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
        assert enumerate_minimal_st_separators(k4_minus, 0, 2) == (frozenset({1, 3}),)

    def test_disconnected_pair_has_the_empty_separator(self):
        g = WeightedGraph(2)
        assert enumerate_minimal_st_separators(g, 0, 1) == (frozenset(),)

    def test_matches_deletion_minimality(self):
        for seed in range(40):
            rng = random.Random(f"enum:{seed}")
            g = random_weighted_graph(rng.randint(3, 8), rng, wmax=3)
            s, t = rng.sample(sorted(g.vertices), 2)
            assert set(enumerate_minimal_st_separators(g, s, t)) == (
                minimal_st_separators_by_deletion(g, s, t)
            )

    def test_cap_guards_the_scan(self):
        with pytest.raises(SubsetCapError):
            enumerate_minimal_st_separators(path_graph(20), 0, 19)

    def test_cap_is_configurable(self, monkeypatch):
        monkeypatch.setenv("SAFESEP_SUBSET_CAP", "4")
        with pytest.raises(SubsetCapError):
            enumerate_minimal_st_separators(path_graph(8), 0, 7)
        monkeypatch.setenv("SAFESEP_SUBSET_CAP", "18")
        assert enumerate_minimal_st_separators(path_graph(8), 0, 7)
        monkeypatch.setenv("SAFESEP_SUBSET_CAP", "many")
        with pytest.raises(ValueError):
            enumerate_minimal_st_separators(path_graph(8), 0, 7)


class TestCloseFamilyBrute:
    def test_terminal_overlap_rejected(self):
        with pytest.raises(ValueError):
            close_family_brute(path_graph(5), 0, 4, {0})

    def test_path_families(self):
        g = path_graph(5)
        assert close_family_brute(g, 0, 4, set()) == (frozenset({1}),)
        assert close_family_brute(g, 0, 4, {2}) == (frozenset({3}),)


class TestMinSafeBrute:
    def test_subdivided_claw(self):
        sub, _ = subdivide(claw())
        ans = min_safe_brute(sub, {1, 2}, {3})
        assert (ans.separator, ans.weight) == (frozenset({6}), 1)

    def test_none_when_a_side_must_split(self):
        assert not min_safe_brute(claw(), {1, 2}, {3}).exists


class TestTwoDisjointConnectedSubgraphs:
    def test_small_positives(self):
        assert two_dcs_brute(path_graph(3), {0}, {2})
        assert two_dcs_brute(claw(), {1, 2}, {3})
        assert two_dcs_brute(WeightedGraph(2, [(0, 1)]), {0}, {1})

    def test_blocked_by_a_vertex_in_the_middle(self):
        assert not two_dcs_brute(path_graph(3), {0, 2}, {1})

    def test_terminals_must_be_active_vertices(self):
        for A, B in (({0, 5}, {2}), ({0}, {2, 5})):
            with pytest.raises(ValueError, match="active"):
                two_dcs_brute(path_graph(3), A, B)

    def test_matches_partition_scan(self):
        for seed in range(60):
            rng = random.Random(f"dcs:{seed}")
            g = random_weighted_graph(rng.randint(3, 7), rng, p=0.2, wmax=1)
            verts = sorted(g.vertices)
            rng.shuffle(verts)
            ka = rng.randint(1, 2)
            kb = rng.randint(1, 2)
            A = frozenset(verts[:ka])
            B = frozenset(verts[ka:ka + kb])
            assert two_dcs_brute(g, A, B) == two_dcs_partition_brute(g, A, B), f"seed={seed}"


class TestGenerators:
    def test_interval_graphs_are_deterministic_connected_atfree(self):
        for seed in range(25):
            g1 = gen_interval(12, wmax=9, seed=seed)
            g2 = gen_interval(12, wmax=9, seed=seed)
            assert list(g1.edges()) == list(g2.edges())
            assert [g1.weight(v) for v in g1.vertices] == [g2.weight(v) for v in g2.vertices]
            assert is_connected(g1)
            assert is_at_free(g1)
            assert all(1 <= g1.weight(v) <= 9 for v in g1.vertices)

    def test_a_one_vertex_interval_graph_has_one_weighted_vertex(self):
        g = gen_interval(1, wmax=9, seed=4)
        assert g.vertex_count == 1 and g.edge_count == 0 and 1 <= g.weight(0) <= 9
        assert g == gen_interval(1, wmax=9, seed=4) and is_connected(g) and is_at_free(g)

    def test_interval_scales(self):
        g = gen_interval(2000, wmax=10, seed=0)
        assert g.vertex_count == 2000
        assert is_connected(g)

    def test_rejection_sampler(self):
        for seed in range(10):
            g = gen_atfree_rejection(9, wmax=4, seed=seed)
            assert is_connected(g) and is_at_free(g)
        with pytest.raises(ValueError):
            gen_atfree_rejection(13)

    @pytest.mark.parametrize(
        "gen, args, named",
        [(gen_interval, (2.5,), "n"), (gen_atfree_rejection, (4.5,), "n"), (gen_interval, (5, 2.5), "wmax"),
         (gen_interval, (True,), "n"), (gen_interval, (5, True), "wmax"), (gen_atfree_rejection, (5, True), "wmax"),
         (gen_interval, ("5",), "n")],
    )
    def test_sizes_that_are_not_integers_are_refused(self, gen, args, named):
        # Bools included: True would silently act as 1.
        with pytest.raises(ValueError, match=f"^{named} must be an integer"):
            gen(*args)


class TestTerminalSampling:
    def test_invariants(self):
        hits = 0
        for seed in range(60):
            rng = random.Random(f"terms:{seed}")
            g = gen_interval(rng.randint(6, 14), wmax=5, seed=seed)
            terms = sample_terminals(g, rng, max_size=3)
            if terms is None:
                continue
            A, B = terms
            hits += 1
            assert A and B
            assert len(A) <= 3 and len(B) <= 3
            assert not A & B
            assert not A & closed_neighborhood(g, B)
        assert hits >= 40

    def test_gives_up_on_hopeless_graphs(self):
        clique = WeightedGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert sample_terminals(clique, random.Random(0)) is None
