"""End-to-end acceptance suite.

Each test here is one headline guarantee of the package, checked against the
independent oracles on seeded instance pools.  The pools are session fixtures
so the expensive sweeps run once and every test reads off the same corpus.
"""

import random
import time

import pytest

from safesep.atfree import find_asteroidal_triple, is_at_free
from safesep.close_to import close_to, close_to_run
from safesep.errors import NoSeparatorError
from safesep.graph_core import WeightedGraph, neighborhood, subdivide
from safesep.min_safe_sep import QueryInstance, min_safe_separator
from safesep.min_weight_separator import min_weight_st_separator
from safesep.minimal_separators import (
    close_separator,
    is_minimal_AB_separator,
    is_safe_AB_separator,
    is_st_separator,
)
from safesep.oracle import (
    close_family_bound_check,
    close_family_brute,
    enumerate_minimal_st_separators,
    gen_atfree_rejection,
    gen_interval,
    min_safe_brute,
    sample_terminals,
    two_dcs_brute,
)

from .brutes import (
    asteroidal_triple_brute,
    connected_within,
    max_disjoint_paths_brute,
    min_weight_separator_brute,
    random_weighted_graph,
    vertex_connectivity_st,
)

CORPUS_DRAWS = 560

# Random draws exercise the nested-component chain check only rarely (the
# close-family targets are usually empty), so these hand-collected seeds are
# appended to the corpus to keep that code path demonstrably live.  Each row
# is (generator family, n, seed, s, t, anchor vertices).
CHAIN_EXERCISING = (
    ("reject", 12, 10871, 1, 7, (3, 10)),
    ("reject", 11, 10873, 6, 4, (0, 2)),
    ("reject", 9, 11561, 8, 1, (3, 7)),
    ("reject", 8, 11617, 3, 0, (5,)),
    ("interval", 11, 12052, 9, 0, (6, 8)),
    ("reject", 11, 12241, 10, 5, (0, 1)),
    ("reject", 10, 12489, 0, 2, (1,)),
    ("reject", 9, 12657, 2, 5, (3,)),
    ("interval", 9, 12878, 3, 0, (4, 5, 7)),
    ("reject", 11, 13341, 10, 5, (2, 9)),
)


def _chain_instance(family, n, seed, s, t, anchors):
    gen = gen_interval if family == "interval" else gen_atfree_rejection
    return gen(n, wmax=10, seed=seed), s, t, frozenset(anchors), None


@pytest.fixture(scope="session")
def corpus():
    """Seeded instances: (graph, s, t, anchor set, optional (A, B) terminals).

    Both generator families contribute; sizes span 4..12 with weights in
    [1, 10].  The terminal pair is None when rejection sampling found no
    admissible disjoint non-adjacent pair for the graph.
    """
    pool = []
    for i in range(CORPUS_DRAWS):
        rng = random.Random(f"acceptance:{i}")
        n = rng.randint(4, 12)
        if i % 2 == 0:
            g = gen_interval(n, wmax=10, seed=i)
        else:
            g = gen_atfree_rejection(n, wmax=10, seed=i)
        verts = sorted(g.vertices)
        s, t = rng.sample(verts, 2)
        rest = [v for v in verts if v not in (s, t)]
        anchors = frozenset(rng.sample(rest, rng.randint(0, min(3, len(rest)))))
        pool.append((g, s, t, anchors, sample_terminals(g, rng)))
    pool.extend(_chain_instance(*row) for row in CHAIN_EXERCISING)
    return pool


@pytest.fixture(scope="session")
def close_runs(corpus):
    """One verified close-family computation per corpus instance, plus the
    number of chain checks the sweep ran: runs whose anchors came from the
    nested-component meet."""
    rows = [
        (g, s, t, anchors, close_to(g, s, t, anchors, verified=True))
        for g, s, t, anchors, _ in corpus
    ]
    chain_checks = sum("chain" in close_to_run(g, s, t, anchors).path for g, s, t, anchors, _ in corpus)
    return {"rows": rows, "chain_checks": chain_checks}


def test_min_safe_separator_matches_the_exhaustive_oracle(corpus):
    started = time.perf_counter()
    checked = 0
    for g, _, _, _, terminals in corpus:
        if terminals is None:
            continue
        A, B = terminals
        answer = min_safe_separator(QueryInstance(g, A, B), verified=True)
        expected = min_safe_brute(g, A, B)
        assert answer.exists == expected.exists, (sorted(A), sorted(B))
        assert answer.weight == expected.weight, (sorted(A), sorted(B))
        checked += 1
    assert checked >= 500
    assert time.perf_counter() - started < 300.0


def test_close_families_match_the_exhaustive_oracle(close_runs):
    compared = 0
    for g, s, t, anchors, family in close_runs["rows"]:
        assert family == close_family_brute(g, s, t, anchors), (s, t, sorted(anchors))
        compared += 1
    assert compared >= 500


def test_close_family_sizes_stay_within_the_stated_bounds(close_runs):
    for g, s, t, anchors, family in close_runs["rows"]:
        assert close_family_bound_check(g, s, t, anchors, family)


def test_connected_anchor_blocks_have_one_close_separator(close_runs):
    """When s and its anchors induce a connected block away from N[t], the
    block's close separator is the only minimal s,t-separator inside the
    block's neighborhood."""
    qualified = 0
    for g, s, t, anchors, _ in close_runs["rows"]:
        block = frozenset({s}) | anchors
        if not connected_within(g, block):
            continue
        if block & (neighborhood(g, frozenset({t})) | {t}):
            continue
        sep = close_separator(g, block, t)
        boundary = neighborhood(g, block)
        members = [
            S for S in enumerate_minimal_st_separators(g, s, t) if S <= boundary
        ]
        assert members == [sep], (s, t, sorted(block))
        qualified += 1
    assert qualified > 0


def test_min_weight_cuts_match_the_subset_oracle():
    for i in range(150):
        rng = random.Random(f"minw:{i}")
        g = random_weighted_graph(rng.randint(4, 12), rng)
        s, t = rng.sample(sorted(g.vertices), 2)
        expected = min_weight_separator_brute(g, s, t)
        if expected is None:
            with pytest.raises(NoSeparatorError):
                min_weight_st_separator(g, s, t)
            continue
        sep, weight = min_weight_st_separator(g, s, t)
        assert weight == expected[0], (i, s, t)
        assert is_st_separator(g, s, t, sep)
    # On unit weights the cut value counts internally-disjoint s,t-paths.
    for i in range(100):
        rng = random.Random(f"paths:{i}")
        g = random_weighted_graph(rng.randint(4, 9), rng, wmax=1)
        s, t = rng.sample(sorted(g.vertices), 2)
        if g.has_edge(s, t):
            continue
        assert vertex_connectivity_st(g, s, t) == max_disjoint_paths_brute(g, s, t)


def test_asteroidal_triple_recognition_matches_the_definition():
    for i in range(10_000):
        rng = random.Random(f"atscan:{i}")
        n = rng.randint(4, 8)
        p = rng.choice((0.15, 0.25, 0.35, 0.5, 0.65))
        g = random_weighted_graph(n, rng, p=p, wmax=1)
        assert is_at_free(g) == (asteroidal_triple_brute(g) is None), i
    hexagon = WeightedGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    witness = find_asteroidal_triple(hexagon)
    assert witness is not None
    assert witness.triple == (0, 2, 4)


def test_two_disjoint_connected_subgraphs_match_subdivision_safety():
    """Two vertex-disjoint connected subgraphs covering A and B exist exactly
    when the edge-subdivided graph has a safe A,B-separator."""
    checked = 0
    draw = 0
    while checked < 200:
        draw += 1
        assert draw < 1200, "instance pool exhausted before 200 sparse draws"
        rng = random.Random(f"dcs:{draw}")
        g = random_weighted_graph(rng.randint(4, 8), rng, p=0.12, wmax=1)
        verts = sorted(g.vertices)
        size_a = rng.randint(1, 2)
        size_b = rng.randint(1, 2)
        picked = rng.sample(verts, size_a + size_b)
        A, B = frozenset(picked[:size_a]), frozenset(picked[size_a:])
        m = sum(1 for _ in g.edges())
        if g.n + m - len(A) - len(B) > 16:
            continue  # keep the subdivided oracle scan feasible
        subdivided, _ = subdivide(g)
        assert two_dcs_brute(g, A, B) == min_safe_brute(subdivided, A, B).exists, (
            draw,
            sorted(A),
            sorted(B),
        )
        checked += 1


def test_nested_component_chain_check_is_live_and_never_fires(close_runs):
    """The close-family sweep asserts, at every nested-component meet, that
    the component neighborhoods form a chain.  A violation raises inside the
    fixture; here we confirm the check actually engaged."""
    assert close_runs["chain_checks"] > 0


def test_large_interval_instance_is_fast_and_validates():
    g = gen_interval(2000, wmax=10, seed=2)
    A = frozenset({172, 297, 727})
    B = frozenset({745, 1312, 1874})
    started = time.perf_counter()
    answer = min_safe_separator(QueryInstance(g, A, B), verified=False)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert answer.exists
    assert is_safe_AB_separator(g, A, B, answer.separator)
    assert is_minimal_AB_separator(g, A, B, answer.separator)
