"""The small-graph corpus of tests/corpus_atfree.txt, and its tier-1 stratum.

The stratum is every connected AT-free graph on at most six vertices (138
graphs): the close part of ``tests/sweep.py`` over all of them, and its safe
part with unit weights.  The graphs on seven vertices run in the full sweep
(``python tests/sweep.py``) and through the queries pinned in
test_close_to.py.
"""

from .corpus import generate, load
from .sweep import PATHS, close_sweep, safe_sweep

STRATUM = 6


def test_the_generator_reproduces_the_graph_counts_and_the_fixture():
    # OEIS A000088 (all graphs) and A001349 (connected graphs).
    levels = generate(STRATUM, at_free=False)
    assert [len(levels[n][0]) for n in levels] == [1, 2, 4, 11, 34, 156]
    assert [len(levels[n][1]) for n in levels] == [1, 1, 2, 6, 21, 112]
    at_free = generate(STRATUM)
    stratum = load(STRATUM)
    assert [sorted(g.edges()) for g in stratum] == [list(e) for n in at_free for e in at_free[n][1]]
    sizes = [g.n for g in load()]
    assert [sizes.count(n) for n in range(1, 8)] == [1, 1, 2, 6, 21, 107, 725]


def test_close_families_match_the_oracle_on_the_stratum():
    # Every ordered (s, t) and every A of at most three other vertices; each
    # run also satisfies every fact the definitional filter trusts.
    counts, bad = close_sweep(load(STRATUM))
    assert bad == []
    assert counts["calls"] == 51824 == sum(counts[name] for name in PATHS[:5])
    # The stratum reaches the rare branches, and its filter drops candidates.
    assert [counts[name] for name in ("several anchors", "contraction", "rest")] == [4, 7, 7]
    assert [counts[name] for name in ("raw candidates", "A outside C_s", "dominated")] == [4449, 7, 0]


def test_safe_separators_match_the_oracle_on_the_stratum():
    # Verified mode: the five-cycle and six graphs on six vertices have no
    # cocomparability ordering, so the fallback scan proves them AT-free;
    # and two close-family pairs fail to qualify.
    counts, bad = safe_sweep(load(STRATUM), "unit")
    assert bad == []
    assert counts["fallback scans"] > 0
    assert counts["pairs not qualifying"] > 0
