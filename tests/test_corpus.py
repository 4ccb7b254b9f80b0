"""The small-graph corpus of tests/corpus_atfree.txt, and its tier-1 stratum.

The stratum is every connected AT-free graph on at most six vertices (138
graphs): the close part of ``tests/sweep.py`` over all of them, and its safe
part with unit weights.  The close part also runs over the seven-vertex
graphs whose runs reach the contraction branch.  The other graphs on seven
vertices run in the full sweep (``python tests/sweep.py``) and through the
queries pinned in test_close_to.py.
"""

from collections import Counter

from .corpus import generate, load
from .sweep import PATHS, close_sweep, safe_sweep

STRATUM = 6
# The indices in load() of the 80 graphs on seven vertices with a run that
# reaches the contraction branch, found by sweeping every such graph.
CONTRACTION_GRAPHS = (
    149, 155, 160, 161, 184, 186, 193, 194, 203, 205, 206, 209, 210, 216, 242, 246, 247, 250, 252, 253,
    255, 256, 261, 262, 266, 267, 270, 305, 306, 311, 313, 315, 316, 322, 324, 325, 326, 327, 328, 329,
    330, 332, 337, 365, 406, 407, 409, 410, 412, 416, 420, 422, 423, 430, 431, 433, 434, 438, 442, 464,
    479, 528, 530, 531, 532, 534, 535, 536, 539, 540, 551, 555, 556, 680, 698, 699, 705, 708, 727, 764,
)


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
    # The stratum reaches the rare branches; its filter drops no candidate,
    # unlike on the seven-vertex graphs below.
    assert [counts[name] for name in ("several anchors", "contraction")] == [4, 7]
    assert [counts[name] for name in ("raw candidates", "A outside C_s", "dominated")] == [4442, 0, 0]


def test_close_families_match_the_oracle_where_seven_vertices_reach_the_contraction_branch():
    graphs = load()
    total = Counter()
    for i in CONTRACTION_GRAPHS:
        counts, bad = close_sweep([graphs[i]])
        assert bad == [] and graphs[i].n == 7 and counts["contraction"] > 0, i
        total.update(counts)
    assert total["calls"] == 87360 == sum(total[name] for name in PATHS[:5])
    assert [total[name] for name in ("several anchors", "contraction")] == [46, 251]
    assert [total[name] for name in ("raw candidates", "A outside C_s", "dominated")] == [12147, 5, 9]


def test_safe_separators_match_the_oracle_on_the_stratum():
    # Verified mode: the five-cycle and six graphs on six vertices have no
    # cocomparability ordering, so the fallback scan proves them AT-free;
    # and two close-family pairs fail to qualify.
    counts, bad = safe_sweep(load(STRATUM), "unit")
    assert bad == []
    assert counts["fallback scans"] > 0
    assert counts["pairs not qualifying"] > 0
