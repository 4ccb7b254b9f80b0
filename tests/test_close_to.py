"""Close-family computation and its structural guarantees."""

import random
from itertools import count

import pytest

from safesep import (
    InternalConsistencyError,
    WeightedGraph,
    close_to,
    closed_neighborhood,
    component_of,
    gen_atfree_rejection,
    gen_interval,
    is_minimal_st_separator,
    minimal_separators,
    neighborhood,
)
from safesep.close_to import CloseToRun, close_to_run, nested_component_meet
from safesep.oracle import close_family_bound_check, close_family_brute

from .brutes import asteroidal_triple_brute, count_reads, cycle_graph, path_graph, random_weighted_graph
from .sweep import candidate_run, close_to_module, unproven


def fan_gadget(k, body_n, k_b):
    """The benchmark's fan gadget on a path body, as (g, s, a, t, b).  s = 0
    and a = 1 are joined to a clique of k middles, each middle to its own
    exit, and the exits, a clique, to the first body vertex.  The far side
    mirrors this at the last body vertex with k_b middles, for t and b; with
    k_b = 0 it is t alone, joined to the last body vertex, and b is None.
    Close to {s, a}, each middle is an anchor vertex."""
    edges = []
    fresh = count()

    def fan(hub, other, size, end):
        mids = [next(fresh) for _ in range(size)]
        exits = [next(fresh) for _ in range(size)]
        for i, (m, x) in enumerate(zip(mids, exits)):
            edges.extend([(hub, m), (other, m), (m, x), (x, end)])
            edges.extend((m, y) for y in mids[i + 1:])
            edges.extend((x, y) for y in exits[i + 1:])

    s, a = next(fresh), next(fresh)
    body = [next(fresh) for _ in range(body_n)]
    edges.extend(zip(body, body[1:]))
    fan(s, a, k, body[0])
    t, b = next(fresh), (next(fresh) if k_b else None)
    if k_b:
        fan(t, b, k_b, body[-1])
    else:
        edges.append((body[-1], t))
    return WeightedGraph(next(fresh), edges), s, a, t, b


class TestFrozenFamilies:
    def test_path_with_no_attached_set(self):
        assert close_to(path_graph(5), 0, 4, set()) == (frozenset({1}),)

    def test_path_with_interior_vertex_attached(self):
        assert close_to(path_graph(5), 0, 4, {2}) == (frozenset({3}),)

    def test_cycle_where_the_set_cannot_stay_with_the_source(self):
        # the only minimal 0,2-separator of C4 is {1,3}, which strands 1
        assert close_to(cycle_graph(4), 0, 2, {1}) == ()
        assert close_to(cycle_graph(4), 0, 2, set()) == (frozenset({1, 3}),)

    def test_adjacent_terminals_have_no_family(self):
        assert close_to(path_graph(3), 0, 1, set()) == ()

    def test_disconnected_terminals_have_the_empty_separator(self):
        g = WeightedGraph(4, [(0, 1), (2, 3)])
        assert close_to(g, 0, 3, {1}) == (frozenset(),)
        assert close_to(g, 0, 3, {2}) == ()

    def test_target_beyond_the_first_boundary(self):
        # With A = {2, 4}, the close separator {3, 5} of the anchor set
        # {1, 2, 4} strands 4 from s; the true family member {5, 6} appears
        # once that anchor set is searched again with one of the separator's
        # vertices at a time (here 3).
        g = WeightedGraph(
            10,
            [
                (0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6), (4, 5),
                (5, 6), (5, 7), (6, 7), (6, 8), (6, 9), (7, 8), (7, 9),
                (8, 9),
            ],
        )
        assert close_to(g, 1, 9, {2, 4}) == (frozenset({5, 6}),)
        assert close_family_brute(g, 1, 9, {2, 4}) == (frozenset({5, 6}),)

    def test_validation(self):
        g = path_graph(5)
        with pytest.raises(ValueError):
            close_to(g, 0, 0, set())
        with pytest.raises(ValueError):
            close_to(g, 0, 4, {0})
        with pytest.raises(ValueError):
            close_to(g, 0, 4, {11})
        with pytest.raises(ValueError, match="A must avoid"):
            close_to(g, 0, 4, {4})
        # verified mode refuses a graph with an asteroidal triple
        with pytest.raises(ValueError):
            close_to(cycle_graph(6), 0, 3, set(), verified=True)

    def test_close_to_and_its_oracle_refuse_alike(self):
        # Both run the one check of a terminal pair and the set that must
        # avoid it, which names the set it checks.
        g = path_graph(5)
        for s, t, A, message in (
            (0, 4, {0}, "^A must avoid the terminals$"),
            (0, 4, {2, 4}, "^A must avoid the terminals$"),
            (0, 4, {11}, "^A: 11 is not an active vertex$"),
            (0, 0, (), "^terminals must be distinct$"),
            (0, 5, (), "^terminal: 5 is not an active vertex$"),
        ):
            for family in (close_to, close_family_brute):
                with pytest.raises(ValueError, match=message):
                    family(g, s, t, A)
        with pytest.raises(ValueError, match="^S must avoid the terminals$"):
            is_minimal_st_separator(g, 0, 4, {0, 2})


    def test_refuses_vertex_ids_that_are_not_ints(self):
        g = path_graph(5)
        for s, t in ((True, 3), (0, 3.0), ("0", 3)):
            with pytest.raises(ValueError, match="not an active vertex"):
                close_to(g, s, t, ())
        for A in ({True}, {2.0}, {None}, {99}):
            for family in (close_to, close_family_brute):
                with pytest.raises(ValueError, match="not an active vertex"):
                    family(g, 0, 4, A)


class TestRunDetails:
    def test_family_members_come_from_the_candidate_pool(self):
        g = gen_interval(12, wmax=5, seed=3)
        run, candidates = candidate_run(g, 0, 11, {5})
        assert set(run.family) <= set(candidates)

    def test_sides_are_the_two_full_components_of_each_member(self):
        # A run hands on the s-side of each member; the t-side it proved full
        # without walking it is full as well.
        g = gen_interval(30, wmax=5, seed=7)
        run = close_to_run(g, 0, 29, {3, 4})
        assert run.family
        assert run.sides == tuple(component_of(g, S, 0) for S in run.family)
        for S in run.family:
            assert neighborhood(g, component_of(g, S, 0)) == S
            assert neighborhood(g, component_of(g, S, 29)) == S

    def test_gate_stops_queries_whose_set_lies_beyond_t(self):
        # sA = {0, 6} avoids N[3] = {2, 3, 4}, but 6 lies beyond t, outside
        # C_s(G - N(t)) = {0, 1}: the gate answers before any close
        # separator is searched for.
        g = path_graph(7)
        assert close_to_run(g, 0, 3, {6}) == CloseToRun(family=(), sides=(), path=frozenset({"gate"}))
        assert close_family_brute(g, 0, 3, {6}) == ()

    def test_each_set_is_walked_once(self, monkeypatch):
        # A run that takes the closest-to-s shortcut, and one that makes a
        # single anchor pass at s: the gate, the separator closest to s, the
        # anchor pass and the filter share their walks instead of repeating
        # them.  Spies sit in the namespaces of the callers, so a walk that
        # graph_core builds from another is seen once; the gate's early-exit
        # walk returns no set and is not recorded.  The near side that the
        # search reads off its own walks counts as a walk of that side.
        g = gen_interval(30, wmax=5, seed=7)
        walks = []

        def spy(fn, sets_of):
            def recording(*args):
                result = fn(*args)
                walks.extend(sets_of(result))
                return result
            return recording

        returned = {
            "component_of": lambda C: [C],
            "component_with_boundary": lambda side: [side[0]],
        }
        for module in (close_to_module, minimal_separators):
            for name, sets_of in returned.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(getattr(module, name), sets_of))
        near_side = minimal_separators.NearSearch.near_side
        monkeypatch.setattr(minimal_separators.NearSearch, "near_side", spy(near_side, lambda side: [side[0]]))
        for A, path in (({4}, "shortcut"), ({3, 4}, "anchor at s")):
            walks.clear()
            run = close_to_run(g, 0, 29, A)
            assert len(run.family) == 1 and run.path == {path}
            assert walks
            assert len(set(walks)) == len(walks)

    def test_a_near_separator_leaves_the_far_side_unwalked(self):
        # On a 200-vertex path with s = 20 and t = 22, G' = G - {21} leaves t
        # unreachable: the run must read that off s's side of 21 vertices,
        # not walk the 178 vertices beyond t.
        g = path_graph(200)
        touched = count_reads(g)
        run = close_to_run(g, 20, 22, set())
        assert run.family == (frozenset({21}),)
        assert run.sides == (frozenset(range(21)),)
        assert len(touched) <= 30

    def test_anchors_share_one_walk_of_the_far_side(self):
        # A fan of three middles on a 60-vertex path body has three anchor
        # vertices.  The body is walked by the search for the separator
        # closest to s and by the one walk that seeds all anchor searches,
        # not once more per anchor.
        g, s, a, t, _ = fan_gadget(3, 60, 0)
        body = range(2, 62)
        reads = count_reads(g)
        run = close_to_run(g, s, t, {a})
        mids, exits = range(62, 65), range(65, 68)
        assert set(run.family) == {frozenset(mids) - {m} | {x} for m, x in zip(mids, exits)}
        assert max(reads[v] for v in body) <= 2

    @pytest.mark.parametrize("case", ["fan with a tail on a", "interval"])
    def test_anchor_passes_read_no_vertex_the_search_for_s_walked(self, monkeypatch, case):
        # The search for X = {s} walks C_s(G' - T_s) and the pockets of
        # G' - N[s].  Every later search's X holds s: it is handed those
        # pockets as dead, and each anchor's s-side grows from what the
        # search for s walked, so once the first anchor search starts no
        # vertex of either is read outside the closed neighborhoods of the
        # later anchor sets.  In the fan, the tail hanging off a is such a
        # pocket; in the interval query, the side of s away from t.
        if case == "interval":
            g, s, t, A = gen_interval(60, wmax=5, seed=6), 22, 5, {20, 26}
        else:
            g, s, a, t, _ = fan_gadget(3, 20, 0)
            tail = range(g.n, g.n + 15)
            g, A = WeightedGraph(g.n + 15, [*g.edges(), *zip([a, *tail], tail)]), {a}
        searched, searches = [], []  # X and result of each search

        def recording(g, X, *args, **kwargs):
            searched.append(frozenset(X))
            if len(searched) == 2:
                read.clear()  # count from the second search on
            searches.append(minimal_separators.near_search(g, X, *args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(close_to_module, "near_search", recording)
        read = count_reads(g)
        run = close_to_run(g, s, t, A)
        g._adj = tuple(g._adj)  # the checks below are not counted
        assert len(searched) > 1 and run.family
        assert run.sides == tuple(component_of(g, S, s) for S in run.family)
        for S, side in zip(run.family, run.sides):
            assert is_minimal_st_separator(g, s, t, S) and A <= side
        first = searches[0]
        walked = set(first.pockets) | first.near_side()[0]
        closed = set().union(*(closed_neighborhood(g, X) for X in searched[1:]))
        assert len(walked - closed) >= 15
        assert read.keys().isdisjoint(walked - closed)

    @pytest.mark.parametrize("case", ["path hung on s", "interval"])
    def test_contraction_searches_read_none_of_the_settled_side(self, monkeypatch, case):
        # The anchor pass at X settles c_s_1 = C_s(G' - S_1) and strands
        # part of A, so each vertex w of S_1 anchors a search at X | {w},
        # which holds s but not c_s_1.  Outside N[X | {w}], c_s_1 holds here
        # only pockets of the search for s, which are dead in those
        # searches, and none of them is read: the 39 far vertices of a path
        # hung on s, or the side of s away from t.
        if case == "interval":
            g, s, t, A = gen_interval(78, wmax=5, seed=59), 43, 67, {48}
        else:
            g = WeightedGraph(7, [(0, 3), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
            tail = range(7, 47)
            g, s, t, A = WeightedGraph(47, [*g.edges(), *zip([0, *tail], tail)]), 0, 1, {2}
        searched = []  # (X, the vertices read) of each search

        def recording(g, X, *args, **kwargs):
            read.clear()
            found = minimal_separators.near_search(g, X, *args, **kwargs)
            searched.append((frozenset(X), set(read)))
            return found

        monkeypatch.setattr(close_to_module, "near_search", recording)
        read = count_reads(g)
        run = close_to_run(g, s, t, A)
        g._adj = tuple(g._adj)  # the checks below are not counted
        assert run.path == {"anchor at s", "contraction"} and run.family
        for S, side in zip(run.family, run.sides):
            assert is_minimal_st_separator(g, s, t, S) and A <= side == component_of(g, S, s)
        (_, _), (X, _), *contraction = searched
        L = neighborhood(g, A | {s}) & neighborhood(g, {t})
        S_1 = minimal_separators.near_search(g, X, t, L).separator
        c_s_1 = component_of(g, S_1 | L, s)
        assert not A <= c_s_1 and len(contraction) == len(S_1)
        for X_w, reads in contraction:
            unread = c_s_1 - closed_neighborhood(g, X_w)
            assert len(unread) >= 30
            assert reads.isdisjoint(unread)

    def test_members_are_minimal_and_keep_a_on_the_source_side(self):
        for seed in range(40):
            rng = random.Random(f"details:{seed}")
            g = gen_atfree_rejection(rng.randint(5, 10), wmax=4, seed=seed)
            verts = sorted(g.vertices)
            s, t = rng.sample(verts, 2)
            pool = [v for v in verts if v not in (s, t)]
            A = frozenset(rng.sample(pool, min(2, len(pool))))
            sides = []
            for S in close_to(g, s, t, A):
                assert is_minimal_st_separator(g, s, t, S)
                side = component_of(g, S, s)
                assert A <= side
                sides.append(side)
            # closest members are incomparable: no side strictly inside another
            for i, x in enumerate(sides):
                for j, y in enumerate(sides):
                    assert i == j or not x < y


class TestAgainstBruteForce:
    def test_matches_definition_on_random_instances(self):
        for seed in range(150):
            rng = random.Random(f"close-unit:{seed}")
            n = rng.randint(4, 10)
            g = (
                gen_interval(n, wmax=6, seed=seed)
                if seed % 2 == 0
                else gen_atfree_rejection(n, wmax=6, seed=seed)
            )
            verts = sorted(g.vertices)
            s, t = rng.sample(verts, 2)
            pool = [v for v in verts if v not in (s, t)]
            A = frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
            assert close_to(g, s, t, A, verified=True) == close_family_brute(g, s, t, A), (
                f"seed={seed} s={s} t={t} A={sorted(A)}"
            )

    @pytest.mark.parametrize(
        "g, s, t, A, raw",
        [
            (gen_interval(12, wmax=5, seed=1956), 6, 2, {4}, [{0}]),
            (gen_interval(11, wmax=5, seed=12261), 1, 10, {4, 5}, [{6}]),
            (gen_atfree_rejection(10, wmax=5, seed=11230), 4, 6, {1}, [{3, 5, 7, 9}, {8}]),
            (gen_atfree_rejection(10, wmax=5, seed=18112), 0, 6, {3}, [{1, 2, 5, 9}]),
            (gen_atfree_rejection(11, wmax=5, seed=21375), 6, 0, {1}, [{2, 3, 10}, {3, 7, 10}]),
            (WeightedGraph(7, [(0, 3), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (4, 6), (5, 6)]), 0, 1, {2},
             [{4}, {5, 6}]),
        ],
    )
    def test_contraction_branch_matches_definition(self, g, s, t, A, raw):
        # Each query leaves part of its anchor set X stranded by the first
        # anchor pass, so close_to_run drops that pass's separator, which
        # strands A, and reads off one candidate at each of its boundary
        # vertices w, anchored at X | {w}.  Anchored at s and w alone,
        # without A, the fifth query would find {1, 3, 5, 9, 10} in place of
        # its member {2, 3, 10}, and the last {2, 6}, which strands A, in
        # place of its member {5, 6}.
        assert close_to(g, s, t, A, verified=True) == close_family_brute(g, s, t, A)
        run, candidates = candidate_run(g, s, t, A)
        assert "contraction" in run.path and candidates == tuple(frozenset(S) for S in raw)


    @pytest.mark.parametrize(
        "k, body_n, k_b", [(2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 4, 2), (3, 1, 0), (3, 4, 0), (3, 7, 0)]
    )
    def test_fan_gadgets_share_one_walk_among_their_anchors(self, monkeypatch, k, body_n, k_b):
        # Each run close to a fan of k > 1 middles has k anchor vertices, so
        # one walk of t's side seeds every anchor search, and each is handed
        # the pocket {a} (or {b}) of the search for s as dead.
        g, s, a, t, b = fan_gadget(k, body_n, k_b)
        seeded = []

        def recording(g, X, t, excluded=frozenset(), known=frozenset(), dead=frozenset()):
            seeded.append(bool(known))
            assert bool(known) == (len(X) > 1) == (set(A) <= set(dead))
            return minimal_separators.near_search(g, X, t, excluded, known, dead)

        monkeypatch.setattr(close_to_module, "near_search", recording)
        runs = [(s, t, {a})] + ([(t, s, {b})] if k_b else [])
        for x, y, A in runs:
            seeded.clear()
            family = close_to(g, x, y, A, verified=True)
            assert family == close_family_brute(g, x, y, A)
            assert len(family) == k if x == s else k_b
            assert seeded.count(True) == (k if x == s else k_b)


    @pytest.mark.parametrize(
        "edges, s, t, A, family",
        [
            ([(0, 3), (1, 3), (1, 4), (2, 5), (2, 6), (3, 6), (4, 5), (4, 6), (5, 6)], 0, 2, {1}, [{4, 6}]),
            ([(0, 3), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (4, 6), (5, 6)], 0, 1, {2}, [{5, 6}]),
            ([(0, 4), (1, 2), (1, 5), (2, 6), (3, 4), (3, 5), (4, 6), (5, 6)], 0, 2, {3}, [{5, 6}]),
            ([(0, 5), (1, 6), (2, 3), (2, 5), (3, 6), (4, 5), (4, 6)], 0, 1, {2}, [{3, 4}]),
            ([(0, 5), (1, 6), (2, 3), (2, 5), (3, 6), (4, 5), (4, 6)], 1, 0, {3}, [{2, 4}]),
        ],
    )
    def test_the_member_that_only_the_rest_anchor_finds(self, edges, s, t, A, family):
        # Seven-vertex AT-free queries from the corpus whose one member comes
        # from the contraction branch's anchor X | {w} alone: anchored at
        # {s, v, w} instead, without A, each run keeps a wrong separator.
        g = WeightedGraph(7, edges)
        family = tuple(frozenset(S) for S in family)
        assert close_to(g, s, t, A, verified=True) == family == close_family_brute(g, s, t, A)

    @pytest.mark.parametrize(
        "n, edges, s, t, A, family",
        [
            (12, [(0, 4), (0, 5), (0, 7), (0, 8), (0, 10), (1, 3), (1, 6), (1, 7), (2, 3), (2, 4), (2, 9),
                  (2, 10), (3, 9), (4, 9), (4, 10), (4, 11), (6, 7), (6, 9), (6, 10), (9, 10), (9, 11)],
             5, 6, {2}, [{3, 7, 9, 10}]),
            (11, [(0, 1), (0, 3), (0, 5), (0, 8), (0, 10), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 8),
                  (2, 9), (3, 4), (3, 7), (3, 8), (3, 10), (4, 5), (5, 8), (6, 9), (7, 8), (7, 9), (8, 10)],
             4, 10, {9}, [{0, 2, 3, 5, 7}]),
            (11, [(0, 2), (0, 3), (0, 5), (0, 8), (0, 10), (1, 2), (2, 9), (2, 10), (3, 8), (4, 6), (4, 7), (4, 9),
                  (5, 6), (5, 8), (5, 9), (9, 10)],
             6, 3, {1, 4, 7}, [{0, 5}]),
        ],
    )
    def test_graphs_with_an_asteroidal_triple_where_every_rest_anchor_counts(self, n, edges, s, t, A, family):
        # Fast mode on graphs outside the class.  In the first two queries
        # the member comes from a contraction anchor X | {w} whose part of A
        # does not hang together with the settled side and w; skipping such
        # anchors gave () and ({0, 3, 8},).  In the last, the anchor
        # X | {w} without s gives ({0, 8},).
        g = WeightedGraph(n, edges)
        assert asteroidal_triple_brute(g) is not None
        family = tuple(frozenset(S) for S in family)
        assert close_to(g, s, t, A) == family == close_family_brute(g, s, t, A)


class TestWhatTheFilterTrusts:
    def test_runs_on_unrestricted_graphs_keep_every_trusted_fact(self):
        # Construction alone proves that each raw candidate avoids s and t,
        # separates them and has a full t-side, and the close_to module's
        # lemma that its s-side is full once it holds A, so the filter tests
        # only A inside C_s and domination; on any graph, fast mode's members
        # are then minimal separators with A on the s-side, pairwise
        # non-dominated, unless the chain check raises.  The corpus stratum
        # checks the same facts on AT-free graphs (test_corpus.py).
        with_triple = 0
        for seed in range(4000):
            rng = random.Random(f"trusted:{seed}")
            g = random_weighted_graph(rng.randint(5, 11), rng, p=rng.choice((0.15, 0.25, 0.4)), wmax=1)
            s, t = rng.sample(g.vertices, 2)
            pool = [v for v in g.vertices if v not in (s, t)]
            A = frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
            rest = [v for v in pool if v not in A]
            R = frozenset(rng.sample(rest, rng.randint(0, min(2, len(rest)))))
            with_triple += asteroidal_triple_brute(g) is not None
            try:
                run, candidates = candidate_run(g, s, t, A, R)
            except InternalConsistencyError:
                continue
            assert unproven(g, s, t, A, R, run, candidates) == [], (seed, s, t, sorted(A), sorted(R))
        assert with_triple > 1500

    def test_a_boundary_vertex_that_touches_only_the_stranded_target(self):
        # The anchor pass at {1, 2} finds S_1 = {4, 5} and settles
        # c_s_1 = {1}, stranding 2, so S_1 is no candidate.  The boundary
        # vertex 4 touches 2 but not c_s_1, so its anchor {1, 2, 4} is not
        # connected; its candidate {3} has A inside C_s = {1, 2, 4, 5}, and
        # then the anchor lies in C_s as well, so N(C_s) = {3}, as the
        # module's lemma says.  The anchor {1, 2, 5} finds {3} too.
        g = WeightedGraph(6, [(0, 3), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
        A = frozenset({2})
        run, candidates = candidate_run(g, 1, 0, A)
        assert run.path == {"anchor at s", "contraction"}
        assert candidates == (frozenset({3}),)
        # No vertex is common to N(sA) and N(t), so the run searches in G.
        assert minimal_separators.near_search(g, {1, 2}, 0).separator == frozenset({4, 5})
        assert minimal_separators.near_search(g, {1, 2, 4}, 0).separator == frozenset({3})
        assert not g.has_edge(1, 4) and g.has_edge(2, 4)
        assert run.family == (frozenset({3}),) == close_family_brute(g, 1, 0, A)
        assert run.sides == (frozenset({1, 2, 4, 5}),)
        assert neighborhood(g, run.sides[0]) == frozenset({3})
        assert unproven(g, 1, 0, A, frozenset(), run, candidates) == []


class TestNestedComponentMeet:
    def hub_graph(self):
        # source 0 sees {1, 2, 3}; pocket {4} hangs off {1, 2} and pocket
        # {5} off all three, so the pocket neighborhoods form a chain
        return WeightedGraph(
            6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (1, 5), (2, 5), (3, 5)]
        )

    def test_meet_of_nested_neighborhoods(self):
        g = self.hub_graph()
        out = nested_component_meet(frozenset({1, 2, 3}), [neighborhood(g, {4}), neighborhood(g, {5})])
        assert out == frozenset({1, 2})

    def test_incomparable_neighborhoods_fail_verification(self):
        # two pockets attached to disjoint halves of the boundary: their
        # neighborhoods cannot form a chain
        g = WeightedGraph(
            7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 6), (4, 6)]
        )
        boundaries = [neighborhood(g, {5}), neighborhood(g, {6})]
        with pytest.raises(InternalConsistencyError):
            nested_component_meet(frozenset({1, 2, 3, 4}), boundaries)


class TestFamilyBounds:
    def test_bound_check_accepts_real_runs(self):
        g = gen_interval(10, wmax=3, seed=11)
        fam = close_to(g, 0, 9, {4})
        assert close_family_bound_check(g, 0, 9, {4}, fam)

    def test_bound_check_rejects_oversized_families(self):
        g = path_graph(4)
        fake = [frozenset({i}) for i in range(20)]
        assert not close_family_bound_check(g, 0, 3, {1}, fake)

    def test_bound_check_refuses_what_close_to_refuses(self):
        # Equal terminals, an A holding s and an A outside the graph.
        g = gen_interval(8, wmax=1, seed=3)
        for s, t, A, message in (
            (0, 0, {1}, "^terminals must be distinct$"),
            (0, 7, {0}, "^A must avoid the terminals$"),
            (0, 7, {99}, "^A: 99 is not an active vertex$"),
        ):
            for check in (lambda: close_to(g, s, t, A), lambda: close_family_bound_check(g, s, t, A, ())):
                with pytest.raises(ValueError, match=message):
                    check()
