"""End-to-end minimum-weight safe separator computation."""

import random
from collections import Counter

import pytest

from safesep import (
    AtWitness,
    InternalConsistencyError,
    QueryInstance,
    SafeSeparatorAnswer,
    WeightedGraph,
    atfree,
    closed_neighborhood,
    component_of,
    gen_atfree_rejection,
    gen_interval,
    graph_core,
    is_at_free,
    is_minimal_AB_separator,
    is_safe_AB_separator,
    min_safe_sep,
    min_safe_separator,
    min_weight_st_separator,
    neighborhood,
    sample_terminals,
)
from safesep.close_to import CloseToRun, close_to_run
from safesep.min_weight_separator import FlowNetwork
from safesep.oracle import min_safe_brute, two_dcs_brute
from tests.brutes import (
    claw,
    contract_connected_set,
    count_reads,
    induced_delete,
    path_graph,
    random_weighted_graph,
)
from tests.test_close_to import fan_gadget


def fan_query():
    """A hand-built fan gadget with k = 2, the shape of the benchmark's
    fan-pairs queries at its smallest.  A = {0, 1} is joined to the clique
    M = {2, 3}; each m_i has its exit x_i in the clique X = {4, 5}, and both
    exits are joined to the end 6 of the path body 6-7-8.  B = {13, 14},
    M' = {11, 12} and X' = {9, 10} mirror this at 8.  The close families are
    {2, 5}, {3, 4} and {9, 12}, {10, 11}, and all four pairs qualify."""
    edges = [(6, 7), (7, 8)]
    sides = ((0, 1, (2, 3), (4, 5), 6), (13, 14, (11, 12), (9, 10), 8))
    for hub, other, mids, exits, anchor in sides:
        for m, x in zip(mids, exits):
            edges += [(hub, m), (other, m), (m, x), (x, anchor)]
        edges += [mids, exits]
    weights = [1, 1, 1, 4, 2, 6, 9, 9, 9, 5, 5, 1, 7, 1, 1]
    return QueryInstance(WeightedGraph(15, edges, weights), {0, 1}, {13, 14})


def broken_chain_query():
    """A graph with the asteroidal triple (0, 1, 9) on which the close-family
    chain breaks.  {1, 3} is a safe separator of weight 3."""
    edges = [
        (0, 4), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3),
        (3, 4), (3, 9), (4, 8), (5, 6), (5, 7), (6, 7), (6, 8), (7, 9),
    ]
    g = WeightedGraph(10, edges, [5, 2, 3, 1, 2, 2, 1, 5, 1, 3])
    return QueryInstance(g, {2}, {0, 8, 9})


def medium_queries():
    """Ten seeded queries on interval graphs of 200 to 400 vertices, with A
    and B drawn from two short windows a little apart."""
    for seed in range(10):
        rng = random.Random(f"pinned:{seed}")
        n = rng.choice((200, 300, 400))
        g = gen_interval(n, wmax=rng.choice((1, 2, 9)), seed=seed)
        while True:
            p = rng.randrange(n // 5, n // 2)
            A = frozenset(rng.sample(range(p, p + 8), rng.randint(1, 3)))
            q = p + rng.randint(15, 60)
            B = frozenset(rng.sample(range(q, q + 8), rng.randint(1, 3)))
            if not A & closed_neighborhood(g, B):
                break
        yield QueryInstance(g, A, B)


# (A, B, separator, weight) of each medium query, then of fan_query().  Unit
# and small weights leave many minimum-weight safe separators, so these pin
# the tie-break.
PINNED = (
    ({97, 100}, {130, 132, 137}, {128}, 2),
    ({90}, {107, 109}, {97}, 2),
    ({197, 198}, {241}, {232, 234}, 6),
    ({43}, {65, 68, 70}, {62}, 3),
    ({130, 133, 135}, {172, 176, 179}, {134}, 1),
    ({147, 148, 153}, {203}, {189, 190}, 5),
    ({190}, {210}, {199}, 1),
    ({168, 171, 172}, {212, 214, 217}, {174, 175}, 2),
    ({99}, {154, 156}, {107}, 2),
    ({55, 56, 59}, {87, 89, 91}, {68}, 1),
    ({0, 1}, {13, 14}, {3, 4}, 6),
)


class TestAnswerType:
    def test_exists(self):
        assert SafeSeparatorAnswer(frozenset({1}), 3).exists
        assert not SafeSeparatorAnswer.none().exists
        assert SafeSeparatorAnswer() == SafeSeparatorAnswer.none()

    def test_query_validation(self):
        # Every way of building a query runs its check.
        g = path_graph(3)
        q = QueryInstance(g, {0}, {2})
        builds = (
            lambda A, B: QueryInstance(g, A, B),
            lambda A, B: QueryInstance(graph=g, A=A, B=B),
            lambda A, B: QueryInstance._make((g, A, B)),
            lambda A, B: q._replace(A=A, B=B),
        )
        bad = (
            ((), {2}, "non-empty"),
            ({0}, (), "non-empty"),
            ({0, 1}, {1, 2}, "disjoint"),
            ({0}, {9}, "^B: 9 is not an active vertex$"),
            ([[0]], {2}, "^A: .* is not a set of active vertices$"),
        )
        for build in builds:
            built = build([0], (2,))
            assert built == q and type(built.A) is type(built.B) is frozenset
            for A, B, message in bad:
                with pytest.raises(ValueError, match=message):
                    build(A, B)
        for oracle in (min_safe_brute, two_dcs_brute):
            with pytest.raises(ValueError, match="disjoint"):
                oracle(path_graph(5), {0, 1}, {1, 4})

    def test_query_refusals_are_worded_as_the_separator_predicates_word_them(self):
        # QueryInstance and the A,B-separator predicates share one check of
        # the sides, so each refusal reads the same from both.
        g = path_graph(5)
        for A, B, message in (
            ((), {4}, "^A and B must be non-empty$"),
            ({0}, set(), "^A and B must be non-empty$"),
            ({0, 2}, {2, 4}, "^A and B must be disjoint$"),
            ({0}, {9}, "^B: 9 is not an active vertex$"),
        ):
            for build in (lambda: QueryInstance(g, A, B), lambda: is_safe_AB_separator(g, A, B, ())):
                with pytest.raises(ValueError, match=message):
                    build()

    def test_records_are_immutable_and_equal_by_fields(self):
        g = path_graph(3)
        records = (
            QueryInstance(g, {0}, {2}),
            SafeSeparatorAnswer(frozenset({1}), 1),
            CloseToRun((frozenset({1}),), (frozenset({0}),), frozenset({"shortcut"})),
            AtWitness(0, 2, 4, (0, 1, 2), (0, 5, 4), (2, 3, 4)),
        )
        for record in records:
            assert record == type(record)(**record._asdict())
            for field in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, field, None)
        assert records[2].path == {"shortcut"} and records[3].triple == (0, 2, 4)

    def test_query_rejects_vertex_ids_that_are_not_integers(self):
        g = path_graph(3)
        for A, B in (({0}, {2.0}), ({0.0}, {2}), ({True}, {2}), ({0}, {"2"})):
            with pytest.raises(ValueError, match="not an active vertex"):
                QueryInstance(g, A, B)


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
        # Adjacent sides: the NONE answer of the early return.
        g = WeightedGraph(4, [(0, 1), (2, 3)])
        for verified in (False, True):
            with pytest.raises(ValueError, match="connected"):
                min_safe_separator(QueryInstance(g, {0}, {1}), verified=verified)

    def test_disconnected_graph_without_a_qualifying_pair_is_rejected(self):
        # On the path 0-...-4, A = {0, 4} holds together only through B = {2}:
        # the A-family is empty.  Vertex 5 stands alone.
        edges = [(i, i + 1) for i in range(4)]
        assert not min_safe_separator(QueryInstance(path_graph(5), {0, 4}, {2})).exists
        g = WeightedGraph(6, edges)
        for verified in (False, True):
            with pytest.raises(ValueError, match="connected"):
                min_safe_separator(QueryInstance(g, {0, 4}, {2}), verified=verified)

    def test_disconnected_graph_with_an_answer_is_rejected(self):
        # The path 0-1-2 plus the lone vertex 3 has the winner {1}, and two
        # paths 0-1 and 2-3 the empty winner: each is refused once its
        # validation walks show the graph falls apart.
        assert min_safe_separator(QueryInstance(path_graph(3), {0}, {2})).separator == {1}
        for g in (WeightedGraph(4, [(0, 1), (1, 2)]), WeightedGraph(4, [(0, 1), (2, 3)])):
            for verified in (False, True):
                with pytest.raises(ValueError, match="connected"):
                    min_safe_separator(QueryInstance(g, {0}, {2}), verified=verified)

    def test_disconnected_graph_is_rejected_when_a_check_fails(self, monkeypatch):
        # The tampered B-run of test_settled_sides_that_meet_are_refused, on
        # the path 0-...-4 plus the lone vertex 5.
        honest = min_safe_sep.close_to_run

        def tampered(g, s, t, A, R):
            run = honest(g, s, t, A, R)
            if s != 4:
                return run
            return run._replace(sides=(frozenset({1, 4}),))

        monkeypatch.setattr(min_safe_sep, "close_to_run", tampered)
        with pytest.raises(InternalConsistencyError, match="qualifying pair meet"):
            min_safe_separator(QueryInstance(path_graph(5), {0}, {4}))
        g = WeightedGraph(6, [(i, i + 1) for i in range(4)])
        for verified in (False, True):
            with pytest.raises(ValueError, match="connected"):
                min_safe_separator(QueryInstance(g, {0}, {4}), verified=verified)

    def test_only_none_answers_walk_the_whole_graph(self, monkeypatch):
        """An answer reads connectivity off the two walks that validate its
        winner and remembers it on the graph; a NONE answer checks it with
        one whole-graph walk, unless the graph already knows it is
        connected.  The spy sits in graph_core, where is_connected walks."""
        walks = []
        honest = graph_core.component_with_boundary

        def counting(g, X, *starts):
            walks.append(starts)
            return honest(g, X, *starts)

        monkeypatch.setattr(graph_core, "component_with_boundary", counting)
        g = gen_interval(300, wmax=5, seed=3)
        assert min_safe_separator(QueryInstance(g, {0}, {299})).exists
        assert walks == [] and g._connected is True
        adjacent = min(g.neighbors(0))
        for A, B in (({0}, {adjacent}), ({0, 299}, {150})):
            h = WeightedGraph(g.n, g.edges(), [g.weight(v) for v in g.vertices])
            for walked in ([(0,)], []):
                walks.clear()
                assert not min_safe_separator(QueryInstance(h, A, B)).exists
                assert walks == walked and h._connected is True

    def test_a_none_answer_runs_close_to_run_once(self, monkeypatch):
        # A = {0, 299} holds together only through B = {150}: run_A's family
        # is empty, so no pair can qualify and run_B is never computed.
        runs = []
        honest = min_safe_sep.close_to_run

        def counting(g, s, t, A, R):
            runs.append(s)
            return honest(g, s, t, A, R)

        monkeypatch.setattr(min_safe_sep, "close_to_run", counting)
        g = gen_interval(300, wmax=5, seed=3)
        assert not min_safe_separator(QueryInstance(g, {0, 299}, {150})).exists
        assert runs == [0]
        runs.clear()
        assert min_safe_separator(QueryInstance(g, {0}, {299})).exists
        assert runs == [0, 299]

    def test_a_none_query_on_a_graph_known_connected_reads_only_its_gate(self):
        # After an answer on the same graph, a NONE query whose A-family is
        # empty reads the adjacency of A, B and the side its failing gate
        # walks, C_s(G - R - N(t)), and nothing else.
        g = gen_interval(300, wmax=5, seed=3)
        assert min_safe_separator(QueryInstance(g, {0}, {299})).exists
        A, B = frozenset({0, 299}), frozenset({150})
        R = neighborhood(g, A) & neighborhood(g, B)
        gate_side = component_of(g, R | neighborhood(g, B), 0)
        touched = count_reads(g)
        assert not min_safe_separator(QueryInstance(g, A, B)).exists
        assert touched.keys() <= gate_side | A | B and 0 < len(gate_side) < g.vertex_count // 2

    def test_an_answer_on_a_graph_known_connected_reads_nothing_outside_its_sides(self):
        # The answer to ({20}, {40}) on this interval graph leaves 259 vertices
        # outside C_A | W | C_B.  A fresh copy of the graph walks all of them
        # to prove itself connected; a copy already known connected reads none.
        fresh, known = (gen_interval(300, wmax=5, seed=0) for _ in range(2))
        assert graph_core.is_connected(known)
        answers, reads = [], []
        for g in (fresh, known):
            reads.append(count_reads(g))
            answers.append(min_safe_separator(QueryInstance(g, {20}, {40})))
        W = answers[0].separator
        rest = set(range(300)) - component_of(fresh, W, 20) - component_of(fresh, W, 40) - W
        assert answers[0] == answers[1] and len(rest) == 259
        assert rest <= reads[0].keys() and rest.isdisjoint(reads[1])

    def test_a_disconnected_graph_is_refused_on_every_repeated_query(self):
        # On the path 0-...-4 plus the lone vertex 5, the query ({0}, {4})
        # finds a winner that fails the connectivity test, ({0, 4}, {2}) has
        # an empty A-family and ({0}, {1}) adjacent sides.  In either order,
        # in both modes and on every repeat each is refused, and the graph
        # never remembers itself as connected.
        queries = [({0}, {4}), ({0, 4}, {2}), ({0}, {1})]
        for order in (queries, queries[::-1]):
            g = WeightedGraph(6, [(i, i + 1) for i in range(4)])
            for verified in (False, True, False):
                for A, B in order:
                    with pytest.raises(ValueError, match="connected"):
                        min_safe_separator(QueryInstance(g, A, B), verified=verified)
                    assert g._connected is not True
            assert g._connected is False

    def test_a_graph_known_disconnected_is_refused_before_any_read(self):
        # The path 0-...-1999 plus the lone vertex 2000, once is_connected has
        # said so: the query is refused with the message of the validation's
        # walk, in both modes, without reading one adjacency tuple.
        g = WeightedGraph(2001, [(i, i + 1) for i in range(1999)])
        assert not graph_core.is_connected(g)
        reads = count_reads(g)
        for verified in (False, True):
            with pytest.raises(ValueError, match="^input graph must be connected$"):
                min_safe_separator(QueryInstance(g, {0}, {1998}), verified=verified)
        assert sum(reads.values()) == 0

    def test_verified_mode_rejects_asteroidal_triples(self):
        g = WeightedGraph(6, [(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(ValueError):
            min_safe_separator(QueryInstance(g, {0}, {3}), verified=True)
        with pytest.raises(ValueError):
            min_safe_separator(broken_chain_query(), verified=True)

    def test_fast_mode_reports_a_broken_chain(self):
        with pytest.raises(InternalConsistencyError):
            min_safe_separator(broken_chain_query())

    def test_settled_sides_that_meet_are_refused(self, monkeypatch):
        # Path 0-...-4 with A = {0}, B = {4}: the families are {1} and {3}.
        # A B-run that reports a t-side reaching into S_A = {1} must not
        # reach the flow network.
        honest = min_safe_sep.close_to_run

        def tampered(g, s, t, A, R):
            run = honest(g, s, t, A, R)
            if s != 4:
                return run
            return run._replace(sides=(frozenset({1, 4}),))

        monkeypatch.setattr(min_safe_sep, "close_to_run", tampered)
        with pytest.raises(InternalConsistencyError, match="qualifying pair meet"):
            min_safe_separator(QueryInstance(path_graph(5), {0}, {4}))

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda sep, weight, sides: (sep - {3}, weight, sides), "failed validation"),
            (lambda sep, weight, sides: (sep | {1}, weight, sides), "failed validation"),
            (lambda sep, weight, sides: (sep | {4}, weight, sides), "failed validation"),
            (lambda sep, weight, sides: (sep, weight + 1, sides), "weight disagrees"),
        ],
        ids=["a cut vertex dropped", "a neighbor added on A's side", "a neighbor added on B's side",
             "a wrong weight"],
    )
    def test_the_final_check_refuses_a_bad_winner(self, monkeypatch, tamper, message):
        # Two triangles 0-1-2 and 4-5-6 joined through the light vertex 3,
        # with A = {0}, B = {6}: the families are {1, 2} and {4, 5}, and the
        # one pair's cut is {3}.  A flow that drops 3 leaves no separator; one
        # that adds 1 (or 4) leaves a separator that is not minimal, as 1
        # touches only A's side (4 only B's).
        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)]
        q = QueryInstance(WeightedGraph(7, edges, [1, 9, 9, 1, 9, 9, 1]), {0}, {6})
        assert min_safe_separator(q).separator == {3}
        honest = FlowNetwork.min_cut
        monkeypatch.setattr(FlowNetwork, "min_cut", lambda self, settled: tamper(*honest(self, settled)))
        with pytest.raises(InternalConsistencyError, match=message):
            min_safe_separator(q)

    def test_the_qualifying_test_needs_no_t_side(self):
        # The pair loop qualifies (S_A, S_B) by C_s(G-R-S_A) missing S_B; for
        # family members that is the inclusion S_A - S_B <= C_s(G-R-S_B).
        # Random queries almost never hold a pair that fails, so one is
        # pinned: the A-side of S_A = {8} holds S_B = {2}.
        queries = [(gen_atfree_rejection(9, wmax=5, seed=542), {0, 1}, {5, 6})]
        for seed in range(200):
            rng = random.Random(f"qualify:{seed}")
            n = rng.randint(5, 12)
            g = gen_interval(n, wmax=5, seed=seed) if seed % 2 else gen_atfree_rejection(n, wmax=5, seed=seed)
            terminals = sample_terminals(g, rng)
            if terminals is not None:
                queries.append((g, *terminals))
        outcomes = set()
        for g, A, B in queries:
            A, B = frozenset(A), frozenset(B)
            R = neighborhood(g, A) & neighborhood(g, B)
            s, t = min(A), min(B)
            run_A = close_to_run(g, s, t, A - {s}, R)
            run_B = close_to_run(g, t, s, B - {t}, R)
            for S_B in run_B.family:
                c_sB = component_of(g, R | S_B, s)
                for S_A, c_sA in zip(run_A.family, run_A.sides):
                    qualifies = S_A - S_B <= c_sB
                    assert qualifies == S_B.isdisjoint(c_sA), (sorted(A), sorted(B))
                    outcomes.add(qualifies)
        assert outcomes == {True, False}

    def test_one_network_per_query_and_one_flow_per_pair(self, monkeypatch):
        """One base flow per query, then one augmentation for each pair whose
        settled set meets the base cut; the other pairs keep the base cut."""
        built, flows, meets = [], [], []
        init, max_flow, min_cut = FlowNetwork.__init__, FlowNetwork.max_flow, FlowNetwork.min_cut

        def counting_init(net, *args):
            built.append(args)
            init(net, *args)

        def counting_max_flow(net, *args):
            flows.append(args)
            return max_flow(net, *args)

        def recording_min_cut(net, settled=()):
            meets.append(not net.cut.isdisjoint(settled))
            return min_cut(net, settled)

        monkeypatch.setattr(FlowNetwork, "__init__", counting_init)
        monkeypatch.setattr(FlowNetwork, "max_flow", counting_max_flow)
        monkeypatch.setattr(FlowNetwork, "min_cut", recording_min_cut)
        ans = min_safe_separator(fan_query())
        assert (ans.separator, ans.weight) == (frozenset({3, 4}), 6)
        assert len(built) == 1 and len(meets) == 2 * 2
        assert len(flows) == 1 + sum(meets)

        # A light body vertex 7 is the base cut, and no pair settles it.
        g = fan_query().graph
        weights = [1 if v == 7 else g.weight(v) for v in g.vertices]
        built, flows, meets = [], [], []
        light = QueryInstance(WeightedGraph(g.n, g.edges(), weights), {0, 1}, {13, 14})
        ans = min_safe_separator(light)
        assert (ans.separator, ans.weight) == (frozenset({7}), 1)
        assert len(built) == 1 and len(meets) == 2 * 2 and not any(meets)
        assert len(flows) == 1

    def test_the_flow_reads_no_core_and_cuts_like_the_contracted_graph(self, monkeypatch):
        """The query's one network runs on g between the two cores, handed in
        as seeds with R excluded.  Rebuilt on a counting adjacency, it reads
        no adjacency tuple of a core vertex or of R, and each pair's cut is
        the minimum s,t-separator of G - R with the pair's two settled sides
        contracted into s and t.  The queries: terminals far apart on an
        interval graph (one-member families, so the cores are the sides, and
        t = min(B) lies deep inside its own, so the base flow's searches
        meet t's core before they reach t); a k = 3 fan gadget whose heavy
        body makes the pairs' cuts differ (three-member families, so the
        cores are walked: s and t alone, as the middles join them to a and
        b); and terminals at distance two (R not empty)."""
        gadget, s, a, t, b = fan_gadget(3, 12, 3)
        body = range(2, 14)
        weights = [50 if v in body else 1 + 5 * v % 7 for v in gadget.vertices]
        fan = WeightedGraph(gadget.n, gadget.edges(), weights)
        far = gen_interval(300, wmax=5, seed=4)
        near = gen_interval(200, wmax=5, seed=5)
        n_2 = closed_neighborhood(near, near.neighbors(100)) - closed_neighborhood(near, {100})
        queries = [(far, {270}, {20, 60}), (fan, {s, a}, {t, b}), (near, {100}, {max(n_2)})]
        calls = []
        best_pair_cut, init = min_safe_sep._best_pair_cut, FlowNetwork.__init__
        monkeypatch.setattr(min_safe_sep, "_best_pair_cut", lambda *args: calls.append(args) or best_pair_cut(*args))
        monkeypatch.setattr(FlowNetwork, "__init__", lambda net, *args: calls.append(args) or init(net, *args))
        seen = Counter()
        for graph, A, B in queries:
            calls.clear()
            assert min_safe_separator(QueryInstance(graph, A, B)).exists
            (g, s, t, pairs, R, _), args = calls
            (core_s, _), (core_t, _) = args[3:5]
            assert args[:3] == (g, s, t) and args[5] == R
            seen.update(cores=len(core_s) + len(core_t) > 2, pairs=len(pairs) > 1, R=bool(R))
            h = WeightedGraph(g.n, g.edges(), g._w)
            reads = count_reads(h)
            net = FlowNetwork(h, *args[1:])
            rest = induced_delete(g, R)
            for _, _, c_sA, c_tB in pairs:
                contracted = contract_connected_set(rest, s, c_sA - {s})
                contracted = contract_connected_set(contracted, t, c_tB - {t})
                expected = min_weight_st_separator(contracted, s, t)
                assert net.min_cut((c_sA - core_s) | (c_tB - core_t))[:2] == expected
            assert reads and reads.keys().isdisjoint(core_s | core_t | R)
        assert seen == {"cores": 2, "pairs": 1, "R": 1}

    def test_after_the_pair_loop_the_query_reads_neither_side(self, monkeypatch):
        """The winner is validated on the two sides that its cut's proof grew,
        so once _best_pair_cut returns, the query reads the adjacency of no
        vertex of C_A or C_B.  Terminals far apart on an interval graph:
        C_B is far larger than the settled side of t that it holds, so a
        validation that grew the sides again would read it."""
        g = gen_interval(300, wmax=5, seed=3)
        h = WeightedGraph(g.n, g.edges(), g._w)
        reads = count_reads(h)
        calls = []
        best_pair_cut = min_safe_sep._best_pair_cut

        def recording(*args):
            calls.append((args, best_pair_cut(*args)))
            reads.clear()
            return calls[-1][1]

        monkeypatch.setattr(min_safe_sep, "_best_pair_cut", recording)
        ans = min_safe_separator(QueryInstance(h, {30}, {270}))
        ((_, _, _, pairs, _, _), (_, winner, ((c_a, _), (c_b, _)))), = calls
        ((_, _, _, c_tB),) = pairs
        assert ans.separator == winner and len(c_b - c_tB) > 200
        assert reads.keys().isdisjoint(c_a | c_b)

    def test_a_flow_of_zero_answers_through_the_proven_empty_cut(self, monkeypatch):
        """Path 0-1-2 with A = {0}, B = {2}: R = {1} alone separates, so the
        one pair's flow is 0, and the network proves the empty cut on its two
        sides like any other cut; the winner is validated on them."""
        cuts = []
        cut = FlowNetwork._cut
        monkeypatch.setattr(FlowNetwork, "_cut", lambda net, *args: cuts.append(cut(net, *args)) or cuts[-1])
        ans = min_safe_separator(QueryInstance(path_graph(3), {0}, {2}))
        assert (ans.separator, ans.weight) == ({1}, 1)
        assert cuts == [(frozenset(), 0, (({0}, {1}), ({2}, {1})))]

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


class TestPinnedAnswers:
    def test_exact_separators(self):
        """Exact separators, not only weights: a change that keeps the weight
        but picks another separator among the ties fails here."""
        queries = [*medium_queries(), fan_query()]
        for q, (A, B, separator, weight) in zip(queries, PINNED, strict=True):
            assert (q.A, q.B) == (A, B)
            ans = min_safe_separator(q)
            assert (ans.separator, ans.weight) == (separator, weight), (sorted(A), sorted(B))


class TestAgainstBruteForce:
    def test_matches_exhaustive_answer_on_random_instances(self):
        # Two safe separators of weight 2 exist here, {0, 5} and {0, 6}; the
        # oracle picks the lexicographically smaller, the algorithm need not.
        tie = WeightedGraph(
            7,
            [(0, 2), (0, 3), (0, 5), (1, 2), (1, 6), (2, 4), (2, 6), (3, 5), (4, 6), (5, 6)],
        )
        fan = fan_query()
        cases = [("tie", tie, frozenset({1, 4}), frozenset({3})), ("fan", fan.graph, fan.A, fan.B)]
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
