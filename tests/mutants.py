"""Mutation gate for the program's checks.

    python tests/mutants.py             # every entry of MUTANTS
    python tests/mutants.py NAME ...    # the named entries only

Each entry breaks one check: it names a file (relative to the repository
root), an exact old text that must occur there exactly once, the new text,
and the tests expected to kill the mutant.  For each entry the runner copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, applies
the one edit there, runs only the named tests against the copy, and reports
whether any of them failed.  A *known survivor* carries the reason it
survives and the work that would settle it; its tests are the query-level
tests it survives.

Exit status 1 on an unexpected survivor, or on an entry whose old text is
missing or occurs more than once; a known survivor that is killed is
reported, so that the table can be updated, but does not fail the gate.
The gate is not part of the tier-1 suite: run it by hand after touching a
check, and quote its summary.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900

MWS = "src/safesep/min_weight_separator.py"
CLOSE_TO = "src/safesep/close_to.py"
MSS = "src/safesep/min_safe_sep.py"
MINSEP = "src/safesep/minimal_separators.py"
GRAPH = "src/safesep/graph_core.py"
ORACLE = "src/safesep/oracle.py"
CLI = "src/safesep/cli.py"

FLOW_ORACLES = (
    "tests/test_min_weight_separator.py::test_cuts_with_settled_sets_match_the_subset_oracle",
    "tests/test_min_weight_separator.py::test_a_flow_that_must_undo_an_edge_arc",
    "tests/test_min_weight_separator.py::test_a_flow_that_must_undo_a_vertex",
    "tests/test_min_weight_separator.py::test_augmenting_from_the_base_flow_cuts_like_a_cold_flow",
)
QUERY_LEVEL = (
    "tests/test_close_to.py::TestAgainstBruteForce",
    "tests/test_close_to.py::TestRunDetails::test_members_are_minimal_and_keep_a_on_the_source_side",
    "tests/test_min_safe_sep.py::TestAgainstBruteForce",
    "tests/test_min_safe_sep.py::TestPinnedAnswers",
    "tests/test_acceptance.py",
    "tests/test_corpus.py",
)
FLOW_READS = (
    "tests/test_min_safe_sep.py::TestFrozenAnswers"
    "::test_the_flow_reads_no_core_and_cuts_like_the_contracted_graph"
)
REPEATED_REFUSAL = (
    "tests/test_min_safe_sep.py::TestFrozenAnswers"
    "::test_a_disconnected_graph_is_refused_on_every_repeated_query"
)
SEED_ITSELF = (
    "tests/test_graph_core.py::TestComponents"
    "::test_a_frozenset_seed_with_its_neighbors_removed_comes_back_itself",
    "tests/test_graph_core.py::TestComponents"
    "::test_a_seed_listed_in_its_own_boundary_still_comes_back_itself",
)
CUT_PROOF = "tests/test_min_weight_separator.py::test_the_cut_check_refuses_what_is_not_a_minimal_separator"
BAD_WINNER = "tests/test_min_safe_sep.py::TestFrozenAnswers::test_the_final_check_refuses_a_bad_winner"
CONSTRUCTION = "tests/test_graph_core.py::TestConstruction"
QUERY_CHECK = "tests/test_min_safe_sep.py::TestAnswerType::test_query_validation"
SIDES_WORDING = (
    "tests/test_min_safe_sep.py::TestAnswerType"
    "::test_query_refusals_are_worded_as_the_separator_predicates_word_them"
)
TERMINAL_REFUSALS = "tests/test_close_to.py::TestFrozenFamilies::test_close_to_and_its_oracle_refuse_alike"
NEGATIVE_IDS = "tests/test_graph_core.py::TestConstruction::test_negative_and_out_of_range_ids_are_refused_everywhere"
SET_PREDICATES = ("tests/test_minimal_separators.py::TestSetPredicates",)
SET_REFUSALS = "tests/test_minimal_separators.py::TestSetPredicates::test_separator_overlapping_the_sets_is_rejected"
ANCHOR_READS = "tests/test_close_to.py::TestRunDetails::test_anchor_passes_read_no_vertex_the_search_for_s_walked"
CONTRACTION_READS = "tests/test_close_to.py::TestRunDetails::test_contraction_searches_read_none_of_the_settled_side"
CORPUS_CLOSE = "tests/test_corpus.py::test_close_families_match_the_oracle_on_the_stratum"
CORPUS_SEVEN = (
    "tests/test_corpus.py::test_close_families_match_the_oracle_where_seven_vertices_reach_the_contraction_branch"
)
REST_PINS = "tests/test_close_to.py::TestAgainstBruteForce::test_the_member_that_only_the_rest_anchor_finds"
CONTRACTION_PINS = "tests/test_close_to.py::TestAgainstBruteForce::test_contraction_branch_matches_definition"
TRUSTED = "tests/test_close_to.py::TestWhatTheFilterTrusts"
CHAIN_LIVE = "tests/test_acceptance.py::test_nested_component_chain_check_is_live_and_never_fires"
VALIDATION = (
    "tests/test_minimal_separators.py::TestSetPredicates::test_validation_refuses_each_condition_that_fails_alone",
    "tests/test_minimal_separators.py::TestSetPredicates"
    "::test_single_partition_validation_matches_the_two_predicates",
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple
    survivor: str | None = None  # why it survives, for a known survivor


MUTANTS = (
    # The WeightedGraph constructor's checks, each edge's ids first tested on
    # a fast path and diagnosed by _checked_edge, and its merge of repeated
    # edges.
    Mutant(
        "constructor: integer vertex count",
        GRAPH,
        "        if not isinstance(n, int) or isinstance(n, bool) or n < 0:\n",
        "        if n < 0:\n",
        (CONSTRUCTION,),
    ),
    Mutant(
        "constructor: the fast path's type test",
        GRAPH,
        "            if type(u) is not int or type(v) is not int or u == v",
        "            if u == v",
        (CONSTRUCTION,),
    ),
    Mutant(
        "constructor: integer ids",
        GRAPH,
        "    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (u, v)):\n",
        "    if False:\n",
        (CONSTRUCTION,),
    ),
    Mutant(
        "constructor: self-loop",
        GRAPH,
        "    if u == v:\n        raise ValueError(f\"self-loop",
        "    if False:\n        raise ValueError(f\"self-loop",
        (CONSTRUCTION,),
    ),
    Mutant(
        "constructor: unknown endpoint",
        GRAPH,
        "    if not (0 <= u < n and 0 <= v < n):\n",
        "    if False:\n",
        (CONSTRUCTION,),
    ),
    Mutant(
        "constructor: repeated edges merged",
        GRAPH,
        "            adj[v] = tuple(sorted(set(nb)))",
        "            adj[v] = tuple(sorted(nb))",
        ("tests/test_graph_core.py::TestAdjacencyTuples::test_edge_order_and_repeats_do_not_matter",),
    ),
    Mutant(
        "has_vertex: ids that are not ints, and bools",
        GRAPH,
        "        return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < self.n\n",
        "        return 0 <= v < self.n\n",
        ("tests/test_graph_core.py::TestConstruction::test_has_vertex_refuses_ids_that_are_not_ints",
         "tests/test_min_safe_sep.py::TestAnswerType::test_query_rejects_vertex_ids_that_are_not_integers",
         "tests/test_close_to.py::TestFrozenFamilies::test_refuses_vertex_ids_that_are_not_ints",
         "tests/test_min_weight_separator.py::test_refuses_terminal_ids_that_are_not_ints"),
    ),
    Mutant(
        "has_vertex: negative ids",
        GRAPH,
        " and 0 <= v < self.n\n",
        " and v < self.n\n",
        (NEGATIVE_IDS,),
    ),
    Mutant(
        "has_vertex: ids from n up",
        GRAPH,
        " and 0 <= v < self.n\n",
        " and 0 <= v\n",
        (NEGATIVE_IDS,),
    ),
    Mutant(
        "neighbors: ids that has_vertex refuses",
        GRAPH,
        "        return frozenset(self._adj[checked_id(self, v, \"v\")])\n",
        "        return frozenset(self._adj[v])\n",
        ("tests/test_graph_core.py::TestConstruction::test_neighbors_refuses_ids_that_are_not_ints",),
    ),
    Mutant(
        "weight: ids that has_vertex refuses",
        GRAPH,
        "        return self._w[checked_id(self, v, \"v\")]\n",
        "        return self._w[v]\n",
        ("tests/test_graph_core.py::TestConstruction::test_weight_refuses_ids_that_are_not_ints",),
    ),
    Mutant(
        "weight_of: ids that has_vertex refuses",
        GRAPH,
        "        return sum(self._w[v] for v in checked_set(self, S, \"S\"))\n",
        "        return sum(self._w[v] for v in S)\n",
        ("tests/test_graph_core.py::TestConstruction::test_weight_refuses_ids_that_are_not_ints",),
    ),
    Mutant(
        "has_edge: ids that has_vertex refuses",
        GRAPH,
        "        return self.has_vertex(u) and self.has_vertex(v) and v in self._adj[u]\n",
        "        return 0 <= u < self.n and v in self._adj[u]\n",
        ("tests/test_graph_core.py::TestConstruction::test_has_edge_is_false_for_ids_that_are_not_ints",),
    ),
    # The one id check of the public entry points, and the checks that
    # route through it.
    Mutant(
        "the helper accepts every id",
        GRAPH,
        "    if not g.has_vertex(v):\n",
        "    if False:\n",
        ("tests/test_graph_core.py::TestConstruction::test_inactive_vertex_queries_raise",
         "tests/test_minimal_separators.py::TestPairPredicates::test_refuse_vertex_ids_that_are_not_ints",
         "tests/test_close_to.py::TestFrozenFamilies::test_refuses_vertex_ids_that_are_not_ints",
         "tests/test_min_safe_sep.py::TestAnswerType::test_query_rejects_vertex_ids_that_are_not_integers"),
    ),
    Mutant(
        "the helper lets TypeError out for an id that is not hashable",
        GRAPH,
        "    try:\n        T = frozenset(T)\n    except TypeError:",
        "    T = frozenset(T)\n    if False:",
        ("tests/test_minimal_separators.py::TestPairPredicates::test_refuse_vertex_ids_that_are_not_ints",),
    ),
    Mutant(
        "the set helper skips its members",
        GRAPH,
        "    for v in T:\n        checked_id(g, v, what)\n",
        "",
        ("tests/test_graph_core.py::TestConstruction::test_weight_refuses_ids_that_are_not_ints",
         "tests/test_min_safe_sep.py::TestAnswerType::test_query_rejects_vertex_ids_that_are_not_integers"),
    ),
    # checked_sides is the one check of two sides: QueryInstance runs it on
    # every way of building a query, and _check_ab for the A,B-separator
    # predicates.
    Mutant(
        "checked_sides: empty sides",
        MINSEP,
        "    if not A or not B:\n        raise ValueError(\"A and B must be non-empty\")\n",
        "",
        (SIDES_WORDING,),
    ),
    Mutant(
        "checked_sides: overlapping sides",
        MINSEP,
        "    if A & B:\n        raise ValueError(\"A and B must be disjoint\")\n",
        "",
        (SIDES_WORDING,),
    ),
    Mutant(
        "checked_sides: ids unchecked",
        MINSEP,
        "    A, B = checked_set(g, A, \"A\"), checked_set(g, B, \"B\")\n",
        "    A, B = frozenset(A), frozenset(B)\n",
        (QUERY_CHECK,),
    ),
    Mutant(
        "QueryInstance: the sides unchecked",
        MSS,
        "*checked_sides(graph, A, B))",
        "frozenset(A), frozenset(B))",
        (QUERY_CHECK,),
    ),
    Mutant(
        "QueryInstance: _make and _replace skip the check",
        MSS,
        "        return cls(*iterable)",
        "        return tuple.__new__(cls, iterable)",
        (QUERY_CHECK,),
    ),
    Mutant(
        "_check_ab: the sides unchecked",
        MINSEP,
        "    (A, B), S = checked_sides(g, A, B), checked_set(g, S, \"S\")\n",
        "    (A, B), S = (frozenset(A), frozenset(B)), checked_set(g, S, \"S\")\n",
        (SET_REFUSALS,),
    ),
    # _check_terminals is the one check of a terminal pair and the set that
    # must avoid it: a candidate separator, or the A of close_to and of its
    # oracle.
    Mutant(
        "_check_terminals leaves S unchecked",
        MINSEP,
        "    S = checked_set(g, S, what)\n",
        "    S = frozenset(S)\n",
        ("tests/test_minimal_separators.py::TestPairPredicates::test_refuse_vertex_ids_that_are_not_ints",),
    ),
    Mutant(
        "_check_terminals: a set holding a terminal",
        MINSEP,
        "    if s in S or t in S:\n",
        "    if False:\n",
        (TERMINAL_REFUSALS,),
    ),
    Mutant(
        "close_to: A left unchecked",
        CLOSE_TO,
        "    A = _check_terminals(g, s, t, A, \"A\")\n",
        "    _check_terminals(g, s, t)\n",
        (TERMINAL_REFUSALS,),
    ),
    Mutant(
        "close_family_brute: A left unchecked",
        ORACLE,
        "    A = _check_terminals(g, s, t, A, \"A\")\n    with_side = []\n",
        "    _check_terminals(g, s, t)\n    with_side = []\n",
        (TERMINAL_REFUSALS,),
    ),
    Mutant(
        "close_family_bound_check: no input checked",
        ORACLE,
        "    A = _check_terminals(g, s, t, A, \"A\")\n    n = g.n\n",
        "    A = frozenset(A)\n    n = g.n\n",
        ("tests/test_close_to.py::TestFamilyBounds::test_bound_check_refuses_what_close_to_refuses",),
    ),
    Mutant(
        "min_safe_brute skips the query check",
        ORACLE,
        "    q = QueryInstance(g, A, B)\n    A, B = q.A, q.B\n    if A & closed_neighborhood(g, B):\n",
        "    A, B = frozenset(A), frozenset(B)\n    if A & closed_neighborhood(g, B):\n",
        ("tests/test_min_safe_sep.py::TestAnswerType::test_query_validation",),
    ),
    Mutant(
        "connectivity: one walk must reach every vertex",
        GRAPH,
        "[0]) == g.n",
        "[0]) > 0",
        ("tests/test_graph_core.py::TestConnectivity",
         "tests/test_min_safe_sep.py::TestFrozenAnswers::test_disconnected_graph_is_rejected"),
    ),
    # The A,B-separator predicates, each read off the sides of its terminal
    # sets, against the literal definitions in tests/brutes.py.
    Mutant(
        "is_AB_separator: B outside the side of A",
        MINSEP,
        "    return B.isdisjoint(component_with_boundary(g, S, *A)[0])\n",
        "    return True\n",
        SET_PREDICATES,
    ),
    Mutant(
        "is_AB_separator: the side of min(A) alone",
        MINSEP,
        "B.isdisjoint(component_with_boundary(g, S, *A)[0])",
        "B.isdisjoint(component_with_boundary(g, S, min(A))[0])",
        SET_PREDICATES,
    ),
    Mutant(
        "is_minimal_AB_separator: B outside the side of A",
        MINSEP,
        "    if not (B.isdisjoint(side_a) and S <= near_a):\n",
        "    if not S <= near_a:\n",
        SET_PREDICATES,
    ),
    Mutant(
        "is_minimal_AB_separator: S <= N(side of A)",
        MINSEP,
        "    if not (B.isdisjoint(side_a) and S <= near_a):\n",
        "    if not B.isdisjoint(side_a):\n",
        SET_PREDICATES,
    ),
    Mutant(
        "is_minimal_AB_separator: S <= N(side of B)",
        MINSEP,
        "    return S <= component_with_boundary(g, S, *B)[1]\n",
        "    return True\n",
        SET_PREDICATES,
    ),
    Mutant(
        "is_safe_AB_separator: A inside the side of min(A)",
        MINSEP,
        "    if b in side_a or not A <= side_a:\n",
        "    if b in side_a:\n",
        SET_PREDICATES,
    ),
    Mutant(
        "is_safe_AB_separator: min(B) outside the side of min(A)",
        MINSEP,
        "    if b in side_a or not A <= side_a:\n",
        "    if not A <= side_a:\n",
        SET_PREDICATES,
    ),
    Mutant(
        "is_safe_AB_separator: B inside the side of min(B)",
        MINSEP,
        "    return B <= component_with_boundary(g, S, b)[0]\n",
        "    return True\n",
        SET_PREDICATES,
    ),
    # The refusal that the three predicates add to checked_sides.
    Mutant(
        "_check_ab: adjacent sets",
        MINSEP,
        "    if A & closed_neighborhood(g, B):\n        raise ValueError(\"A and B must be non-adjacent\")\n",
        "",
        (SET_REFUSALS,),
    ),
    # The cold reference network of tests/brutes.py, which the flow tests
    # compare against.
    Mutant(
        "reference flow: no reverse-arc update",
        "tests/brutes.py",
        "                cap[idx ^ 1] += pushed\n",
        "",
        ("tests/test_min_weight_separator.py::test_flow_network_on_its_own",),
    ),
    Mutant(
        "reference flow: s left unmarked",
        "tests/brutes.py",
        "            mark[s] = 0  # any value >= 0: the walk back stops at s\n",
        "",
        ("tests/test_min_weight_separator.py::test_flow_network_on_its_own",),
    ),
    # FlowNetwork.max_flow and min_cut.
    Mutant(
        "flow: reverse edge arcs ignored",
        MWS,
        "                    for u in inflow[x]:\n"
        "                        if u not in out_from:\n"
        "                            out_from[u] = x\n"
        "                            queue.append(~u)\n",
        "",
        FLOW_ORACLES,
    ),
    Mutant(
        "flow: reverse split arcs ignored",
        MWS,
        "                if u in through and u not in in_from:\n"
        "                    in_from[u] = u\n"
        "                    queue.append(u)\n",
        "",
        FLOW_ORACLES,
    ),
    Mutant(
        "flow: the flow-free shortcut on a flow-carrying vertex with room",
        MWS,
        "                        if v in through:\n",
        "                        if v in through and through[v] >= w[v]:\n",
        FLOW_ORACLES,
    ),
    # The network between two cores on g itself: s's core, t's core and R
    # are never read, and each cut is proved from the two seeds.
    Mutant(
        "flow: a core vertex of t read as an ordinary vertex",
        MWS,
        "                        if v in core_t:\n",
        "                        if v == t:\n",
        (FLOW_READS,),
    ),
    Mutant(
        "flow: the excluded set not skipped",
        MWS,
        "                        if v in excluded or v in core_s:\n",
        "                        if v in core_s:\n",
        (FLOW_READS,),
    ),
    Mutant(
        "flow: the core of s not skipped",
        MWS,
        "                        if v in excluded or v in core_s:\n",
        "                        if v in excluded:\n",
        (FLOW_READS,),
    ),
    Mutant(
        "cut check: the cut weighs the flow",
        MWS,
        "        if g.weight_of(sep) != flow:\n",
        "        if False:\n",
        ("tests/test_min_weight_separator.py::test_the_cut_check_refuses_a_cut_that_does_not_weigh_the_flow",),
    ),
    Mutant(
        "cut proof: t on the side of s",
        MWS,
        "        if self.t in c_s or not sep <= n_s or ",
        "        if not sep <= n_s or ",
        (CUT_PROOF,),
    ),
    Mutant(
        "cut proof: the boundary of t's side",
        MWS,
        " or not sep <= n_t:\n",
        ":\n",
        (CUT_PROOF,),
    ),
    Mutant(
        "cut proof: the empty cut's proof skipped",
        MWS,
        "        in_from, out_from = reached\n",
        "        if flow == 0:\n"
        "            return frozenset(), flow, (self.seed_s, self.seed_t)\n"
        "        in_from, out_from = reached\n",
        (CUT_PROOF,),
    ),
    Mutant(
        "flow: the saved base flow not restored",
        MWS,
        "        self.through, self.inflow = dict(through), {v: dict(arcs) for v, arcs in inflow.items()}\n",
        "",
        FLOW_ORACLES,
    ),
    # Checks that run on every query.
    Mutant(
        "the component-neighborhood chain check",
        CLOSE_TO,
        "        if not small <= big:\n",
        "        if False:\n",
        ("tests/test_close_to.py::TestNestedComponentMeet",
         "tests/test_min_safe_sep.py::TestFrozenAnswers::test_fast_mode_reports_a_broken_chain"),
    ),
    Mutant(
        "the settled sides of a qualifying pair",
        MSS,
        "            if not (c_tB.isdisjoint(c_sA) and c_tB.isdisjoint(S_A)):\n",
        "            if False:\n",
        ("tests/test_min_safe_sep.py::TestFrozenAnswers::test_settled_sides_that_meet_are_refused",),
    ),
    Mutant(
        "the winner's weight check",
        MSS,
        "    if g.weight_of(winner) != total:\n",
        "    if False:\n",
        (BAD_WINNER,),
    ),
    # The winner's validation, read off the two sides that its cut's proof
    # grew.
    Mutant(
        "validation: A inside C_A dropped",
        MINSEP,
        "    return A <= c_a and B <= c_b and ",
        "    return B <= c_b and ",
        VALIDATION,
    ),
    Mutant(
        "validation: B inside C_B dropped",
        MINSEP,
        "    return A <= c_a and B <= c_b and ",
        "    return A <= c_a and ",
        VALIDATION,
    ),
    Mutant(
        "validation: min(B) outside C_A dropped",
        MINSEP,
        " and min(B) not in c_a and ",
        " and ",
        VALIDATION,
    ),
    Mutant(
        "validation: N(C_A) = S dropped",
        MINSEP,
        " and n_a == S == n_b\n",
        " and S == n_b\n",
        VALIDATION,
    ),
    Mutant(
        "validation: N(C_B) = S dropped",
        MINSEP,
        " and n_a == S == n_b\n",
        " and n_a == S\n",
        VALIDATION,
    ),
    # Shortcuts that let a query read each region once: the connectivity
    # memo, the dead pockets of the search for s, and the anchor sides grown
    # from what that search walked.
    Mutant(
        "connectivity memo: written before the connectivity test",
        MSS,
        "    c_a, c_b = side_a[0], side_b[0]\n"
        "    if not winner or (\n"
        "        g._connected is not True\n"
        "        and len(c_a) + len(c_b) + len(winner) < g.n\n"
        "        and not hangs_together(g, winner, set(range(g.n)).difference(c_a, c_b, winner))\n"
        "    ):\n"
        "        raise ValueError(\"input graph must be connected\")\n"
        "    g._connected = True\n",
        "    c_a, c_b = side_a[0], side_b[0]\n"
        "    g._connected = True\n"
        "    if not winner or (\n"
        "        g._connected is not True\n"
        "        and len(c_a) + len(c_b) + len(winner) < g.n\n"
        "        and not hangs_together(g, winner, set(range(g.n)).difference(c_a, c_b, winner))\n"
        "    ):\n"
        "        raise ValueError(\"input graph must be connected\")\n",
        (REPEATED_REFUSAL,),
    ),
    Mutant(
        "connectivity memo: the validation trusts a graph known disconnected",
        MSS,
        "        g._connected is not True\n",
        "        g._connected is None\n",
        (REPEATED_REFUSAL,),
        survivor="equivalent while min_safe_separator refuses a graph known disconnected at its entry: "
        "inside _answer the memo is then None or True, where 'is not True' and 'is None' agree; "
        "without that entry refusal the repeated-refusal test kills it",
    ),
    Mutant(
        "connectivity memo: not read at the entry",
        MSS,
        "    if q.graph._connected is False:\n        raise ValueError(\"input graph must be connected\")\n",
        "",
        ("tests/test_min_safe_sep.py::TestFrozenAnswers::test_a_graph_known_disconnected_is_refused_before_any_read",),
    ),
    Mutant(
        "connectivity memo: not read by the validation",
        MSS,
        "        g._connected is not True\n        and len(",
        "        len(",
        ("tests/test_min_safe_sep.py::TestFrozenAnswers"
         "::test_an_answer_on_a_graph_known_connected_reads_nothing_outside_its_sides",),
    ),
    Mutant(
        "connectivity memo: read",
        GRAPH,
        "    if g._connected is None:\n",
        "    if True:\n",
        ("tests/test_min_safe_sep.py::TestFrozenAnswers::test_a_none_query_on_a_graph_known_connected_reads_only_its_gate",),
    ),
    Mutant(
        "near search: the dead-vertex test",
        MINSEP,
        "        if u in self.pockets or u in self._dead:\n",
        "        if u in self.pockets:\n",
        ("tests/test_minimal_separators.py::TestNearSearch::test_dead_vertices_are_classified_without_a_walk",
         ANCHOR_READS),
    ),
    Mutant(
        "anchor pass: the s-side grown from the walked side and pockets",
        CLOSE_TO,
        "component_from_seed(g, gone | S_1, *seed)",
        "component_with_boundary(g, gone | S_1, s)",
        (ANCHOR_READS,),
    ),
    Mutant(
        "seed component: the walk skips the seed's vertices",
        GRAPH,
        "            if w not in seen and w not in seed:\n",
        "            if w not in seen:\n",
        SEED_ITSELF,
    ),
    Mutant(
        "seed component: the seed itself when the walk adds nothing",
        GRAPH,
        "            return (seed.union(seen) if seen else seed), frozenset(boundary)\n",
        "            return seed.union(seen), frozenset(boundary)\n",
        SEED_ITSELF,
    ),
    Mutant(
        "pair loop: every side taken for its core",
        MSS,
        "        settled = (EMPTY_SET if c_sA is core_s else c_sA - core_s)"
        " | (EMPTY_SET if c_tB is core_t else c_tB - core_t)\n",
        "        settled = EMPTY_SET\n",
        QUERY_LEVEL,
    ),
    # The close family: the filter's tests that construction does not prove,
    # and the contraction branch's anchors.
    Mutant(
        "filter: A inside C_s",
        CLOSE_TO,
        "        if A <= c_s:\n",
        "        if True:\n",
        (CORPUS_SEVEN,),
    ),
    Mutant(
        "filter: domination",
        CLOSE_TO,
        "        if not any(other < c_s for _, other in survivors[:i])\n",
        "        if True\n",
        (REST_PINS,),
    ),
    Mutant(
        "contraction branch: one vertex of S_1 skipped",
        CLOSE_TO,
        "        for w in sorted(S_1):\n",
        "        for w in sorted(S_1)[1:]:\n",
        (CONTRACTION_PINS,),
    ),
    Mutant(
        "contraction anchor without a_core",
        CLOSE_TO,
        "near_search(g, X | {w}, t,",
        "near_search(g, {s, v, w}, t,",
        (REST_PINS,),
    ),
    Mutant(
        "contraction anchor holding the settled side",
        CLOSE_TO,
        "near_search(g, X | {w}, t,",
        "near_search(g, c_s_1 | X | {w}, t,",
        (CONTRACTION_READS,),
    ),
    Mutant(
        "the stranding S_1 kept as a candidate",
        CLOSE_TO,
        "        if a_core <= c_s_1:\n",
        "        candidates.append(S_1 | L)\n        if a_core <= c_s_1:\n",
        (CORPUS_CLOSE,),
    ),
    # The branches a run records in its path.
    Mutant(
        "path: the contraction branch unrecorded",
        CLOSE_TO,
        "            path.add(\"contraction\")\n",
        "",
        (CORPUS_CLOSE,),
    ),
    Mutant(
        "path: chain anchors recorded as the anchor at s",
        CLOSE_TO,
        "    path = {\"chain\" if pockets else \"anchor at s\"}\n",
        "    path = {\"anchor at s\"}\n",
        (CHAIN_LIVE,),
    ),
    # An anchor set outside the premise of the close_to module's lemma,
    # which the filter relies on: without s, the anchor need not lie inside
    # C_s.
    Mutant(
        "contraction branch: anchor at X | {w} without s",
        CLOSE_TO,
        "near_search(g, X | {w}, t,",
        "near_search(g, a_core | {v, w}, t,",
        (TRUSTED,) + QUERY_LEVEL,
    ),
    # The CLI's exit-code contract: the error mapping in main, the reader's
    # decode mapping, and NONE.
    Mutant(
        "cli: an unreadable document exits 64",
        CLI,
        "    except OSError as exc:\n        raise UsageError(str(exc)) from None\n",
        "",
        ("tests/test_cli.py::TestErrorPaths::test_a_document_that_cannot_be_read_is_a_usage_error",),
    ),
    Mutant(
        "cli: a document that is not UTF-8 is a parse error",
        CLI,
        "    except UnicodeDecodeError as exc:\n",
        "    except UnicodeTranslateError as exc:\n",
        ("tests/test_cli.py::TestErrorPaths::test_a_document_that_is_not_utf8_is_a_parse_error",),
    ),
    Mutant(
        "cli: the decode error's line counts the line breaks before the bad byte",
        CLI,
        "len((data[:exc.start].decode() + \"?\").splitlines())",
        "1",
        ("tests/test_cli.py::TestErrorPaths::test_a_document_that_is_not_utf8_is_a_parse_error",),
    ),
    Mutant(
        "cli: the decode error's line counts only newlines",
        CLI,
        "len((data[:exc.start].decode() + \"?\").splitlines())",
        "data.count(b\"\\n\", 0, exc.start) + 1",
        ("tests/test_cli.py::TestErrorPaths::test_a_document_that_is_not_utf8_is_a_parse_error",),
    ),
    Mutant(
        "cli: an internal consistency failure exits 70",
        CLI,
        'f"internal consistency failure: {exc}", EXIT_INTERNAL\n',
        'f"internal consistency failure: {exc}", EXIT_USAGE\n',
        ("tests/test_cli.py::TestMinSafeSep::test_broken_chain_fails_fast_mode_and_is_refused_by_default",),
    ),
    Mutant(
        "cli: a parse error exits 65",
        CLI,
        'f"parse error: {exc}", EXIT_PARSE\n',
        'f"parse error: {exc}", EXIT_USAGE\n',
        ("tests/test_cli.py::TestErrorPaths::test_parse_error_exit_code",),
    ),
    Mutant(
        "cli: a refused scan says refused",
        CLI,
        'f"refused: {exc}"',
        'f"usage error: {exc}"',
        ("tests/test_cli.py::TestEnumMinimal::test_oversize_scan_is_refused",),
    ),
    Mutant(
        "cli: NONE exits 2",
        CLI,
        "_emit(args, EXIT_NONE,",
        "_emit(args, EXIT_OK,",
        ("tests/test_cli.py::TestMinSafeSep::test_named_sets_from_the_document",
         "tests/test_cli.py::TestMinSep::test_adjacent_terminals_have_no_separator"),
    ),
)


def run(mutant: Mutant) -> tuple[str, str]:
    """(outcome, detail), outcome one of killed, survived, error."""
    text = (ROOT / mutant.path).read_text()
    found = text.count(mutant.old)
    if found != 1:
        return "error", f"old text found {found} times in {mutant.path}"
    with tempfile.TemporaryDirectory(prefix="safesep-mutant-") as tmp:
        tmp = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp / "pyproject.toml")
        (tmp / mutant.path).write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"timed out after {TIMEOUT_S} s"
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode == 0:
        return "survived", last
    if proc.returncode == 1:
        return "killed", last
    return "error", f"pytest exited with {proc.returncode}: {last or proc.stderr.strip()[-300:]}"


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such entries: {sorted(unknown)}")
        return 1
    failures = 0
    counts = {"killed": 0, "known survivor": 0, "unexpected survivor": 0, "error": 0}
    for m in chosen:
        start = time.perf_counter()
        outcome, detail = run(m)
        if outcome == "survived":
            outcome = "known survivor" if m.survivor else "unexpected survivor"
        elif outcome == "killed" and m.survivor:
            detail += " (listed as a known survivor: update the table)"
        counts[outcome] += 1
        failures += outcome in ("unexpected survivor", "error")
        print(f"{outcome:>20}  {m.name}  [{time.perf_counter() - start:.0f} s] {detail}", flush=True)
    print("summary: " + ", ".join(f"{n} {k}" for k, n in counts.items()) + f" of {len(chosen)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
