"""The full sweep of the small-graph corpus against the exhaustive oracles.

    python tests/sweep.py              # every graph of tests/corpus_atfree.txt
    python tests/sweep.py N_MAX        # the graphs on at most N_MAX vertices
    python tests/sweep.py --shard I/K  # every K-th of those graphs from the I-th

Shards split one sweep across separate runs, started by hand and each with
its own summary; their counts add up to the unsharded sweep's.

Two parts, each with a one-line summary:

* ``close``: fast-mode ``close_to_run(g, s, t, A)`` for every ordered pair
  (s, t) and every A of at most three other vertices, against
  ``close_family_brute``, and each run against :func:`unproven`.  The
  oracle's subset scan runs once per (g, s, t), not once per A (see
  :func:`one_scan_per_pair`).  It
  counts the runs that reached each branch of ``close_to_run``, by the
  names in the run's ``path``, and the raw candidates (see
  :func:`candidate_run`) that the filter drops: for A outside C_s, and as
  dominated.
* ``safe``: verified ``min_safe_separator`` for every pair of disjoint sets
  A and B of one or two vertices, against ``min_safe_brute``, once with unit
  weights, once with the weights 1 + (5v mod 7) and once with the many ties
  of 1 + (v mod 2).  It counts the queries
  with an answer, the close-family pairs, the pairs that fail to qualify,
  and the graphs that verified mode proves AT-free by the fallback scan
  rather than an ordering (the five-cycle is the smallest).

The sweep is not part of the tier-1 suite, which runs the graphs on at most
six vertices through :func:`close_sweep`; exit status 1 on a disagreement.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

if __package__:
    from .brutes import is_safe_ab_separator_brute, side_with_boundary
    from .corpus import load
else:  # run as a script
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from brutes import is_safe_ab_separator_brute, side_with_boundary
    from corpus import load

from safesep import QueryInstance, WeightedGraph, family_sorted, min_safe_separator, oracle
from safesep.atfree import _has_cocomparability_ordering
from safesep.oracle import close_family_brute, min_safe_brute

# ``safesep.close_to`` is the function of that name; the module is reached
# through importlib.
close_to_module = importlib.import_module("safesep.close_to")
min_safe_module = importlib.import_module("safesep.min_safe_sep")


@contextmanager
def one_scan_per_pair():
    """Let ``close_family_brute`` scan the vertex subsets once per (g, s, t)
    rather than once per A: the oracle's ``enumerate_minimal_st_separators``
    repeats its answer for the (g, s, t) it was last asked.  The scan and
    the definition-based filter that reads it are unchanged."""
    real = oracle.enumerate_minimal_st_separators
    memo = {}

    def memoised(g, s, t):
        key = (g, s, t)
        if key not in memo:
            memo.clear()
            memo[key] = real(g, s, t)
        return memo[key]

    oracle.enumerate_minimal_st_separators = memoised
    try:
        yield
    finally:
        oracle.enumerate_minimal_st_separators = real


def candidate_run(g: WeightedGraph, s, t, A, R=frozenset()) -> tuple:
    """(run, candidates) of ``close_to_run(g, s, t, A, R)``: the raw
    candidates that the run handed its definitional filter, sorted and
    without repeats, or its family when it returned before the filter (none
    at the first two returns, the lone candidate at the shortcut)."""
    handed = []
    real = close_to_module._definition_filter

    def capturing(g, s, A, candidates, *rest):
        handed.append(candidates)
        return real(g, s, A, candidates, *rest)

    close_to_module._definition_filter = capturing
    try:
        run = close_to_module.close_to_run(g, s, t, A, R)
    finally:
        close_to_module._definition_filter = real
    return run, family_sorted(handed[0]) if handed else run.family


def unproven(g: WeightedGraph, s, t, A, R, run, candidates) -> list:
    """The facts that the definitional filter trusts and that fail for one
    ``close_to_run`` on G - R, checked from the definitions: every one of
    its candidates S (see :func:`candidate_run`) avoids s and t, separates
    them, and has N(C_t) - R = S, and N(C_s) - R = S as well if A lies
    inside C_s (the lemma of the close_to module); every member is a
    minimal s,t-separator with A on its s-side, whose side the run reports;
    and no member's s-side strictly holds another's."""
    faults = []
    for S in candidates:
        c_t, n_t = side_with_boundary(g, t, S | R)
        c_s, n_s = side_with_boundary(g, s, S | R)
        if s in S or t in S or s in c_t or n_t - R != S or (A <= c_s and n_s - R != S):
            faults.append(("candidate", S))
    sides = []
    for S in run.family:
        c_s, n_s = side_with_boundary(g, s, S | R)
        if t in c_s or not A <= c_s or n_s - R != S or side_with_boundary(g, t, S | R)[1] - R != S:
            faults.append(("member", S))
        sides.append(c_s)
    if run.sides != tuple(sides):
        faults.append("sides")
    if any(x < y for x in sides for y in sides):
        faults.append("a dominated member")
    return faults


# The names of ``CloseToRun.path``: a run reaches exactly one of the first five.
PATHS = ("adjacent", "gate", "shortcut", "anchor at s", "chain", "several anchors", "contraction", "rest")


def close_sweep(graphs) -> tuple:
    """(counts, disagreements) of the close part over graphs."""
    counts = Counter(dict.fromkeys(("calls", *PATHS, "raw candidates", "A outside C_s", "dominated"), 0))
    bad = []
    with one_scan_per_pair():
        for g in graphs:
            for s in g.vertices:
                for t in g.vertices:
                    if s == t:
                        continue
                    others = [v for v in g.vertices if v not in (s, t)]
                    for k in range(4):
                        for A in combinations(others, k):
                            A = frozenset(A)
                            run, raw = candidate_run(g, s, t, A)
                            counts["calls"] += 1
                            counts.update(run.path)
                            expected = close_family_brute(g, s, t, A)
                            faults = unproven(g, s, t, A, frozenset(), run, raw)
                            if run.family != expected or faults:
                                bad.append((g, s, t, sorted(A), run.family, expected, faults))
                            for S in raw:
                                counts["raw candidates"] += 1
                                if not A <= side_with_boundary(g, s, S)[0]:
                                    counts["A outside C_s"] += 1
                                elif S not in run.family:
                                    counts["dominated"] += 1
    return counts, bad


WEIGHTINGS = {"unit": lambda v: 1, "1 + 5v mod 7": lambda v: 1 + 5 * v % 7, "1 + v mod 2": lambda v: 1 + v % 2}


def weighted(g: WeightedGraph, weighting: str) -> WeightedGraph:
    return WeightedGraph(g.n, g.edges(), [WEIGHTINGS[weighting](v) for v in range(g.n)])


def safe_sweep(graphs, weighting: str) -> tuple:
    """(counts, disagreements) of the safe part over graphs, weighted."""
    counts = Counter(dict.fromkeys(
        ("fallback scans", "queries", "answers", "pairs", "pairs not qualifying"), 0))
    bad = []
    runs = []
    real = min_safe_module.close_to_run

    def recording(*args):
        runs.append(real(*args))
        return runs[-1]

    min_safe_module.close_to_run = recording
    try:
        for g in graphs:
            g = weighted(g, weighting)
            counts["fallback scans"] += not _has_cocomparability_ordering(g)
            small = [frozenset(c) for k in (1, 2) for c in combinations(g.vertices, k)]
            for A in small:
                for B in small:
                    if A & B:
                        continue
                    runs.clear()
                    answer = min_safe_separator(QueryInstance(g, A, B), verified=True)
                    expected = min_safe_brute(g, A, B)
                    counts["queries"] += 1
                    counts["answers"] += answer.exists
                    if len(runs) == 2:
                        for c_sA in runs[0].sides:
                            for S_B in runs[1].family:
                                counts["pairs"] += 1
                                counts["pairs not qualifying"] += not S_B.isdisjoint(c_sA)
                    if (answer.exists, answer.weight) != (expected.exists, expected.weight) or (
                        answer.exists and not is_safe_ab_separator_brute(g, A, B, answer.separator)
                    ):
                        bad.append((g, sorted(A), sorted(B), answer, expected))
    finally:
        min_safe_module.close_to_run = real
    return counts, bad


def shard(text: str) -> slice:
    """The graphs of shard ``I/K``: every K-th from the I-th, 0 <= I < K."""
    i, k = map(int, text.split("/"))
    if not 0 <= i < k:
        raise argparse.ArgumentTypeError(f"shard {text}: need 0 <= I < K")
    return slice(i, None, k)


def main(args) -> int:
    parser = argparse.ArgumentParser(description="Sweep the small-graph corpus against the oracles.")
    parser.add_argument("n_max", nargs="?", type=int, default=7)
    parser.add_argument("--shard", type=shard, default=slice(None), metavar="I/K")
    opts = parser.parse_args(args)
    graphs = load(opts.n_max)[opts.shard]
    failed = False
    parts = [("close", lambda: close_sweep(graphs))]
    parts += [(f"safe ({w})", lambda w=w: safe_sweep(graphs, w)) for w in WEIGHTINGS]
    for name, sweep in parts:
        start = time.perf_counter()
        counts, bad = sweep()
        for case in bad[:5]:
            print("  disagreement:", case)
        failed |= bool(bad)
        summary = ", ".join(f"{k} {v}" for k, v in counts.items())
        print(f"{name}: {len(graphs)} graphs, {summary}, {len(bad)} disagreements "
              f"[{time.perf_counter() - start:.0f} s]", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
