"""The exhaustive small-graph corpus: every connected AT-free graph on at
most seven vertices, up to isomorphism.

    python tests/corpus.py            # rewrite tests/corpus_atfree.txt
    python tests/corpus.py --counts   # graph counts with and without the AT-free filter

Graphs on n vertices are built from those on n - 1 by adding vertex n - 1
with every possible neighborhood, and kept once per isomorphism class by a
canonical form.  Only AT-free graphs are extended: an induced subgraph of an
AT-free graph is AT-free, so every AT-free graph on n vertices extends one
on n - 1 (connected or not), and the connected ones are written out.  With
the filter off the counts are those of all graphs (OEIS A000088) and of
connected graphs (A001349), which checks the dedup.

The fixture holds one graph per line, ``n u-v u-v ...``, ordered by n and
then by canonical form; :func:`load` reads it back.
"""

from __future__ import annotations

import sys
from itertools import combinations, permutations, product
from pathlib import Path

if __package__:
    from .brutes import asteroidal_triple_brute
else:  # run as a script
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from brutes import asteroidal_triple_brute

from safesep import WeightedGraph

FIXTURE = Path(__file__).resolve().parent / "corpus_atfree.txt"
N_MAX = 7


def _refined(n: int, nbrs: list) -> list:
    """Vertex colors from degree-seeded color refinement: an ordered,
    isomorphism-invariant partition, as one color per vertex."""
    color = [len(nb) for nb in nbrs]
    while True:
        sigs = [(color[v], tuple(sorted(color[u] for u in nbrs[v]))) for v in range(n)]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [rank[sig] for sig in sigs]
        if len(rank) == len(set(color)):
            return new
        color = new


def canonical(n: int, edges) -> tuple:
    """The greatest adjacency code over the vertex orders that list the
    refined color classes in order; two graphs share it exactly when
    isomorphic."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    color = _refined(n, nbrs)
    cells = [[v for v in range(n) if color[v] == c] for c in sorted(set(color))]
    best = None
    for parts in product(*(permutations(cell) for cell in cells)):
        order = [v for part in parts for v in part]
        code = tuple(
            sum(1 << j for j in range(i + 1, n) if order[j] in nbrs[order[i]]) for i in range(n)
        )
        if best is None or code > best:
            best = code
    return best


def _edges_of(n: int, code: tuple) -> tuple:
    return tuple((i, j) for i in range(n) for j in range(i + 1, n) if code[i] >> j & 1)


def _connected(n: int, edges) -> bool:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for v in nbrs[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def generate(n_max: int = N_MAX, at_free: bool = True) -> dict:
    """{n: (all graphs, connected graphs)} for n = 1..n_max, each a sorted
    list of canonical edge tuples; with ``at_free`` only AT-free graphs."""
    level = [()]  # the one graph on one vertex
    out = {1: ([()], [()])}
    for n in range(2, n_max + 1):
        codes = set()
        for edges in level:
            for k in range(n):
                for nbrs in combinations(range(n - 1), k):
                    codes.add(canonical(n, edges + tuple((u, n - 1) for u in nbrs)))
        graphs = [_edges_of(n, code) for code in sorted(codes)]
        if at_free:
            graphs = [e for e in graphs if asteroidal_triple_brute(WeightedGraph(n, e)) is None]
        level = graphs
        out[n] = (graphs, [e for e in graphs if _connected(n, e)])
    return out


def load(n_max: int = N_MAX) -> list:
    """The fixture's graphs on at most n_max vertices, as WeightedGraphs
    with unit weights."""
    graphs = []
    for line in FIXTURE.read_text().splitlines():
        n, *edges = line.split()
        if int(n) <= n_max:
            graphs.append(WeightedGraph(int(n), [tuple(map(int, e.split("-"))) for e in edges]))
    return graphs


def main(args) -> int:
    if args == ["--counts"]:
        for at_free in (False, True):
            levels = generate(at_free=at_free)
            print("AT-free" if at_free else "all    ",
                  "graphs", [len(levels[n][0]) for n in levels],
                  "connected", [len(levels[n][1]) for n in levels])
        return 0
    if args:
        print(__doc__)
        return 1
    levels = generate()
    lines = [" ".join([str(n), *(f"{u}-{v}" for u, v in e)]) for n in levels for e in levels[n][1]]
    FIXTURE.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} graphs to {FIXTURE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
