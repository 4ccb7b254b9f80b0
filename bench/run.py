"""Seeded query benchmark for safesep.

    python3 bench/run.py --workload interval-fast --seed 1 --seconds 25 --trace 0

Runs one workload as a closed loop (one caller; each query is sent after the
previous one returns), checks every answer with the benchmark's own code, and
prints one JSON object as the last line of standard output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` is the separate traced run and
reports the per-layer metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_FIRST = 3
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "interval" or "fan"
    cli: bool  # CLI processes in verified mode, or fast-mode library calls
    sizes: tuple  # interval graph sizes, or fan body sizes
    mix: tuple  # queries per interval graph, as in INTERVAL_MIX
    tail_pct: float  # reported tail percentile ...
    min_queries: int  # ... with at least ten queries beyond it in every run
    fan_k: int = 0


# Queries per interval graph: (kind, |A|, |B|, position of the terminals as a
# fraction of the graph).
INTERVAL_MIX = (("exists", 1, 1, 0.5), ("exists", 2, 2, 0.3), ("exists", 3, 3, 0.7),
                ("exists", 2, 1, 0.6), ("none", 3, 2, 0.4))
CLI_MIX = (("exists", 1, 1, 0.5), ("exists", 3, 3, 0.7), ("none", 2, 1, 0.4))

WORKLOADS = {
    w.name: w
    for w in (
        # Six graphs of the middle size put the median inside one dense group
        # of costs; the larger graphs set the tail.
        Workload("interval-fast", "interval", False,
                 (2000, 3000) + (4000,) * 6 + (8000, 14000, 20000), INTERVAL_MIX, 90.0, 100),
        Workload("fan-pairs", "fan", False,
                 tuple(range(100, 230, 10)), (), 95.0, 200, fan_k=6),
        Workload("interval-verified-cli", "interval", True,
                 (90, 95, 100, 105, 110), CLI_MIX, 75.0, 40),
    )
}

# Companion queries: small instances from the same generators, checked
# against the exhaustive search.  Interval graphs use expected degree 6 here,
# so that n <= 14 still leaves room for non-adjacent terminal sets.
COMPANION_INTERVAL = ((10, 6.0), (12, 6.0), (14, 6.0))
COMPANION_MIX = (("exists", 1, 1, None), ("exists", 2, 2, None), ("none", 2, 1, None))
COMPANION_FAN = ((2, 4), (3, 2))  # (k, body size)
ATFREE_FAN = ((2, 4), (3, 2), (4, 3))


def interval_instance(n, degree, mix, gi, rng):
    """An interval graph with the queries of ``mix``; a graph that has no
    room for one of them (rare, and only at small n) is drawn again."""
    while True:
        g = inputs.interval_graph(n, rng, degree)
        try:
            return g, inputs.interval_queries(g, gi, rng, mix)
        except inputs.NoQuery:
            continue


def instances(family, specs, mix, rng):
    """Graphs and their queries.  ``specs`` holds (n, expected degree) per
    interval graph, or (k, body size) per fan gadget.  The queries take the
    graphs in turn (the first query of every graph, then the second, ...), so
    that queries of one size spread over the whole round and do not all meet
    the same stretch of machine speed."""
    graphs, per_graph = [], []
    for first, second in specs:
        if family == "interval":
            g, qs = interval_instance(first, second, mix, len(graphs), rng)
        else:
            g, A, B, candidates = inputs.fan_graph(first, second, rng)
            qs = [inputs.fan_query(g, len(graphs), A, B, candidates)]
        graphs.append(g)
        per_graph.append(qs)
    return graphs, [q for turn in zip(*per_graph) for q in turn]


def make_inputs(wl: Workload, seed: int):
    """The workload's graphs and queries; a function of the seed alone."""
    rng = random.Random(f"{wl.name}:{seed}")
    if wl.family == "interval":
        specs = [(n, 8.0) for n in wl.sizes]
    else:
        specs = [(wl.fan_k, n) for n in wl.sizes]
    return instances(wl.family, specs, wl.mix, rng)


def make_companion(wl: Workload, seed: int):
    rng = random.Random(f"{wl.name}:companion:{seed}")
    specs = COMPANION_INTERVAL if wl.family == "interval" else COMPANION_FAN
    return instances(wl.family, specs, COMPANION_MIX, rng)


def generators_at_free(seed: int) -> bool:
    """The definition-based AT-free check on small outputs of each generator."""
    rng = random.Random(f"atfree:{seed}")
    small = [inputs.interval_graph(n, rng, d) for n in (12, 16) for d in (6.0, 8.0)]
    small += [inputs.fan_graph(k, body, rng)[0] for k, body in ATFREE_FAN]
    return all(checks.is_at_free(g) for g in small)


class Library:
    """Queries through ``min_safe_separator(QueryInstance(...),
    verified=False)``, with ``verified`` passed explicitly.

    Functions are looked up on the module at call time, so the traced run
    reaches the wrapped versions.
    """

    def __init__(self, safesep):
        self.safesep = safesep

    def setup(self, graphs, tag):
        WeightedGraph = self.safesep.graph_core.WeightedGraph
        return [WeightedGraph(g.n, g.edges, g.weights) for g in graphs]

    def query(self, built, q):
        mss = self.safesep.min_safe_sep
        start = time.perf_counter()
        answer = mss.min_safe_separator(mss.QueryInstance(built[q.graph], q.A, q.B), verified=False)
        elapsed = time.perf_counter() - start
        if not answer.exists:
            return elapsed, (False, None, None)
        return elapsed, (True, tuple(sorted(answer.separator)), answer.weight)


class Cli:
    """Queries through one ``safesep --json min-safe-sep`` process each, in
    the default verified mode (no ``--fast``), started one at a time."""

    def __init__(self, safesep):
        self.safesep = safesep
        # An installed command runs from compiled bytecode, so the processes
        # may write it (into the checkout's src/) even where the environment
        # says not to; the warm-up query writes it before timing starts.
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.written = set()

    def setup(self, graphs, tag):
        paths = []
        for i, g in enumerate(graphs):
            path = OUT / f"{tag}-{i}.txt"
            inputs.write_document(path, g)
            paths.append(str(path))
        self.written.update(paths)
        return paths

    def close(self):
        """Remove the documents; every run writes them afresh."""
        for path in self.written:
            os.remove(path)
        self.written.clear()

    def argv(self, built, q):
        return ["--json", "min-safe-sep", built[q.graph], "--A", ",".join(map(str, q.A)),
                "--B", ",".join(map(str, q.B))]

    @staticmethod
    def parse(code, stdout):
        if code not in (0, 2):
            raise RuntimeError(f"safesep exited with {code}")
        doc = json.loads(stdout.strip().splitlines()[-1])
        if doc["status"] == "none":
            return (False, None, None)
        return (True, tuple(sorted(doc["separator"])), doc["weight"])

    def query(self, built, q):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "safesep.cli", *self.argv(built, q)],
                              capture_output=True, text=True, env=self.env, timeout=CLI_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        return elapsed, self.parse(proc.returncode, proc.stdout)

    def in_process(self, built, q):
        """The same query through ``safesep.cli.main(argv)`` in this process."""
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.safesep.cli.main(self.argv(built, q))
        elapsed = time.perf_counter() - start
        return elapsed, self.parse(code, buf.getvalue())


class Results:
    """Latencies and the distinct answers seen for each query."""

    def __init__(self):
        self.latencies = []
        self.order = []  # query index of each latency
        self.answers = {}  # query index -> {answer: times seen}
        self.errors = {}  # query index -> (message, times)
        self.attempted = 0

    def record(self, qi, outcome):
        self.attempted += 1
        elapsed, answer = outcome
        self.latencies.append(elapsed)
        self.order.append(qi)
        seen = self.answers.setdefault(qi, {})
        seen[answer] = seen.get(answer, 0) + 1

    def error(self, qi, exc):
        self.attempted += 1
        message, times = self.errors.get(qi, (repr(exc), 0))
        self.errors[qi] = (message, times + 1)


def closed_loop(call, queries, seconds, min_queries, results, on_query=None, between_rounds=None):
    """Whole rounds over the queries until ``seconds`` have passed and at
    least ``min_queries`` were sent.  Returns the timed wall time, which
    leaves out the ``gc.collect()`` between queries and ``between_rounds``."""
    housekeeping = 0.0
    begin = time.perf_counter()
    while True:
        if between_rounds is not None and results.attempted:
            mark = time.perf_counter()
            between_rounds()
            housekeeping += time.perf_counter() - mark
        for qi, q in enumerate(queries):
            mark = time.perf_counter()
            gc.collect()
            if on_query is not None:
                on_query(qi)
            housekeeping += time.perf_counter() - mark
            try:
                results.record(qi, call(q))
            except Exception as exc:  # a crashed query counts as failed
                results.error(qi, exc)
        if time.perf_counter() - begin >= seconds and results.attempted >= min_queries:
            return time.perf_counter() - begin - housekeeping


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def check_results(graphs, adjs, queries, results_list, log):
    """Check every distinct answer once; returns the number of failed queries."""
    verdicts = {}
    failed = 0
    for results in results_list:
        for qi, (message, times) in results.errors.items():
            log(f"query {qi} raised {message}")
            failed += times
        for qi, seen in results.answers.items():
            q = queries[qi]
            for answer, times in seen.items():
                if (qi, answer) not in verdicts:
                    reason = check_one(graphs[q.graph], adjs[q.graph], q, answer)
                    verdicts[(qi, answer)] = reason
                    if reason is not None:
                        log(f"query {qi} A={q.A} B={q.B}: {reason}")
                if verdicts[(qi, answer)] is not None:
                    failed += times
    return failed


def check_one(graph, adj, q, answer):
    exists, separator, weight = answer
    lower = 0
    if exists:
        window = None
        if graph.intervals:
            lo = max(0, min(q.A + q.B) - 40)
            window = range(lo, min(graph.n, max(q.A + q.B) + 40))
        lower = checks.min_cut_lower_bound(adj, graph.weights, q.A, q.B, window)
    return checks.check_answer(graph, adj, q, exists, separator, weight, lower)


def witnesses_safe(adjs, queries) -> bool:
    """Whether every separator known by construction is safe, by traversal."""
    return all(checks.safe_sides(adjs[q.graph], q.A, q.B, q.witness) is not None
               for q in queries if q.witness is not None)


def run_companion(wl, runner, seed, log):
    """Companion queries through the workload's own path, against the
    exhaustive search.  Returns (attempted, failed)."""
    graphs, queries = make_companion(wl, seed)
    built = runner.setup(graphs, f"companion-{wl.name}-{seed}")
    failed = 0
    for q in queries:
        graph = graphs[q.graph]
        try:
            _, (exists, separator, weight) = runner.query(built, q)
        except Exception as exc:
            log(f"companion query {q} raised {exc!r}")
            failed += 1
            continue
        best = checks.exhaustive_min_safe(graph, q.A, q.B)
        reason = None
        if exists != (best is not None) or exists != q.exists:
            reason = f"existence {exists}, exhaustive search says {best is not None}"
        elif exists and weight != best:
            reason = f"weight {weight}, exhaustive optimum {best}"
        else:
            reason = checks.check_answer(graph, graph.adjacency(), q, exists, separator, weight, 0)
        if reason is not None:
            log(f"companion query A={q.A} B={q.B}: {reason}")
            failed += 1
    return len(queries), failed


def load_program():
    """Import safesep from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import safesep
        import safesep.cli
    except ImportError as exc:
        sys.exit(f"cannot import safesep from {src}: {exc}")
    if Path(safesep.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"safesep was imported from {safesep.__file__}, not from {src}")
    return safesep


class SetUp:
    """The workload's inputs: generated, then built into graphs (library) or
    written as documents (CLI), and timed on every build."""

    def __init__(self, wl, runner, seed, tag):
        self.wl, self.runner, self.seed, self.tag = wl, runner, seed, tag
        self.times = []
        self.graphs = self.queries = self.built = None

    def build(self):
        self.graphs = self.queries = self.built = None  # release the last build first
        gc.collect()
        start = time.perf_counter()
        graphs, queries = make_inputs(self.wl, self.seed)
        built = self.runner.setup(graphs, self.tag)
        self.times.append(time.perf_counter() - start)
        self.graphs, self.queries, self.built = graphs, queries, built
        gc.freeze()  # the collector need not rescan the graphs during queries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    safesep = load_program()
    OUT.mkdir(exist_ok=True)

    def log(message):
        print(message, file=sys.stderr)

    runner = Cli(safesep) if wl.cli else Library(safesep)
    tag = f"{wl.name}-{args.seed}"

    # Set-up runs SETUP_FIRST times before the timed loop and again between
    # its rounds, so that setup_s, the median, samples the whole run.
    setup = SetUp(wl, runner, args.seed, tag)
    for _ in range(1 if args.trace else SETUP_FIRST):
        setup.build()
    queries = setup.queries

    def call(q):
        return runner.query(setup.built, q)

    call(queries[0])  # warm-up

    if args.trace:
        metrics, results_list = traced_run(wl, runner, setup.built, queries, args, call)
    else:
        results = Results()
        wall = closed_loop(call, queries, args.seconds, wl.min_queries, results, between_rounds=setup.build)
        results_list = [results]
        with open(OUT / f"latencies-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump({"query": results.order, "seconds": results.latencies}, fh)
        lat_ms = [x * 1000.0 for x in results.latencies]
        peak = resource.getrusage(resource.RUSAGE_CHILDREN if wl.cli else resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setup.times), "s"),
            "query_p50_ms": (statistics.median(lat_ms), "ms"),
            "query_tail_ms": (percentile(lat_ms, wl.tail_pct), "ms"),
            "queries_per_s": (len(lat_ms) / wall, "1/s"),
            "peak_rss_mb": (peak / 1024.0, "MB"),
        }

    adjs = [g.adjacency() for g in setup.graphs]
    correct = generators_at_free(args.seed) and witnesses_safe(adjs, queries)
    if not correct:
        log("benchmark input error: a generator output is not AT-free, or a known separator is not safe")
    failed = check_results(setup.graphs, adjs, queries, results_list, log)
    companion_attempted, companion_failed = run_companion(wl, runner, args.seed, log)
    if wl.cli:
        runner.close()
    attempted = sum(r.attempted for r in results_list) + companion_attempted
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed + companion_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints each metric
    with its unit and the attempted and failed counts."""
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}")
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary[name] = result
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(summary))
    return 0


def traced_run(wl, runner, built, queries, args, call):
    """Untraced and traced rounds in turn, so that both meet the same
    stretches of machine speed; per-layer metrics are per traced query."""
    untraced, traced = Results(), Results()
    overhead_ms = []
    untraced_call = traced_call = call
    if wl.cli:
        # Untraced: a process per query, then the same query in-process.
        # Traced: in-process only.
        def untraced_call(q):
            wall, answer = runner.query(built, q)
            inner, inner_answer = runner.in_process(built, q)
            overhead_ms.append((wall - inner) * 1000.0)
            if inner_answer != answer:
                raise RuntimeError("in-process answer differs from the process answer")
            return inner, answer

        def traced_call(q):
            return runner.in_process(built, q)

    tracer = Tracer()

    def mark(qi):
        tracer.query = traced.attempted

    begin = time.perf_counter()
    while time.perf_counter() - begin < args.seconds:
        closed_loop(untraced_call, queries, 0, 0, untraced)  # one round
        tracer.install()
        try:
            closed_loop(traced_call, queries, 0, 0, traced, on_query=mark)
        finally:
            tracer.uninstall()
    tracer.dump(OUT / f"trace-{wl.name}-{args.seed}.jsonl")
    metrics = layer_metrics(tracer.spans, len(traced.latencies))
    untraced_p50 = statistics.median(untraced.latencies) * 1000.0
    traced_p50 = statistics.median(traced.latencies) * 1000.0
    metrics["cli.process_overhead_ms"] = (statistics.median(overhead_ms) if overhead_ms else 0.0, "ms")
    metrics["trace.untraced_p50_ms"] = (untraced_p50, "ms")
    metrics["trace.traced_p50_ms"] = (traced_p50, "ms")
    metrics["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms")
    metrics["trace.queries"] = (len(traced.latencies), "count")
    return metrics, [untraced, traced]


if __name__ == "__main__":
    sys.exit(main())
