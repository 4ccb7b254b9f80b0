"""Command-line front end.

Reads graphs from a small line-oriented document format, runs the separator
queries, and emits either plain text or a single JSON document per
invocation, with the keys status, separator, weight, family and runtime_ms;
a check-atfree witness adds ``witness`` (``triple``, ``path_ab``,
``path_ac``, ``path_bc``), and verify adds ``instances``, ``checked`` and
``mismatches``, with runtime_ms null.  ``gen`` writes a graph document,
meant for a file, with or without ``--json``.  Exit codes follow batch
conventions: 0 success-with-answer, 1 property-false (e.g. a witness that
the graph is not AT-free, or verify mismatches), 2 answer-is-none, 64 usage
errors (including unreadable documents and refused oversize brute-force
scans), 65 parse errors (including documents that are not UTF-8), 70
internal consistency failures.

Graph document format, one directive per line (``#`` starts a comment):

    n=<int>            vertex count; vertices are 0..n-1; must come first
    w <int> ...        vertex weights, n values total (may span lines;
                       omitted entirely = all weights 1)
    e <u> <v>          an edge, u < v, no duplicates
    set <name> <ids>   a named vertex set, usable for --A/--B
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .atfree import find_asteroidal_triple
from .close_to import close_to
from .errors import InternalConsistencyError, NoSeparatorError
from .graph_core import WeightedGraph
from .min_safe_sep import QueryInstance, min_safe_separator
from .min_weight_separator import min_weight_st_separator
from .oracle import (
    SubsetCapError,
    close_family_brute,
    enumerate_minimal_st_separators,
    gen_atfree_rejection,
    gen_interval,
    min_safe_brute,
    sample_terminals,
)

EXIT_OK = 0
EXIT_PROPERTY_FALSE = 1
EXIT_NONE = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_INTERNAL = 70


class ParseError(Exception):
    """Malformed graph document; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_graph(text: str):
    """Parse a graph document into (WeightedGraph, named vertex sets)."""
    n = None
    weights = None
    edges = []
    edge_seen = set()
    named = {}

    def need_n(line_no):
        if n is None:
            raise ParseError(line_no, "directive before the n=<int> header")

    def vertex(tok: str, line_no: int) -> int:
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(line_no, f"expected a vertex id, got {tok!r}") from None
        if not 0 <= v < n:
            raise ParseError(line_no, f"vertex {v} out of range [0, {n})")
        return v

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            if n is not None:
                raise ParseError(line_no, "duplicate n= header")
            try:
                n = int(line[2:])
            except ValueError:
                raise ParseError(line_no, f"bad vertex count {line[2:]!r}") from None
            if n < 1:
                raise ParseError(line_no, "vertex count must be positive")
            continue
        fields = line.split()
        tag, args = fields[0], fields[1:]
        if tag == "w":
            need_n(line_no)
            weights = weights or []
            for tok in args:
                try:
                    w = int(tok)
                except ValueError:
                    raise ParseError(line_no, f"bad weight {tok!r}") from None
                if w < 1:
                    raise ParseError(line_no, f"weight {w} out of range (must be >= 1)")
                weights.append(w)
            if len(weights) > n:
                raise ParseError(line_no, f"more than {n} weights")
        elif tag == "e":
            need_n(line_no)
            if len(args) != 2:
                raise ParseError(line_no, "edge needs exactly two endpoints")
            u, v = (vertex(tok, line_no) for tok in args)
            if u == v:
                raise ParseError(line_no, f"self-loop at {u}")
            if u > v:
                raise ParseError(line_no, f"edge endpoints must satisfy u < v, got {u} {v}")
            if (u, v) in edge_seen:
                raise ParseError(line_no, f"duplicate edge {u} {v}")
            edge_seen.add((u, v))
            edges.append((u, v))
        elif tag == "set":
            need_n(line_no)
            if not args:
                raise ParseError(line_no, "set needs a name")
            name = args[0]
            if name in named:
                raise ParseError(line_no, f"duplicate set name {name!r}")
            named[name] = frozenset(vertex(tok, line_no) for tok in args[1:])
        else:
            raise ParseError(line_no, f"unknown directive {tag!r}")

    if n is None:
        raise ParseError(1, "missing n=<int> header")
    if weights is not None and len(weights) != n:
        raise ParseError(1, f"expected {n} weights, got {len(weights)}")
    return WeightedGraph(n, edges, weights), named


def serialize_graph(g: WeightedGraph, named=None) -> str:
    """Canonical document for a graph; parse_graph round-trips it."""
    lines = [f"n={g.n}"]
    lines.append("w " + " ".join(str(g.weight(v)) for v in range(g.n)))
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    for name in sorted(named or {}):
        ids = " ".join(str(v) for v in sorted(named[name]))
        lines.append(f"set {name} {ids}".rstrip())
    return "\n".join(lines) + "\n"


def _resolve_set(spec: str, named: dict, what: str) -> frozenset:
    """A --A/--B argument is either a named set from the document or a
    comma/space-separated id list."""
    if spec in named:
        return named[spec]
    try:
        return frozenset(int(t) for t in spec.replace(",", " ").split())
    except ValueError:
        raise UsageError(
            f"{what}: {spec!r} is neither a named set nor a list of vertex ids"
        ) from None


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_graph(args):
    """(graph, named sets) of the document args.file, ``-`` for stdin."""
    try:
        if args.file != "-":
            with open(args.file, "rb") as fh:
                data = fh.read()
        else:  # a stand-in for stdin may be a text stream with no byte buffer
            data = sys.stdin.buffer.read() if hasattr(sys.stdin, "buffer") else sys.stdin.read().encode()
        text = data.decode("utf-8")
    except OSError as exc:
        raise UsageError(str(exc)) from None
    except UnicodeDecodeError as exc:
        # the bad byte's line, numbered by str.splitlines as parse_graph numbers lines
        raise ParseError(len((data[:exc.start].decode() + "?").splitlines()), f"not UTF-8: {exc.reason}") from None
    return parse_graph(text)


def _emit(args, code, status, lines, started, separator=None, weight=None, family=None, **extra) -> int:
    """Print one JSON document (the five common keys, any extra keys of the
    command, runtime_ms null when started is None) or the plain lines, and
    return the exit code."""
    if args.json:
        payload = {
            "status": status,
            "separator": sorted(separator) if separator is not None else None,
            "weight": weight,
            "family": [sorted(S) for S in family] if family is not None else None,
            "runtime_ms": round((time.perf_counter() - started) * 1000.0, 3) if started is not None else None,
            **extra,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def _emit_separator(args, started, separator, weight) -> int:
    """A separator with its weight, or NONE when separator is None."""
    if separator is None:
        return _emit(args, EXIT_NONE, "none", ["none"], started)
    lines = [f"separator {' '.join(map(str, sorted(separator)))}".rstrip(), f"weight {weight}"]
    return _emit(args, EXIT_OK, "ok", lines, started, separator, weight)


def _emit_family(args, started, family) -> int:
    lines = [f"family {len(family)}"]
    lines.extend(" ".join(map(str, sorted(S))) if S else "(empty)" for S in family)
    return _emit(args, EXIT_OK, "ok", lines, started, family=family)


def _cmd_check_atfree(args) -> int:
    g, _ = _read_graph(args)
    started = time.perf_counter()
    witness = find_asteroidal_triple(g)
    if witness is None:
        return _emit(args, EXIT_OK, "atfree", ["atfree"], started)
    triple = sorted(witness.triple)
    lines = [f"asteroidal triple: {' '.join(map(str, triple))}"]
    paths = {"path_ab": list(witness.path_ab), "path_ac": list(witness.path_ac), "path_bc": list(witness.path_bc)}
    return _emit(args, EXIT_PROPERTY_FALSE, "witness", lines, started, witness={"triple": triple, **paths})


def _cmd_min_safe_sep(args) -> int:
    g, named = _read_graph(args)
    A = _resolve_set(args.A, named, "--A")
    B = _resolve_set(args.B, named, "--B")
    started = time.perf_counter()
    answer = min_safe_separator(QueryInstance(g, A, B), verified=not args.fast)
    return _emit_separator(args, started, answer.separator, answer.weight)


def _cmd_close_to(args) -> int:
    g, named = _read_graph(args)
    A = _resolve_set(args.A, named, "--A") if args.A is not None else frozenset()
    started = time.perf_counter()
    return _emit_family(args, started, close_to(g, args.s, args.t, A, verified=not args.fast))


def _cmd_min_sep(args) -> int:
    g, _ = _read_graph(args)
    started = time.perf_counter()
    try:
        sep, weight = min_weight_st_separator(g, args.s, args.t)
    except NoSeparatorError:
        sep = weight = None
    return _emit_separator(args, started, sep, weight)


def _cmd_enum_minimal(args) -> int:
    g, _ = _read_graph(args)
    started = time.perf_counter()
    return _emit_family(args, started, enumerate_minimal_st_separators(g, args.s, args.t))


def _cmd_gen(args) -> int:
    if args.family == "interval":
        g = gen_interval(args.n, args.wmax, args.seed)
    else:
        g = gen_atfree_rejection(args.n, args.wmax, args.seed)
    sys.stdout.write(serialize_graph(g))
    return EXIT_OK


def _verify_one(seed, n, wmax):
    """One verify-batch instance.  Returns (seed, ok, detail)."""
    rng = random.Random(f"verify:{seed}")
    if seed % 2 == 0:
        g = gen_interval(n, wmax, seed)
    else:
        g = gen_atfree_rejection(n, wmax, seed)
    picked = sample_terminals(g, rng)
    if picked is None:
        return seed, True, "skipped (no admissible terminals)"
    A, B = picked
    fast = min_safe_separator(QueryInstance(g, A, B), verified=True)
    brute = min_safe_brute(g, A, B)
    if fast.exists != brute.exists or fast.weight != brute.weight:
        return seed, False, (
            f"n={n} A={sorted(A)} B={sorted(B)}: "
            f"algorithm {fast.separator} w={fast.weight}, "
            f"oracle {brute.separator} w={brute.weight}"
        )
    s, t = min(A), min(B)
    fam = close_to(g, s, t, A - {s}, verified=True)
    fam_brute = close_family_brute(g, s, t, A - {s})
    if fam != fam_brute:
        return seed, False, f"close families differ for A={sorted(A)}, s={s}, t={t}"
    return seed, True, "ok"


def _cmd_verify(args) -> int:
    if args.n > 12:
        raise UsageError("verify needs n <= 12 so the oracle stays feasible")
    if args.seeds < 1:
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    results = [_verify_one(seed, args.n, args.wmax) for seed in range(args.seeds)]
    failures = [(seed, detail) for seed, ok, detail in results if not ok]
    checked = sum(1 for _, ok, detail in results if ok and detail == "ok")
    lines = [f"verified {checked}/{len(results)} instances"]
    lines.extend(f"mismatch at seed {seed}: {detail}" for seed, detail in failures)
    return _emit(
        args, EXIT_PROPERTY_FALSE if failures else EXIT_OK, "mismatch" if failures else "ok", lines, None,
        instances=len(results), checked=checked, mismatches=[{"seed": seed, "detail": d} for seed, d in failures],
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="safesep", description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="emit one JSON document (all commands but gen)")
    sub = parser.add_subparsers(dest="command", required=True)
    file_arg, terminals, fast = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    file_arg.add_argument("file")
    terminals.add_argument("--s", type=int, required=True)
    terminals.add_argument("--t", type=int, required=True)
    fast.add_argument("--fast", action="store_true", help="skip the AT-free check")

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    command("check-atfree", _cmd_check_atfree, "report an asteroidal triple if any", file_arg)
    p = command("min-safe-sep", _cmd_min_safe_sep, "minimum-weight safe A,B-separator", file_arg, fast)
    p.add_argument("--A", required=True, help="named set or vertex ids")
    p.add_argument("--B", required=True, help="named set or vertex ids")
    p = command("close-to", _cmd_close_to, "family of minimal separators close to sA", file_arg, terminals, fast)
    p.add_argument("--A", default=None, help="named set or vertex ids (default empty)")
    command("min-sep", _cmd_min_sep, "minimum-weight s,t-separator", file_arg, terminals)
    command("enum-minimal", _cmd_enum_minimal, "all minimal s,t-separators (brute force)", file_arg, terminals)

    p = command("gen", _cmd_gen, "generate a test instance document")
    p.add_argument("--family", choices=("interval", "reject"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--wmax", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = command("verify", _cmd_verify, "batch oracle-equivalence check")
    p.add_argument("--seeds", type=int, required=True, help="number of instances")
    p.add_argument("--n", type=int, required=True, help="vertices per instance")
    p.add_argument("--wmax", type=int, default=10)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError) as exc:
        failure, code = f"usage error: {exc}", EXIT_USAGE
    except ParseError as exc:
        failure, code = f"parse error: {exc}", EXIT_PARSE
    except SubsetCapError as exc:
        failure, code = f"refused: {exc}", EXIT_USAGE
    except InternalConsistencyError as exc:
        failure, code = f"internal consistency failure: {exc}", EXIT_INTERNAL
    print(failure, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
