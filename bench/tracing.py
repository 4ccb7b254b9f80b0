"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions on the query path of each
``safesep`` module.  The modules import functions from each other by name, so
a wrapper replaces the original in every ``safesep`` namespace that holds it,
and the calls between modules go through the wrappers too.  A wrapper
records one span (name, start, end, parent span, query id, size) in memory;
``dump`` writes the spans out when the run ends and ``layer_metrics`` turns
them into per-query counts and times.

A target that a later version of the program no longer has is skipped, and
the metrics read from it then stay 0.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Span name, module, attribute.  The layer is the part of the name before the
# first dot.  ``neighborhood`` and ``closed_neighborhood`` are cheap and very
# frequent, so they stay unwrapped and count as self time of their caller.
TARGETS = (
    ("atfree.scan", "safesep.atfree", "find_asteroidal_triple"),
    ("graph_core.components", "safesep.graph_core", "components"),
    ("graph_core.component_of", "safesep.graph_core", "component_of"),
    ("graph_core.induced_delete", "safesep.graph_core", "induced_delete"),
    ("graph_core.contract_connected_set", "safesep.graph_core", "contract_connected_set"),
    ("graph_core.contract_edge", "safesep.graph_core", "contract_edge"),
    ("graph_core.add_edges_from", "safesep.graph_core", "add_edges_from"),
    ("minimal_separators.close_separator", "safesep.minimal_separators", "close_separator"),
    ("minimal_separators.is_minimal_st_separator", "safesep.minimal_separators", "is_minimal_st_separator"),
    ("minimal_separators.is_safe_AB_separator", "safesep.minimal_separators", "is_safe_AB_separator"),
    ("minimal_separators.is_minimal_AB_separator", "safesep.minimal_separators", "is_minimal_AB_separator"),
    ("minimal_separators.merge_into_source", "safesep.minimal_separators", "merge_into_source"),
    ("min_weight_separator.min_weight_st_separator", "safesep.min_weight_separator", "min_weight_st_separator"),
    ("min_weight_separator.max_flow", "safesep.min_weight_separator", "FlowNetwork.max_flow"),
    ("close_to.close_to_run", "safesep.close_to", "close_to_run"),
    ("min_safe_sep.min_safe_separator", "safesep.min_safe_sep", "min_safe_separator"),
    ("min_safe_sep.build_contracted_instance", "safesep.min_safe_sep", "build_contracted_instance"),
    ("cli.main", "safesep.cli", "main"),
    ("cli.parse_graph", "safesep.cli", "parse_graph"),
)

LAYERS = ("atfree", "graph_core", "minimal_separators", "min_weight_separator", "close_to", "min_safe_sep", "cli")


def _size(name, result):
    """What a span records about its result: component sizes, and the family
    and raw-candidate counts of a close_to run."""
    if name == "graph_core.component_of":
        return len(result)
    if name == "close_to.close_to_run":
        family = getattr(result, "family", ())
        raw = getattr(result, "raw_candidates", family)
        return (len(family), len(raw))
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, query id, size]
        self.query = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = _size(name, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "safesep" or key.startswith("safesep.")]
        for name, module_name, attr in TARGETS:
            owner = sys.modules.get(module_name)
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part, None)
            leaf = attr.split(".")[-1]
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._undo.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query, size in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "query": query, "size": size}) + "\n")


def layer_metrics(spans, queries: int) -> dict:
    """Per-query counts and milliseconds for every layer, from the spans."""
    count = defaultdict(int)
    ms = defaultdict(float)
    self_ms = defaultdict(float)
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    extra = defaultdict(float)
    for i, (name, start, end, parent, _query, size) in enumerate(spans):
        duration = (end - start) * 1000.0
        count[name] += 1
        ms[name] += duration
        inner = sum((spans[c][2] - spans[c][1]) * 1000.0 for c in children[i])
        self_ms[name.split(".")[0]] += duration - inner
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "graph_core.component_of":
            extra["component_vertices"] += size or 0
        elif name == "close_to.close_to_run" and size is not None:
            extra["family"] += size[0]
            extra["raw"] += size[1]
        elif name == "minimal_separators.merge_into_source" and parent_name == "close_to.close_to_run":
            extra["anchor_passes"] += 1
        elif name == "graph_core.contract_edge" and parent_name == "close_to.close_to_run":
            extra["contraction_branch"] += 1
        elif name in ("minimal_separators.is_safe_AB_separator", "minimal_separators.is_minimal_AB_separator") \
                and parent_name == "min_safe_sep.min_safe_separator":
            extra["final_check_ms"] += duration
        elif name == "min_safe_sep.min_safe_separator":
            scanned, loop_ms = _pair_loop(spans, children[i], end)
            extra["pairs_scanned"] += scanned
            extra["pair_loop_ms"] += loop_ms

    q = max(queries, 1)
    contract = ("graph_core.contract_connected_set", "graph_core.contract_edge", "graph_core.add_edges_from")
    qualified = count["min_safe_sep.build_contracted_instance"]
    values = {
        "atfree.scans": (count["atfree.scan"], "count"),
        "atfree.scan_ms": (ms["atfree.scan"], "ms"),
        "graph_core.component_of.calls": (count["graph_core.component_of"], "count"),
        "graph_core.component_of.ms": (ms["graph_core.component_of"], "ms"),
        "graph_core.component_of.vertices": (extra["component_vertices"], "count"),
        "graph_core.components.calls": (count["graph_core.components"], "count"),
        "graph_core.components.ms": (ms["graph_core.components"], "ms"),
        "graph_core.contract.calls": (sum(count[c] for c in contract), "count"),
        "graph_core.contract.ms": (sum(ms[c] for c in contract), "ms"),
        "graph_core.induced_delete.calls": (count["graph_core.induced_delete"], "count"),
        "graph_core.induced_delete.ms": (ms["graph_core.induced_delete"], "ms"),
        "minimal_separators.close_separator.calls": (count["minimal_separators.close_separator"], "count"),
        "minimal_separators.close_separator.ms": (ms["minimal_separators.close_separator"], "ms"),
        "minimal_separators.minimality_proofs": (count["minimal_separators.is_minimal_st_separator"], "count"),
        "minimal_separators.minimality_ms": (ms["minimal_separators.is_minimal_st_separator"], "ms"),
        "minimal_separators.final_check_ms": (extra["final_check_ms"], "ms"),
        "min_weight_separator.flows": (count["min_weight_separator.min_weight_st_separator"], "count"),
        "min_weight_separator.ms": (ms["min_weight_separator.min_weight_st_separator"], "ms"),
        "min_weight_separator.max_flow_ms": (ms["min_weight_separator.max_flow"], "ms"),
        "close_to.calls": (count["close_to.close_to_run"], "count"),
        "close_to.ms": (ms["close_to.close_to_run"], "ms"),
        "close_to.raw_candidates": (extra["raw"], "count"),
        "close_to.family_size": (extra["family"], "count"),
        "close_to.anchor_passes": (extra["anchor_passes"], "count"),
        "close_to.contraction_branch": (extra["contraction_branch"], "count"),
        "min_safe_sep.pairs_scanned": (extra["pairs_scanned"], "count"),
        "min_safe_sep.pairs_qualified": (qualified, "count"),
        "min_safe_sep.pair_loop_ms": (extra["pair_loop_ms"], "ms"),
        "cli.parse_ms": (ms["cli.parse_graph"], "ms"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = (self_ms[layer], "ms")
    out = {name: (value / q, unit) for name, (value, unit) in values.items()}
    # Ratios are taken over the totals, not averaged per query.
    out["close_to.useful_ratio"] = (extra["family"] / extra["raw"] if extra["raw"] else 0.0, "ratio")
    out["min_safe_sep.qualified_ratio"] = (
        qualified / extra["pairs_scanned"] if extra["pairs_scanned"] else 0.0, "ratio")
    out["trace.spans"] = (len(spans) / q, "count")
    return out


def _pair_loop(spans, kids, end):
    """(|F_A| * |F_B|, pair-loop ms) for one min_safe_separator span: the loop
    runs from the end of the second close_to run to the first final check,
    or to the end of the query when no pair won."""
    runs = [c for c in kids if spans[c][0] == "close_to.close_to_run" and spans[c][5] is not None]
    if len(runs) < 2:
        return 0, 0.0
    family_a, family_b = spans[runs[0]][5][0], spans[runs[1]][5][0]
    start = spans[runs[1]][2]
    finals = [spans[c][1] for c in kids if spans[c][1] >= start and spans[c][0] in (
        "minimal_separators.is_safe_AB_separator", "minimal_separators.is_minimal_AB_separator")]
    stop = min(finals) if finals else end
    return family_a * family_b, (stop - start) * 1000.0
