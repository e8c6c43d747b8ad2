"""The traced run: spans around the calls into each layer's public functions.

The traced decision calls the same functions that ``decide_cofinite``
calls, in the same order, each through ``Tracer.call``, which records a
span (name, start, end, parent, operation id) in memory.  A layer's self
time is its span's duration minus the time its child spans cover.  Memory
peaks of the witness stages come from a separate pass under ``tracemalloc``
(``MemoryProbe``), so that its cost stays out of the timings.
"""

from __future__ import annotations

import gzip
import statistics
import tracemalloc
from collections import defaultdict
from time import perf_counter

from star_frobenius import (
    CofiniteResult,
    Nfa,
    cnf_to_regex,
    numeric_frobenius,
    parse_dimacs,
    parse_nfa,
    parse_regex,
)
from star_frobenius.automata import (
    complement,
    glushkov_star,
    is_infinite,
    longest_accepted,
    star_closure,
    subset_construct,
    trim_useful,
    window_accepts,
)
from star_frobenius.regex import alphabet_of, symbol_length

# Span name -> per-layer metric that its self time adds to.
SPAN_METRICS = {
    "regex.parse_regex": "regex.parse_ms",
    "regex.alphabet_of": "regex.tree_ms",
    "regex.symbol_length": "regex.tree_ms",
    "reduction.parse_dimacs": "reduction.parse_dimacs_ms",
    "reduction.cnf_to_regex": "reduction.cnf_to_regex_ms",
    "automata.parse_nfa": "automata.parse_nfa_ms",
    "automata.star_closure": "automata.star_closure_ms",
    "automata.glushkov_star": "automata.glushkov_star_ms",
    "automata.subset_construct": "automata.subset_ms",
    "automata.complement": "automata.complement_ms",
    "automata.trim_useful": "automata.trim_ms",
    "automata.is_infinite": "automata.cycle_ms",
    "automata.window_accepts": "automata.window_ms",
    "automata.longest_accepted": "automata.longest_ms",
    "frobenius.decide_cofinite": "frobenius.decide_ms",
    "frobenius.numeric_frobenius": "frobenius.numeric_ms",
}
PARSE_SPANS = {"regex.parse_regex", "automata.parse_nfa"}
WITNESS_SPANS = {
    "automata.window_accepts": "automata.window_peak_mb",
    "automata.longest_accepted": "automata.longest_peak_mb",
}
COUNTS = [
    "regex.symbols",
    "automata.nfa_states",
    "automata.dfa_states",
    "automata.dfa_edges",
    "automata.trimmed_states",
    "automata.useful_ratio",
    "automata.window_len",
    "automata.longest_len",
    "frobenius.numeric_g",
]


class Tracer:
    """Spans and counts of a run, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, object] | None] = []
        self.counts: dict[object, dict[str, float]] = defaultdict(dict)
        self.op: object = None
        self._parent = -1

    def call(self, name: str, fn, *args):
        index = len(self.spans)
        self.spans.append(None)
        parent, self._parent = self._parent, index
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._parent = parent
            self.spans[index] = (name, start, end, parent, self.op)

    def count(self, name: str, value: float) -> None:
        self.counts[self.op][name] = value

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


class MemoryProbe:
    """Stands in for a Tracer: runs the stages plainly and records the
    tracemalloc peak of each witness stage."""

    def __init__(self):
        self.peaks: dict[str, float] = defaultdict(float)

    def call(self, name: str, fn, *args):
        if name not in WITNESS_SPANS:
            return fn(*args)
        tracemalloc.start()
        try:
            result = fn(*args)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        metric = WITNESS_SPANS[name]
        self.peaks[metric] = max(self.peaks[metric], peak)
        return result

    def count(self, name: str, value: float) -> None:
        pass


def traced_decide(tr, source) -> CofiniteResult:
    """decide_cofinite(source), one traced call per stage."""
    if isinstance(source, Nfa):
        effective = source.alphabet
        star_nfa = tr.call("automata.star_closure", star_closure, source)
        t = None
    else:
        effective = tr.call("regex.alphabet_of", alphabet_of, source)
        star_nfa = tr.call("automata.glushkov_star", glushkov_star, source, effective)
        t = tr.call("regex.symbol_length", symbol_length, source)
        tr.count("regex.symbols", t)
    dfa = tr.call("automata.subset_construct", subset_construct, star_nfa, effective)
    comp = tr.call("automata.complement", complement, dfa)
    n_prime = len(tr.call("automata.trim_useful", trim_useful, comp).states)
    tr.count("automata.nfa_states", star_nfa.state_count)
    tr.count("automata.dfa_states", dfa.state_count)
    tr.count("automata.dfa_edges", len(dfa.transitions))
    tr.count("automata.trimmed_states", n_prime)
    tr.count("automata.useful_ratio", n_prime / dfa.state_count)
    sizes = dict(
        nfa_states=star_nfa.state_count,
        dfa_states=dfa.state_count,
        trimmed_complement_states=n_prime,
        symbol_count=t,
    )
    if tr.call("automata.is_infinite", is_infinite, comp):
        window = tr.call(
            "automata.window_accepts", window_accepts, comp, n_prime, 2 * n_prime
        )
        tr.count("automata.window_len", window[0])
        return CofiniteResult(cofinite=False, window_witness=window, **sizes)
    longest = tr.call("automata.longest_accepted", longest_accepted, comp)
    if longest is None:
        return CofiniteResult(cofinite=True, **sizes)
    tr.count("automata.longest_len", longest[0])
    return CofiniteResult(
        cofinite=True, frobenius_length=longest[0], witness=longest[1], **sizes
    )


def _traced_ast(tr, ast):
    return traced_decide(tr, ast), ast


def _traced_text(tr, text: str):
    if text.startswith("states"):
        source = tr.call("automata.parse_nfa", parse_nfa, text)
    else:
        source = tr.call("regex.parse_regex", parse_regex, text)
    return traced_decide(tr, source), source


def _traced_numeric(tr, coins):
    result = tr.call("frobenius.numeric_frobenius", numeric_frobenius, coins)
    tr.count("frobenius.numeric_g", result.g)
    return result, None


def _traced_reduce(tr, text: str):
    cnf = tr.call("reduction.parse_dimacs", parse_dimacs, text)
    return tr.call("reduction.cnf_to_regex", cnf_to_regex, cnf)


# Per workload: the traced set-up (text -> program input) and the traced
# operation, which returns its result and the input of decide_cofinite.
TRACED = {
    "sat-window": (_traced_reduce, _traced_ast),
    "unsat-longest": (_traced_reduce, _traced_ast),
    "unary-coins": (
        lambda tr, text: tr.call("regex.parse_regex", parse_regex, text),
        _traced_ast,
    ),
    "numeric-coins": (lambda tr, text: [int(v) for v in text.split()], _traced_numeric),
    "small-batch": (lambda tr, text: text, _traced_text),
}


def layer_metrics(tracer: Tracer, first_round: set, untraced: dict) -> dict:
    """Per-layer metrics from the spans and counts of a traced run.

    Times are medians over the operations (or set-up steps) in which the
    layer ran, of the layer's self time in that operation; a layer that
    never ran reads 0.  Counts are means over the first round's operations
    that produced them.
    """
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_ms: dict[str, dict[object, float]] = defaultdict(lambda: defaultdict(float))
    stage_ms: dict[object, float] = defaultdict(float)
    decide_ms: dict[object, float] = {}
    traced_ms: dict[object, float] = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        if name in SPAN_METRICS:
            self_ms[SPAN_METRICS[name]][op] += (end - start - covered[i]) * 1e3
        if name == "op":
            traced_ms[op] = (end - start) * 1e3
        elif name == "frobenius.decide_cofinite":
            decide_ms[op] = (end - start) * 1e3
        elif parent >= 0 and spans[parent][0] == "op" and name not in PARSE_SPANS:
            stage_ms[op] += (end - start) * 1e3

    metrics = {}
    for metric in sorted(set(SPAN_METRICS.values())):
        values = self_ms[metric].values()
        metrics[metric] = statistics.median(values) if values else 0.0
    first = [c for op, c in tracer.counts.items() if op in first_round]
    for metric in COUNTS:
        values = [c[metric] for c in first if metric in c]
        metrics[metric] = statistics.fmean(values) if values else 0.0
    gaps = [100 * (d - stage_ms[op]) / d for op, d in decide_ms.items()]
    metrics["frobenius.stage_gap_pct"] = statistics.median(gaps) if gaps else 0.0
    overheads = [100 * (traced_ms[op] / untraced[op] - 1) for op in traced_ms]
    metrics["trace.overhead_pct"] = statistics.median(overheads) if overheads else 0.0
    return metrics
