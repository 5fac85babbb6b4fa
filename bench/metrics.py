"""Metric names, units and how each is computed from samples or spans.

`END_TO_END` and `PER_LAYER` are the lists `BENCHMARK.json` declares; the
benchmark's test checks that the two agree.
"""

from __future__ import annotations

import itertools
import math
import statistics
from collections import Counter

import corpus
from spans import by_name, layer_self_us, median_us, per_op_sum_us, LAYERS

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "corpus_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# the public functions whose median call time is reported as <name>_us
TIMED_CALLS = (
    "systems.remove_dominated", "systems.separable_split", "systems.pairs_graph",
    "systems.classify", "systems.max_clique", "bounds.bounds_general",
    "bounds.bounds_cycle", "bounds.bounds", "capacity.capacity", "channels.system_init",
)
CAPACITY_METHODS = ("single_channel", "full_clique", "two_sets", "sunflower", "path",
                    "cycle", "general", "separable")
COMMANDS = ("classify", "capacity", "bounds", "enumerate", "reconstruct", "table")
PARSE_CALLS = ("cli.build_parser", "cli.read_json", "cli.parse_system_document")

PER_LAYER = {
    **{f"{name}_us": "us" for name in TIMED_CALLS},
    **{f"capacity.calls.{m}": "count" for m in CAPACITY_METHODS},
    "cli.parse_us": "us",
    **{f"cli.command_us.{c}": "us" for c in COMMANDS},
    "cli.import_ms": "ms",
    "oracle.count_outputs_s": "s",
    **{f"oracle.count_outputs_s.{name}": "s" for name in corpus.COUNT_SYSTEMS},
    "oracle.words_per_s": "1/s",
    "oracle.keys_per_word": "ratio",
    "oracle.verify_pairs_s": "s",
    "oracle.budget_refusals": "count",
    **{f"oracle.reconstruct_ms.{n}": "ms" for n in corpus.RECONSTRUCT_LENGTHS},
    "oracle.reconstruct_symbols_per_s": "1/s",
    **{f"self_us.{layer}": "us" for layer in LAYERS},
    "trace.overhead_pct": "%",
}


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile by nearest rank: the smallest value that at least
    q% of the values do not exceed.

    It is always one operation's time.  Interpolating would, on a workload
    of few operations in bands of very different cost (reconstruct's 10^3
    and 10^4 letter words), average the slowest of one band with the
    fastest of the next, and the result would follow the noise of both.
    """
    ranked = sorted(values)
    return ranked[max(math.ceil(q / 100 * len(ranked)), 1) - 1]


# The fastest time of `reference_work` on the machine the baseline was taken
# on (2-core x86_64 VM, CPython 3.11.7).  It only fixes the scale of the
# times below: there they read about as they did on that machine.
REFERENCE_S = 2.5e-3


def reference_work() -> int:
    """A fixed piece of pure-Python work, timed during a run to gauge the
    machine's speed: projections of words to tuples, a set and a dict of
    them, as in the package's own inner loops, but not its code."""
    seen = set()
    for word in itertools.product(range(4), repeat=6):
        seen.add(tuple(a for a in word if a < 2))
    table: dict = {}
    for i, key in enumerate(sorted(seen, key=len) * 8):
        table[key] = table.get(key, 0) + i
    return len(table)


def end_to_end(samples: list[list[float]], setup_s: float, peak_rss_mb: float,
               reference_s: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the same times as measured.

    `samples` holds, per operation, the durations (s) of its correct
    untraced runs; `reference_s` is the fastest run of `reference_work`
    in the same run.

    Each operation's time is its fastest run.  Other processes on the
    machine only ever slow a run down, often by a third or more for seconds
    at a time, so the fastest of the runs spread over `--seconds` is the
    steadiest estimate of what the code costs; the median moves with the
    machine's load.  Percentiles weigh each operation once.

    Some slow spells last minutes, longer than a run, and slow every run
    inside them, the fastest ones too, by up to 1.7 times.  So each time is
    scaled by REFERENCE_S / `reference_s`: the benchmark's own reference
    work, timed the same way over the same seconds, slows with the machine
    and not with the package.
    """
    best = [min(ds) for ds in samples if ds]
    measured = {
        "setup_s": setup_s,
        "corpus_s": sum(best),
        "p50_ms": quantile(best, 50) * 1e3,
        "p90_ms": quantile(best, 90) * 1e3,
    }
    scale = REFERENCE_S / reference_s
    values = {name: value * scale for name, value in measured.items()}
    values["peak_rss_mb"] = peak_rss_mb
    return ({name: {"value": values[name], "unit": unit}
             for name, (unit, _) in END_TO_END.items()}, measured)


def _count_metrics(named: dict, op_names: dict[int, str]) -> dict:
    out = {}
    calls = named.get("oracle.count_outputs", [])
    done = [s for s in calls if s[6] and "count" in s[6]]
    words = sum(s[6]["q"] ** s[6]["n"] for s in done)
    busy = sum(s[5] - s[4] for s in done)
    out["oracle.words_per_s"] = words / busy if busy else 0.0
    out["oracle.keys_per_word"] = sum(s[6]["count"] for s in done) / words if words else 0.0
    out["oracle.budget_refusals"] = sum(
        1 for s in calls if s[6] and s[6].get("error") == "BudgetExceededError")
    # the largest n of each sweep, per system
    largest: dict[int, tuple] = {}
    for s in done:
        if s[0] not in largest or s[6]["n"] > largest[s[0]][6]["n"]:
            largest[s[0]] = s
    per_system: dict[str, list[float]] = {}
    for op, s in largest.items():
        kind, _, system = op_names.get(op, "").partition(":")
        if kind == "sweep":
            per_system.setdefault(system, []).append(s[5] - s[4])
    total = 0.0
    for system in corpus.COUNT_SYSTEMS:
        value = statistics.median(per_system[system]) if system in per_system else 0.0
        out[f"oracle.count_outputs_s.{system}"] = value
        total += value
    out["oracle.count_outputs_s"] = total
    out["oracle.verify_pairs_s"] = median_us(named.get("oracle.verify_pairs_equality", [])) / 1e6
    return out


def _reconstruct_metrics(named: dict) -> dict:
    calls = [s for s in named.get("oracle.reconstruct_view", []) if s[6] and "symbols" in s[6]]
    out = {}
    for length in corpus.RECONSTRUCT_LENGTHS:
        out[f"oracle.reconstruct_ms.{length}"] = median_us(
            [s for s in calls if s[6]["symbols"] == length]) / 1e3
    busy = sum(s[5] - s[4] for s in calls)
    out["oracle.reconstruct_symbols_per_s"] = (
        sum(s[6]["symbols"] for s in calls) / busy if busy else 0.0)
    return out


def per_layer(spans: list[tuple], op_names: dict[int, str], passes: int, import_ms: float,
              overhead_pct: float) -> dict:
    """Per-layer metrics from the spans of traced operations (op id >= 0).

    Counts (`capacity.calls.*`, `oracle.budget_refusals`) are per traced pass.
    """
    named = by_name(spans)
    n_ops = len(op_names)
    values = {f"{name}_us": median_us(named.get(name, [])) for name in TIMED_CALLS}
    methods = Counter(s[6]["method"] for s in named.get("capacity.capacity", [])
                      if s[6] and "method" in s[6])
    values.update({f"capacity.calls.{m}": methods[m] / passes for m in CAPACITY_METHODS})
    values["cli.parse_us"] = per_op_sum_us(spans, PARSE_CALLS)
    values.update({f"cli.command_us.{c}": median_us(named.get(f"cli.cmd_{c}", []))
                   for c in COMMANDS})
    values["cli.import_ms"] = import_ms
    values.update(_count_metrics(named, op_names))
    values["oracle.budget_refusals"] /= passes
    values.update(_reconstruct_metrics(named))
    values.update({f"self_us.{layer}": v for layer, v in layer_self_us(spans, n_ops).items()})
    values["trace.overhead_pct"] = overhead_pct
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
