"""Span recording around calls into the colorcap modules, and span analysis.

`Tracer.install()` replaces every public function of each layer module
(`cli`, `channels`, `systems`, `capacity`, `bounds`, `oracle`), and
`ChannelSystem.__init__`, with a wrapper that records a span: operation id,
span id, parent span id, name, start, end and a few attributes.  The
wrapper is bound under every name the package holds for the function (module
globals, the package's re-exports and the CLI's command table), so calls
between modules are traced too and nest under their caller.  Spans stay in
memory until `dump()`; `uninstall()` restores the original functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from time import perf_counter

LAYERS = ("cli", "channels", "systems", "capacity", "bounds", "oracle")

# span field order in memory and in the dump
FIELDS = ("op", "id", "parent", "name", "start", "end", "attrs")


def _count_attrs(args, kwargs, result):
    return {"q": args[0].q, "n": args[1], "count": result.count}


def _method_attrs(args, kwargs, result):
    return {"method": result.method}


def _reconstruct_attrs(args, kwargs, result):
    return {"symbols": len(result)}


# attributes read off a call's arguments and result, by span name
ANNOTATE = {
    "oracle.count_outputs": _count_attrs,
    "capacity.capacity": _method_attrs,
    "oracle.reconstruct_view": _reconstruct_attrs,
}


# spans kept in memory; a traced run stops adding traced passes once it has these
MAX_SPANS = 100_000


class Tracer:
    """Records nested spans for calls into the package; one per process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op: int = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (namespace, key, original)

    @property
    def full(self) -> bool:
        return len(self.spans) >= MAX_SPANS

    def _wrap(self, name: str, fn):
        spans, stack, annotate = self.spans, self._stack, ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            attrs = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs = {"error": type(exc).__name__}
                raise
            else:
                if annotate is not None:
                    attrs = annotate(args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (self.op, sid, parent, name, start, end, attrs)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("colorcap")
        modules = [importlib.import_module(f"colorcap.{layer}") for layer in LAYERS]
        wrappers = {}  # id(original) -> wrapper
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for namespace in [vars(package)] + [vars(m) for m in modules]:
            for key, value in list(namespace.items()):
                self._rebind(namespace, key, value, wrappers)
                if isinstance(value, dict):  # the CLI's command table
                    for k, v in list(value.items()):
                        self._rebind(value, k, v, wrappers)
        system_cls = modules[LAYERS.index("channels")].ChannelSystem
        original = system_cls.__init__
        system_cls.__init__ = self._wrap("channels.system_init", original)
        self._patches.append((system_cls, "__init__", original))

    def _rebind(self, namespace: dict, key, value, wrappers: dict) -> None:
        wrapper = wrappers.get(id(value))
        if wrapper is not None:
            namespace[key] = wrapper
            self._patches.append((namespace, key, value))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so the part
    of the interval they cover is the sum of their durations.
    """
    index = {(s[0], s[1]): i for i, s in enumerate(spans)}
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[2] >= 0:
            own[index[(s[0], s[2])]] -= s[5] - s[4]
    return own


def by_name(spans: list[tuple]) -> dict[str, list[tuple]]:
    out: dict[str, list[tuple]] = {}
    for s in spans:
        out.setdefault(s[3], []).append(s)
    return out


def median_us(spans: list[tuple]) -> float:
    return statistics.median(s[5] - s[4] for s in spans) * 1e6 if spans else 0.0


def per_op_sum_us(spans: list[tuple], names: tuple[str, ...]) -> float:
    """Median over operations of the summed duration of the named spans."""
    totals: dict[int, float] = {}
    for s in spans:
        if s[3] in names:
            totals[s[0]] = totals.get(s[0], 0.0) + s[5] - s[4]
    return statistics.median(totals.values()) * 1e6 if totals else 0.0


def layer_self_us(spans: list[tuple], n_ops: int) -> dict[str, float]:
    """Self time of each layer, in microseconds per traced operation."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for s, own in zip(spans, self_times(spans)):
        totals[s[3].split(".", 1)[0]] += own
    return {layer: t * 1e6 / max(n_ops, 1) for layer, t in totals.items()}
