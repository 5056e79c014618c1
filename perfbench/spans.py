"""Outside-in span recorder for germpack's public functions.

The tracer replaces public functions with thin wrappers at run time, in the
module that defines them and in every germpack module (and the package
itself) that imported them by name, so a call is recorded whichever module
it comes from.  Nothing under src/ changes.  Each call becomes one span
(name, start, end, parent, nested), kept in memory; `summary` turns the spans
into per-layer metrics and `write` stores them when the run ends.

Self time is a span's duration minus the time its direct child spans cover.
Calls are single-threaded and properly nested, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (span name, defining module, attribute) for plain functions.
FUNCTIONS = (
    ("search.find_winner", "search", "find_winner"),
    ("search.best_string", "search", "best_string"),
    ("search.find_repeatable_winner", "search", "find_repeatable_winner"),
    ("search.symmetric_winner", "search", "symmetric_winner"),
    ("search.certify_two_block", "search", "certify_two_block"),
    ("sets.is_avoiding", "sets", "is_avoiding"),
    ("sets.set_compare", "sets", "set_compare"),
    ("sets.valuation", "sets", "valuation"),
    ("sets.generating_function", "sets", "generating_function"),
    ("germs.poly_germ_compare", "germs", "poly_germ_compare"),
    ("germs.germ_compare", "germs", "germ_compare"),
    ("germs.laurent_prefix", "germs", "laurent_prefix"),
    ("germs.germ_gap", "germs", "germ_gap"),
    ("local.best_patch", "local", "best_patch"),
    ("local.sweep_to_fixpoint", "local", "sweep_to_fixpoint"),
)
# (span name, defining module, class, attribute) for methods.
METHODS = (
    ("search.verify", "search", "Certificate", "verify"),
    ("germs.from_bits", "germs", "IntPolynomial", "from_bits"),
)
# Generator functions: one span per item produced, plus call and item counts.
GENERATORS = (("oracle.enumerate_avoiding", "oracle", "enumerate_avoiding"),)
GENERATOR_NAMES = {name for name, _, _ in GENERATORS}

# Per-layer metrics computed from the spans, with their units.
LAYER_METRICS = {
    "search.find_winner.s": "s",
    "search.verify.s": "s",
    "search.best_string.calls": "count",
    "search.best_string.self_s": "s",
    "search.best_string.reuse_ratio": "ratio",
    "search.best_string.distinct_keys": "count",
    "search.find_repeatable_winner.self_s": "s",
    "search.certify_two_block.calls": "count",
    "search.certify_two_block.self_s": "s",
    "search.certify_two_block.success_ratio": "ratio",
    "oracle.enumerate_avoiding.calls": "count",
    "oracle.enumerate_avoiding.strings": "count",
    "oracle.enumerate_avoiding.s": "s",
    "sets.is_avoiding.calls": "count",
    "sets.is_avoiding.s": "s",
    "germs.poly_germ_compare.calls": "count",
    "germs.poly_germ_compare.s": "s",
    "germs.from_bits.calls": "count",
    "germs.from_bits.s": "s",
    "germs.germ_compare.calls": "count",
    "germs.germ_compare.s": "s",
    "germs.laurent_prefix.calls": "count",
    "germs.laurent_prefix.s": "s",
    "germs.germ_gap.calls": "count",
    "germs.germ_gap.s": "s",
    "sets.set_compare.calls": "count",
    "sets.set_compare.s": "s",
    "sets.valuation.calls": "count",
    "sets.valuation.s": "s",
    "sets.generating_function.calls": "count",
    "sets.generating_function.s": "s",
    "local.best_patch.calls": "count",
    "local.best_patch.s": "s",
    "local.sweep_to_fixpoint.s": "s",
    "trace.spans": "count",
}


class Tracer:
    """Records spans for the wrapped functions until `uninstall`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._undo: list = []
        self._best_string_keys: set = set()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._depth[name] > 0]
        stack.append(len(self.spans))
        self.spans.append(span)
        self._depth[name] += 1
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()
        self._depth[span[0]] -= 1

    @contextmanager
    def span(self, name: str):
        """A span around the caller's own block, e.g. one benchmark operation."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return self._items(name, fn(*args, **kwargs))

        return functools.wraps(fn)(traced)

    def _items(self, name, iterator):
        while True:
            span = self._open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(span)
            self.counts[name + ".strings"] += 1
            yield item

    def _observe_best_string(self, args, kwargs, result):
        key = tuple(args) + tuple(sorted(kwargs.items()))
        if key in self._best_string_keys:
            self.counts["search.best_string.reused"] += 1
        self._best_string_keys.add(key)

    def _observe_two_block(self, args, kwargs, result):
        if result is not None:
            self.counts["search.certify_two_block.succeeded"] += 1

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed germpack function that exists in this version."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "germpack"]
        observers = {
            "search.best_string": self._observe_best_string,
            "search.certify_two_block": self._observe_two_block,
        }
        for name, module, attr in FUNCTIONS + GENERATORS:
            original = getattr(sys.modules.get("germpack." + module), attr, None)
            if original is None:
                continue
            if (name, module, attr) in GENERATORS:
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original, observers.get(name))
            for mod in modules:
                if vars(mod).get(attr) is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get("germpack." + module), cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapper = self._wrap(name, raw)
            setattr(cls, attr, wrapper)
            self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        self_time: Counter = Counter()
        for index, (name, start, end, _, nested) in enumerate(spans):
            calls[name] += 1
            self_time[name] += (end - start) - covered[index]
            if not nested:
                total[name] += end - start

        counts = self.counts
        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            layer, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = counts[metric] if layer in GENERATOR_NAMES else calls[layer]
            elif stat == "s":
                out[metric] = total[layer]
            elif stat == "self_s":
                out[metric] = self_time[layer]
            elif stat == "strings":
                out[metric] = counts[metric]
            elif metric == "search.best_string.reuse_ratio":
                out[metric] = _ratio(counts["search.best_string.reused"], calls[layer])
            elif metric == "search.best_string.distinct_keys":
                out[metric] = len(self._best_string_keys)
            elif metric == "search.certify_two_block.success_ratio":
                out[metric] = _ratio(counts["search.certify_two_block.succeeded"], calls[layer])
            elif metric == "trace.spans":
                out[metric] = len(spans)
            else:
                raise KeyError(metric)
        return out

    def write(self, path) -> None:
        """Store the spans as JSON: a name table and rows of indices and times."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, _ in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": list(names), "columns": ["name", "start", "end", "parent"],
                       "spans": rows}, handle, separators=(",", ":"))


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
