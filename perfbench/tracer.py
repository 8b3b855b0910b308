"""Spans around calls into the library's public functions.

:func:`install` wraps a fixed list of public functions and rebinds every
``implattice.*`` namespace that imported them, so calls made inside the
library go through the wrappers too.  ``IntervalPoset.covers`` is replaced by
a cached property around the same function.  Each call records a span (name,
start, end, parent); :meth:`Tracer.stats` turns the spans into per-name self
time and call counts.  Hot leaf predicates (``is_sub``, ``Element``
operations) are deliberately not wrapped: their call counts would make the
tracing cost swamp the work it measures.

Cache reuse is measured from outside: for the memoised functions the wrapper
counts the distinct argument keys it has seen, never the library's private
caches.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _interval_key(lower, upper):
    return lower, upper


def _poset_key(poset):
    return poset


def _suborder_key(closure, lower, upper):
    return closure, lower, upper


# (module, function, distinct-key function or None, size stat, size function)
# A size stat sums the size of each result over distinct keys only, so it
# counts the work a cache-free implementation would have to do once.
TARGETS = (
    ("algebra", "enumerate_all", None, None, None),
    ("poset", "interval", _interval_key, "members", len),
    ("poset", "mobius_oracle", _poset_key, None, None),
    ("poset", "closed_suborder", _suborder_key, None, None),
    ("poset", "closure_theorem_check", None, None, None),
    ("poset", "product_decomposition", None, None, None),
    ("poset", "interval_isomorphism_via_permutation", None, None, None),
    ("poset", "interval_to_dict", None, None, None),
    ("formulas", "mu_rank_sum_composition", None, None, None),
    ("formulas", "mu_rank_sum_chain", None, None, None),
    ("formulas", "mu_rank_sum_oracle", None, None, None),
    ("cli", "main", None, None, None),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        # each span is [name, start, end, parent index]; parent -1 is the root
        self.spans: list[list] = []
        self._stack = [-1]
        self._keys: dict[str, set] = defaultdict(set)
        self._sizes: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1]]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, key=None, size_stat=None, size=None):
        keys = self._keys[name] if key is not None else None
        sizes = self._sizes[name] if size is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            new = True
            if key is not None:
                k = key(*args, **kwargs)
                new = k not in keys
                keys.add(k)
            with self.span(name):
                result = fn(*args, **kwargs)
            if size is not None and new:
                sizes[size_stat] += size(result)
            return result

        return traced

    def count(self, name: str, stat: str, value: int) -> None:
        self._sizes[name][stat] += value

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: ``self_s`` (duration minus direct children's),
        ``total_s``, ``calls``, ``distinct`` where keys are tracked, and size
        counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["self_s"] += end - start - child[i]
            entry["total_s"] += end - start
            entry["calls"] += 1
        for name, keys in self._keys.items():
            out[name]["distinct"] = len(keys)
        for name, sizes in self._sizes.items():
            out[name].update(sizes)
        return {name: dict(entry) for name, entry in out.items()}


def install(tracer: Tracer) -> None:
    """Wrap :data:`TARGETS` and ``IntervalPoset.covers`` in every loaded
    ``implattice`` namespace."""
    from implattice import poset

    modules = [m for name, m in list(sys.modules.items()) if name.partition(".")[0] == "implattice"]
    for module, func, key, size_stat, size in TARGETS:
        original = getattr(sys.modules[f"implattice.{module}"], func)
        wrapped = tracer.wrap(f"{module}.{func}", original, key, size_stat, size)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)

    covers = poset.IntervalPoset.__dict__["covers"]
    traced = functools.cached_property(tracer.wrap("poset.covers", covers.func, None, "edges", len))
    traced.__set_name__(poset.IntervalPoset, "covers")
    poset.IntervalPoset.covers = traced
