"""Per-layer tracing from outside the package.

The program is not edited: :class:`Tracer` replaces the attributes that
callers look up (module functions in every ``cuspcheck`` module that holds
them, and methods on their classes) with wrappers that record spans and
counts, and :meth:`Tracer.restore` puts every original back.  Spans are kept
in memory with their parent ids until the end of each operation, when their
self times (duration minus the time covered by child spans) are added up by
name.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable

perf = time.perf_counter

Span = tuple[int, int, str, float, float]  # id, parent id (0: none), name, start, end

# (module, attribute, span name).  A target the package no longer has is
# skipped and its metrics read 0; ``missing`` lists it.
SPANS = [
    ("cuspcheck.arthur", "parse_parameter", "arthur.parse"),
    ("cuspcheck.arthur", "ArthurParameter.attached_partition", "arthur.attached_partition"),
    ("cuspcheck.partitions", "barbasch_vogan_dual", "partitions.dual"),
    ("cuspcheck.partitions", "symplectic_collapse", "partitions.collapse"),
    ("cuspcheck.partitions", "Partition.transpose", "partitions.transpose"),
    ("cuspcheck.partitions", "expansion", "partitions.expansion"),
    ("cuspcheck.engine", "bounds", "engine.bounds"),
    ("cuspcheck.engine", "verdict", "engine.verdict"),
    ("cuspcheck.engine", "scan", "engine.scan"),
    ("cuspcheck.satake", "satake_exponent_bound", "satake.bound"),
    ("cuspcheck.cli", "build_parser", "cli.build_parser"),
    ("cuspcheck.cli", "main", "cli.main"),
]
# Every public smallrep function gets a span, so that cli.main's self time
# holds only parsing and rendering.
SMALLREP = "cuspcheck.smallrep"
# lru-cached callees of grs_max_weight, by order.
CACHES = {"n1": ("cuspcheck.engine", "_max_grs_lex"), "n2": ("cuspcheck.engine", "_max_grs_dominated")}


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Self time by span name: each span's duration minus its children's cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, t0, t1 in spans:
        children[parent].append((t0, t1))
    out: dict[str, float] = defaultdict(float)
    for sid, _, name, t0, t1 in spans:
        out[name] += (t1 - t0) - covered(children.get(sid, ()), t0, t1)
    return dict(out)


def _resolve(module_name: str, path: str):
    """(owner, attribute name) for ``path`` in the module, or None."""
    owner = sys.modules.get(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "cuspcheck" or n.startswith("cuspcheck.")]


class Tracer:
    """Installs the wrappers on construction; :meth:`restore` removes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = [0]
        self.next_id = 1
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, bool, object]] = []
        try:
            self._install()
        except BaseException:
            self.restore()
            raise

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def _replace(self, module_name: str, path: str, make: Callable) -> None:
        found = _resolve(module_name, path)
        if found is None:
            self.missing.append(f"{module_name}.{path}")
            return
        owner, attr = found
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        # Replace the function in every package module that holds it, since
        # callers look it up in their own module.
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, had, value = self._saved.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def _install(self) -> None:
        for module_name, path, name in SPANS:
            self._replace(module_name, path, lambda fn, name=name: self._spanned(fn, name))
        smallrep = sys.modules.get(SMALLREP)
        for fname in getattr(smallrep, "__all__", ()):
            if callable(getattr(smallrep, fname)) and not isinstance(getattr(smallrep, fname), type):
                self._replace(SMALLREP, fname, lambda fn, fname=fname: self._spanned(fn, f"smallrep.{fname}"))
        self._replace("cuspcheck.engine", "grs_max_weight", self._grs)
        self._replace("cuspcheck.partitions", "Partition.__init__", self._new_partition)
        self._replace("cuspcheck.partitions", "partitions_of", self._counted_generator)

    # -- wrappers ------------------------------------------------------------

    def _enter(self) -> int:
        sid = self.next_id
        self.next_id += 1
        self.stack.append(sid)
        return sid

    def _leave(self, sid: int, name: str, t0: float) -> None:
        t1 = perf()
        self.stack.pop()
        self.spans.append((sid, self.stack[-1], name, t0, t1))

    def _spanned(self, fn, name: str):
        counts = self.counts
        rejected = name + ".rejected"

        def wrapper(*args, **kwargs):
            counts[name] += 1
            sid = self._enter()
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__module__.startswith("cuspcheck"):
                    counts[rejected] += 1
                raise
            finally:
                self._leave(sid, name, t0)

        return wrapper

    def _grs(self, fn):
        counts = self.counts
        infos = {}
        for key, where in CACHES.items():
            found = _resolve(*where)
            infos[key] = getattr(getattr(*found), "cache_info", None) if found else None

        def wrapper(eta, order, *args, **kwargs):
            key = "n1" if getattr(order, "value", order) == "lex" else "n2"
            name, info = f"engine.{key}", infos[key]
            hits = info().hits if info else 0
            counts[name] += 1
            sid = self._enter()
            t0 = perf()
            try:
                return fn(eta, order, *args, **kwargs)
            finally:
                self._leave(sid, name, t0)
                if info:
                    counts[name + ".cache_hits"] += info().hits - hits

        return wrapper

    def _new_partition(self, init):
        counts = self.counts

        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            counts["partitions.new"] += 1
            counts["partitions.new.parts"] += len(obj)

        return wrapper

    def _counted_generator(self, gen):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in gen(*args, **kwargs):
                counts["partitions.partitions_of.yielded"] += 1
                yield item

        return wrapper

    # -- operations ----------------------------------------------------------

    def end_op(self) -> None:
        """Fold the finished operation's spans into the self-time totals."""
        for name, s in self_times(self.spans).items():
            self.self_s[name] += s
        self.spans.clear()

    def per_layer(self, ops: int, wall_traced: float, wall_untraced: float) -> dict[str, float]:
        """Every per-layer metric, normalised per operation where it is a total."""
        c, s = self.counts, self.self_s
        per_op = 1 / max(ops, 1)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        verdicts = c["engine.verdict"]
        out = {
            "arthur.parse.calls": c["arthur.parse"] * per_op,
            "arthur.parse.rejected": c["arthur.parse.rejected"] * per_op,
            "engine.verdict.calls": verdicts * per_op,
            "partitions.dual.calls_per_verdict": ratio(c["partitions.dual"], verdicts),
            "partitions.collapse.calls_per_verdict": ratio(c["partitions.collapse"], verdicts),
            "partitions.new.per_op": c["partitions.new"] * per_op,
            "partitions.new.parts": c["partitions.new.parts"] * per_op,
            "partitions.partitions_of.yielded": c["partitions.partitions_of.yielded"] * per_op,
            "engine.n1.cache_hit_ratio": ratio(c["engine.n1.cache_hits"], c["engine.n1"]),
            "engine.n1.cache_lookups": c["engine.n1"] * per_op,
            "engine.n2.cache_hit_ratio": ratio(c["engine.n2.cache_hits"], c["engine.n2"]),
            "engine.n2.cache_lookups": c["engine.n2"] * per_op,
            "trace.overhead_share": ratio(wall_traced - wall_untraced, wall_untraced),
        }
        for metric, span in SELF_TIME_METRICS.items():
            out[metric] = s.get(span, 0.0) * per_op
        return out


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(".self_s"):
        return "s/op"
    if metric.endswith("calls_per_verdict"):
        return "count/verdict"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count/op"


# Per-layer self-time metric -> span name.
SELF_TIME_METRICS = {
    "arthur.parse.self_s": "arthur.parse",
    "arthur.attached_partition.self_s": "arthur.attached_partition",
    "partitions.dual.self_s": "partitions.dual",
    "partitions.collapse.self_s": "partitions.collapse",
    "partitions.transpose.self_s": "partitions.transpose",
    "partitions.expansion.self_s": "partitions.expansion",
    "engine.n1.self_s": "engine.n1",
    "engine.n2.self_s": "engine.n2",
    "engine.bounds.self_s": "engine.bounds",
    "engine.verdict.self_s": "engine.verdict",
    "engine.scan.self_s": "engine.scan",
    "smallrep.nonsingular_expansion.self_s": "smallrep.nonsingular_expansion",
    "smallrep.grs_minimal_partition.self_s": "smallrep.grs_minimal_partition",
    "satake.bound.self_s": "satake.bound",
    "cli.build_parser.self_s": "cli.build_parser",
    "cli.render.self_s": "cli.main",
}


# Every per-layer metric, in report order; layers as the package's modules.
PER_LAYER = [
    "arthur.parse.calls",
    "arthur.parse.self_s",
    "arthur.parse.rejected",
    "arthur.attached_partition.self_s",
    "partitions.dual.calls_per_verdict",
    "partitions.dual.self_s",
    "partitions.collapse.calls_per_verdict",
    "partitions.collapse.self_s",
    "partitions.transpose.self_s",
    "partitions.new.per_op",
    "partitions.new.parts",
    "partitions.expansion.self_s",
    "partitions.partitions_of.yielded",
    "engine.verdict.calls",
    "engine.n1.self_s",
    "engine.n2.self_s",
    "engine.n1.cache_hit_ratio",
    "engine.n1.cache_lookups",
    "engine.n2.cache_hit_ratio",
    "engine.n2.cache_lookups",
    "engine.bounds.self_s",
    "engine.verdict.self_s",
    "engine.scan.self_s",
    "smallrep.nonsingular_expansion.self_s",
    "smallrep.grs_minimal_partition.self_s",
    "satake.bound.self_s",
    "cli.build_parser.self_s",
    "cli.render.self_s",
    "trace.overhead_share",
]
