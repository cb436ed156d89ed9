"""Spans around the calls into isurf's public functions, recorded from
outside the package.

`install` rebinds each traced function at every binding site: the
defining module, every isurf module that imported it by name, and the
package namespace. A span records its name, wall and thread CPU start
and end, thread, parent span and the op it belongs to. Spans are kept
in memory; at the end of each op they are folded into per-function
totals (calls, self time, work and repeated arguments), and the spans
of the first few ops are kept to be written out when the run ends.

Self time is thread CPU time: a span's CPU time minus that of its
children on the same thread. Wall time would charge a span on one
thread with the time other threads held the GIL. The one exception is
`catalog.run_catalog`, whose self time is its pool overhead: the wall
time that none of its children (the checks on the pool threads)
covers.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter, thread_time
from typing import Any, Callable, Iterable, NamedTuple


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float  # wall clock, perf_counter
    end: float
    cpu_start: float  # CPU time of the thread that ran the span
    cpu_end: float
    thread: int
    op: int
    key: Any  # the argument whose repeats repeat_share counts
    work: int
    failed: bool


# Functions whose self time is wall time not covered by their children.
WALL_SELF = frozenset({"catalog.run_catalog"})


class Tracer:
    KEEP_OPS = 3

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []
        self.op_id = 0
        self.kept: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self.repeats: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def _call(self, name, fn, args, kwargs, key=None, work=None, outcome=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        k = key(*args, **kwargs) if key else None
        w = work(*args, **kwargs) if work else 0
        stack.append(sid)
        failed = True
        t0, c0 = perf_counter(), thread_time()
        try:
            result = fn(*args, **kwargs)
            failed = outcome(result) if outcome else False
            return result
        finally:
            c1, t1 = thread_time(), perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, parent, name, t0, t1, c0, c1, threading.get_ident(), self.op_id, k, w, failed)
            )

    def wrap(self, name: str, fn: Callable, key=None, work=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, key, work)

        return traced

    def detached(self, name: str, fn: Callable, parent: int, outcome=None) -> Callable:
        """Wrap a callable that runs on a pool thread, so that its span
        attaches to `parent` rather than to whatever the thread ran before."""

        def traced(*args, **kwargs):
            saved = getattr(self._local, "stack", None)
            self._local.stack = [parent]
            try:
                return self._call(name, fn, args, kwargs, outcome=outcome)
            finally:
                self._local.stack = saved

        return traced

    @contextmanager
    def op(self):
        """Root span of one benchmark operation; folds its spans on exit."""
        self.op_id += 1
        sid = next(self._ids)
        self._local.stack = [sid]
        t0, c0 = perf_counter(), thread_time()
        try:
            yield
        finally:
            c1, t1 = thread_time(), perf_counter()
            self._local.stack = []
            self.spans.append(
                Span(sid, 0, "op", t0, t1, c0, c1, threading.get_ident(), self.op_id, None, 0, False)
            )
            self.fold()

    def fold(self) -> None:
        spans, self.spans = self.spans, []
        if self.op_id <= self.KEEP_OPS:
            self.kept.extend(spans)
        children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            children[s.parent].append(s)
        seen: dict[str, set] = defaultdict(set)
        for s in spans:
            kids = children.get(s.id, ())
            if s.name in WALL_SELF:
                own = (s.end - s.start) - covered(((c.start, c.end) for c in kids), s.start, s.end)
            else:
                own = (s.cpu_end - s.cpu_start) - sum(
                    c.cpu_end - c.cpu_start for c in kids if c.thread == s.thread
                )
            self.calls[s.name] += 1
            self.self_s[s.name] += own
            self.work[s.name] += s.work
            self.failed[s.name] += s.failed
            if s.key is not None:
                self.repeats[s.name] += s.key in seen[s.name]
                seen[s.name].add(s.key)

    def per_op(self, table: dict, name: str, scale: float = 1.0) -> float:
        ops = self.calls["op"]
        return table[name] * scale / ops if ops else 0.0

    def repeat_share(self, name: str) -> float:
        calls = self.calls[name]
        return self.repeats[name] / calls if calls else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.kept:
                record = s._asdict()
                del record["key"]
                record["failed"] = bool(s.failed)
                fh.write(json.dumps(record) + "\n")


def _gram(lat, rng=None):
    return lat.gram


def _rank_sq(lat, rng=None):
    return lat.rank * lat.rank


def _args(*args, **kwargs):
    return repr((args, sorted(kwargs.items())))


def _entries(report):
    return len(report.entries)


# (name, module, attribute path, key, work): `key` names the argument
# whose repeats `repeat_share` counts, `work` the units of work a call does.
TARGETS: tuple[tuple[str, str, str, Any, Any], ...] = (
    ("lattice.signature", "isurf.lattice", "signature", _gram, _rank_sq),
    ("germs.normalize_cusp", "isurf.germs", "normalize_cusp", None, None),
    ("germs.enumerate_types", "isurf.germs", "enumerate_types", None, None),
    ("adjacency.is_adjacent", "isurf.adjacency", "is_adjacent", None, None),
    ("adjacency.reachable_germs", "isurf.adjacency", "reachable_germs", lambda g: g, None),
    ("divisors.pair", "isurf.divisors", "pair", None, None),
    ("divisors.blowup", "isurf.divisors", "blowup", None, None),
    ("builders.build_stratum", "isurf.builders", "build_stratum", _args, None),
    ("builders.verify_I_surface", "isurf.builders", "verify_I_surface", None, None),
    ("builders.build_double_cover", "isurf.builders", "build_double_cover", None, None),
    ("catalog.build_catalog", "isurf.catalog", "build_catalog", None, None),
    ("catalog.run_catalog", "isurf.catalog", "run_catalog", None, None),
    ("report.dumps", "isurf.report", "Report.dumps", None, _entries),
    ("cli.main", "isurf.cli", "main", None, None),
)


def _check_failed(result) -> bool:
    expected, computed = result
    return expected != computed


def install(tracer: Tracer) -> Callable[[], None]:
    """Trace every target at every binding site; returns the undo."""
    undo: list[tuple[Any, str, Any]] = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for _, module_name, *_ in TARGETS:
        importlib.import_module(module_name)
    modules = [m for n, m in list(sys.modules.items()) if n == "isurf" or n.startswith("isurf.")]
    for name, module_name, path, key, work in TARGETS:
        owner = sys.modules[module_name]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            rebind(owner, attr, classmethod(tracer.wrap(name, raw.__func__, key, work)))
            continue
        traced = tracer.wrap(name, raw, key, work)
        if name == "catalog.build_catalog":
            traced = _trace_checks(tracer, traced)
        if cls_path:
            rebind(owner, attr, traced)
            continue
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is raw:
                    rebind(module, binding, traced)

    def restore() -> None:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return restore


def _trace_checks(tracer: Tracer, build_catalog: Callable) -> Callable:
    """Catalog checks run on pool threads; each check's span attaches to
    the span that asked for the catalog (the pass running it)."""

    @functools.wraps(build_catalog)
    def traced(*args, **kwargs):
        parent = tracer.current()
        return [
            dataclasses.replace(
                c, run=tracer.detached("catalog.check", c.run, parent, _check_failed)
            )
            for c in build_catalog(*args, **kwargs)
        ]

    return traced
