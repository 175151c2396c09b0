"""Span recorder for the traced run, installed from outside the program.

The recorder wraps the public boundary functions of each layer of
``src/repro/`` where they are looked up (class attributes and module
globals), before the engine is built.  Each call records a span —
name, start, end, parent span, request id — in memory; spans are
written out when the run ends.  A layer's self time is its span time
minus the part covered by its child spans.

Span times run on a clock that stops while the garbage collector runs
(clocked through ``gc.callbacks``), so like the end-to-end latencies
they exclude collector pauses.

The wrappers stay installed for the whole traced run; between windows
the harness switches recording on and off, so the traced run measures
both sides of ``trace.overhead_ratio`` on the same request stream.  The
untraced end-to-end run never imports this module.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time
from collections import defaultdict

#: (module, attribute path, span name).  Spans named here are measured
#: as self time unless listed in ``INCLUSIVE``.
SPAN_TARGETS = [
    ("repro.sql.parser", "parse_statement", "sql.parse"),
    ("repro.api.engine", "Engine.parse", "api.parse"),
    ("repro.api.engine", "Engine.checkpoint", "storage.checkpoint"),
    ("repro.api.transport", "TransportSimulator.block_shipping",
     "api.ship"),
    ("repro.compiler.pipeline", "CompilationPipeline.build_select",
     "qgm.build"),
    ("repro.compiler.pipeline", "CompilationPipeline.build_xnf",
     "qgm.build"),
    ("repro.compiler.pipeline", "CompilationPipeline.rewrite_graph",
     "rewrite"),
    ("repro.compiler.pipeline", "rewrite_fixpoint", "rewrite"),
    ("repro.optimizer.optimizer", "Planner.plan", "optimizer.plan"),
    ("repro.xnf.translate", "XNFTranslator.translate", "xnf.translate"),
    ("repro.xnf.result", "XNFExecutable.run", "xnf.run"),
    ("repro.executor.dml", "DMLExecutor.update", "executor.dml"),
    ("repro.viewupdate.executor", "ViewUpdateManager.update",
     "viewupdate.put"),
    ("repro.viewupdate.objects", "apply_write_through",
     "viewupdate.write_through"),
    ("repro.cache.manager", "XNFCache.evaluate", "cache.evaluate"),
    ("repro.cache.matview", "MaterializedViewRegistry.on_table_delta",
     "cache.matview_maintain"),
    ("repro.storage.transactions", "TransactionManager.commit",
     "storage.commit"),
    ("repro.storage.wal", "WriteAheadLog.append", "storage.wal_append"),
    ("repro.storage.wal", "WriteAheadLog.sync_to", "storage.wal_sync"),
]

#: Spans whose whole duration counts (their children are the work).
INCLUSIVE = {"cache.evaluate", "cache.traverse", "storage.checkpoint"}

#: Spans inside which base-table reads count as put-back re-reads.
PUT_SPANS = {"viewupdate.put", "viewupdate.write_through"}

_NAME, _START, _END, _PARENT, _REQUEST, _WINDOW = range(6)


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.on = False
        self.window = -1
        self.request = 0
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._put_depth = 0
        self._installed: list[tuple] = []
        self._gc_total = 0.0
        self._gc_started = 0.0

    # -- the clock ------------------------------------------------------
    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self._gc_total += time.perf_counter() - self._gc_started

    def now(self) -> float:
        """Seconds on a clock that stops during garbage collection."""
        return time.perf_counter() - self._gc_total

    # -- spans ----------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.now(), 0.0, parent,
                           self.request, self.window])
        self._stack.append(index)
        if name in PUT_SPANS:
            self._put_depth += 1
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[_END] = self.now()
        self._stack.pop()
        if span[_NAME] in PUT_SPANS:
            self._put_depth -= 1

    def span(self, name: str):
        return _SpanContext(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        if self.on:
            self.counts[name] += amount

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary function; missing ones are reported."""
        gc.callbacks.append(self._on_gc)
        for module_name, path, span in SPAN_TARGETS:
            self._wrap(module_name, path, self._span_wrapper(span))
        self._wrap("repro.storage.wal", "encode_record",
                   self._bytes_wrapper("storage.wal_bytes"))
        for method in ("fetch", "lookup_pk"):
            self._wrap("repro.storage.table", f"Table.{method}",
                       self._reread_wrapper())
        self._wrap("repro.storage.table", "Table.scan",
                   self._reread_scan_wrapper())

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _wrap(self, module_name: str, path: str, make) -> None:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            raw = owner.__dict__[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
        except (AttributeError, KeyError):
            self.missing.append(f"{module_name}.{path}")
            print(f"perfbench: cannot trace {module_name}.{path}",
                  file=sys.stderr)
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._installed.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)

    def _span_wrapper(self, name: str):
        recorder = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not recorder.on:
                    return fn(*args, **kwargs)
                index = recorder.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    recorder.end(index)
            return wrapper
        return make

    def _bytes_wrapper(self, name: str):
        recorder = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                data = fn(*args, **kwargs)
                if recorder.on:
                    recorder.counts[name] += len(data)
                return data
            return wrapper
        return make

    def _reread_wrapper(self):
        recorder = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if recorder.on and recorder._put_depth \
                        and result is not None:
                    recorder.counts["viewupdate.reread_rows"] += 1
                return result
            return wrapper
        return make

    def _reread_scan_wrapper(self):
        recorder = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not (recorder.on and recorder._put_depth):
                    return fn(*args, **kwargs)
                return _counting(fn(*args, **kwargs), recorder)
            return wrapper
        return make

    # -- analysis -------------------------------------------------------
    def layer_times(self, factors: dict[int, float],
                    timed: bool) -> tuple[dict, dict]:
        """Scaled seconds and call counts per span name, over the timed
        windows (``timed``) or the set-up (window -1).

        Self time for most spans, whole duration for ``INCLUSIVE`` ones;
        each span is scaled by the factor of the window it started in.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, span in enumerate(self.spans):
            if (span[_WINDOW] >= 0) != timed:
                continue
            name = span[_NAME]
            duration = span[_END] - span[_START]
            if name not in INCLUSIVE:
                duration -= child[index]
            seconds[name] += duration * factors.get(span[_WINDOW], 1.0)
            calls[name] += 1
        return seconds, calls

    def parse_cache_hits(self) -> tuple[int, int]:
        """(Engine.parse calls in the timed windows, those that never
        reached the parser)."""
        parsed = set()
        for span in self.spans:
            if span[_NAME] == "sql.parse" and span[_PARENT] >= 0:
                parsed.add(span[_PARENT])
        calls = hits = 0
        for index, span in enumerate(self.spans):
            if span[_NAME] == "api.parse" and span[_WINDOW] >= 0:
                calls += 1
                hits += index not in parsed
        return calls, hits

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "request", "window"],
                       "spans": self.spans}, handle)


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str):
        self._recorder = recorder
        self._name = name
        self._index = -1

    def __enter__(self):
        if self._recorder.on:
            self._index = self._recorder.begin(self._name)
        return self

    def __exit__(self, *exc) -> None:
        if self._index >= 0:
            self._recorder.end(self._index)


def _counting(rows, recorder: Recorder):
    for row in rows:
        recorder.counts["viewupdate.reread_rows"] += 1
        yield row
