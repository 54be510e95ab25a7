"""Span recording for the benchmark's traced runs.

The benchmark times each layer from outside: :func:`install` replaces the
public functions listed in :data:`TARGETS` with wrappers that record a span
(name, start, end, span id, parent span id, trace id) around every call.
Each name is patched where its caller looks it up — a class attribute for
methods, the importing module's global for functions imported by name.

Parentage flows through a context variable, so it follows the server's own
``contextvars.copy_context()`` hand-off into executor threads.  The trace
id is the ``X-Repro-Trace-Id`` the client sent (server workloads) or the
id the library workload assigned to the call.  Spans stay in memory and are
written out once, when the process ends (:meth:`Tracer.dump`).

Nothing here is imported by the program itself; the untraced runs never
load this module.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

_CURRENT_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
_TRACE_ID: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_trace", default=None
)

#: One recorded span: (name, start, end, span id, parent id, trace id).
Span = Tuple[str, float, float, int, Optional[int], Optional[str]]
NameOf = Union[str, Callable[..., str]]


def set_trace_id(trace_id: Optional[str]) -> None:
    """Tag every span opened from this context with ``trace_id``."""
    _TRACE_ID.set(trace_id)
    _CURRENT_SPAN.set(None)


class Tracer:
    """In-memory span sink of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: (name, time, amount) — counted quantities, windowed like spans.
        self.events: List[Tuple[str, float, float]] = []
        self._ids = itertools.count(1)

    def count(self, name: str, amount: float) -> None:
        self.events.append((name, time.perf_counter(), amount))

    def reset(self) -> None:
        """Forget inherited spans (a forked worker starts empty)."""
        self.spans = []
        self.events = []

    def wrap(self, fn: Callable, name: NameOf) -> Callable:
        """A synchronous wrapper recording one span per call."""
        ids = self._ids
        tracer = self
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = fixed if fixed is not None else name(*args)
            parent = _CURRENT_SPAN.get()
            span_id = next(ids)
            token = _CURRENT_SPAN.set(span_id)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                _CURRENT_SPAN.reset(token)
                tracer.spans.append(
                    (label, started, ended, span_id, parent, _TRACE_ID.get())
                )

        return wrapper

    def wrap_request_root(self, fn: Callable, name: str) -> Callable:
        """Wrap the server's per-request coroutine as a root span.

        The trace id and span stay set in the connection task's context
        after the coroutine returns, so the response encoding that follows
        in the same task is attributed to the same request.
        """
        ids = self._ids
        tracer = self

        @functools.wraps(fn)
        async def wrapper(server, request, *args, **kwargs):
            trace_id = request.headers.get("x-repro-trace-id")
            _TRACE_ID.set(trace_id)
            span_id = next(ids)
            _CURRENT_SPAN.set(span_id)
            started = time.perf_counter()
            try:
                return await fn(server, request, *args, **kwargs)
            finally:
                tracer.spans.append(
                    (name, started, time.perf_counter(), span_id, None, trace_id)
                )

        return wrapper

    def dump(self, path: str) -> None:
        payload = {"pid": os.getpid(), "spans": self.spans, "events": self.events}
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(tmp, path)


# -- what gets wrapped -----------------------------------------------------------------


def _eval_name(executor, *_args) -> str:
    backend = getattr(executor, "backend_name", "?")
    if backend == "operational" and getattr(executor, "strategy", "") == "minmax":
        backend = "minmax"
    return f"engine.eval.{getattr(executor, 'direction', '?')}.{backend}"


#: (module, attribute path, span name).  Methods are patched on the class
#: that defines them; functions on the module whose globals the caller reads.
TARGETS: Sequence[Tuple[str, str, NameOf]] = (
    ("repro.engine.engine", "ConsistentAnswerEngine.compile", "engine.plan.compile"),
    ("repro.engine.engine", "ConsistentAnswerEngine.answer", "engine.answer"),
    ("repro.engine.engine", "ConsistentAnswerEngine.answer_group_by", "engine.answer"),
    ("repro.engine.engine", "ConsistentAnswerEngine.answer_many", "engine.answer"),
    ("repro.engine.backends", "PreparedExecutor.evaluate_many", _eval_name),
    ("repro.engine.backends", "_OperationalExecutor.evaluate", _eval_name),
    ("repro.engine.backends", "_SqlExecutor.evaluate", _eval_name),
    ("repro.engine.backends", "_SqlExecutor.evaluate_many", _eval_name),
    ("repro.engine.backends", "_SolverExecutor.evaluate", _eval_name),
    ("repro.engine.sharding", "execute_sharded", "engine.sharding.execute"),
    ("repro.engine.sharding", "summarize_shard", "engine.sharding.summarize"),
    ("repro.engine.sharding", "summarize_shard_groups", "engine.sharding.summarize"),
    ("repro.engine.sharding", "merge_shard_answers", "engine.sharding.merge"),
    ("repro.engine.sharding", "merge_group_answers", "engine.sharding.merge"),
    ("repro.engine.batch", "execute_batch", "engine.batch.execute"),
    ("repro.engine.batch", "run_in_fork_pool", "engine.batch.fork"),
    ("repro.engine.workers", "WorkerPool.answer", "engine.workers.answer"),
    ("repro.engine.workers", "WorkerPool.run_chunks", "engine.workers.answer"),
    ("repro.engine.workers", "WorkerPool.summarize_shards", "engine.workers.shard"),
    ("repro.core.rewriter", "GlbRewriting.evaluate", "fol.rewriting_eval"),
    ("repro.datamodel.instance", "DatabaseInstance.relation", "datamodel.relation"),
    ("repro.serve.registry", "InstanceRegistry.mutate", "serve.registry.mutate"),
    ("repro.store.store", "InstanceStore.mutate", "store.mutate"),
    ("repro.store.store", "InstanceStore.compact", "store.compact"),
    ("repro.serve.app", "loads", "serve.protocol.decode"),
    ("repro.serve.app", "dumps", "serve.protocol.encode"),
    ("repro.serve.app", "encode_range_answer", "serve.protocol.encode"),
    ("repro.serve.app", "encode_group_answers", "serve.protocol.encode"),
)


def _resolve(module_name: str, path: str):
    import importlib

    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer, worker_dump_prefix: Optional[str] = None) -> None:
    """Patch every target, plus the fsync, log-size and worker hooks.

    ``worker_dump_prefix`` makes each engine worker process (forked from
    this one after installation) dump its own spans when it exits.
    """
    for module_name, path, name in TARGETS:
        owner, attr = _resolve(module_name, path)
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name))

    os.fsync = tracer.wrap(os.fsync, "store.fsync")

    from repro.store.log import FactLog

    append_batch = FactLog.append_batch

    @functools.wraps(append_batch)
    def counted_append_batch(log, records):
        before = os.path.getsize(log.path) if os.path.exists(log.path) else 0
        try:
            return append_batch(log, records)
        finally:
            tracer.count("store.log_bytes", os.path.getsize(log.path) - before)

    FactLog.append_batch = counted_append_batch

    from repro.serve.app import ConsistentAnswerServer

    ConsistentAnswerServer._process = tracer.wrap_request_root(
        ConsistentAnswerServer._process, "serve.app"
    )

    if worker_dump_prefix is not None:
        import repro.engine.workers as workers

        worker_main = workers._worker_main

        @functools.wraps(worker_main)
        def traced_worker_main(*args, **kwargs):
            tracer.reset()
            try:
                return worker_main(*args, **kwargs)
            finally:
                tracer.dump(f"{worker_dump_prefix}.worker-{os.getpid()}.json")

        workers._worker_main = traced_worker_main


# -- analysis --------------------------------------------------------------------------


def load_dumps(paths: Iterable[str]) -> List[dict]:
    dumps = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            dumps.append(json.load(handle))
    return dumps


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class SpanSet:
    """Spans of every traced process, restricted to one time window."""

    def __init__(self, dumps: Sequence[dict], start: float, end: float) -> None:
        self.spans: List[Tuple[int, Span]] = []
        self.counters: Dict[str, float] = {}
        for dump in dumps:
            pid = dump["pid"]
            for span in dump["spans"]:
                if start <= span[1] <= end:
                    self.spans.append((pid, tuple(span)))
            for name, at, amount in dump["events"]:
                if start <= at <= end:
                    self.counters[name] = self.counters.get(name, 0) + amount

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """``{layer: (calls, self seconds)}`` over the window.

        Self time is a span's duration minus the part of it that its child
        spans (same process, any thread) cover.
        """
        children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
        for pid, span in self.spans:
            if span[4] is not None:
                children.setdefault((pid, span[4]), []).append((span[1], span[2]))
        layers: Dict[str, Tuple[int, float]] = {}
        for pid, (name, start, end, span_id, _parent, _trace) in self.spans:
            kids = children.get((pid, span_id))
            own = (end - start) - (_covered(kids, start, end) if kids else 0.0)
            calls, total = layers.get(name, (0, 0.0))
            layers[name] = (calls + 1, total + max(0.0, own))
        return layers

    def by_trace(self, pid: Optional[int] = None) -> Dict[str, List[Span]]:
        """Spans of one process grouped by the trace id they carry."""
        grouped: Dict[str, List[Span]] = {}
        for span_pid, span in self.spans:
            if span[5] is not None and (pid is None or span_pid == pid):
                grouped.setdefault(span[5], []).append(span)
        return grouped

    @staticmethod
    def covered(spans: Sequence[Span], start: float, end: float, skip: str = "") -> float:
        return _covered([(s[1], s[2]) for s in spans if s[0] != skip], start, end)
