"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_cpu --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``serve_cpu`` — process-mode server (``--workers 2``), the ``cpu``
  rotation over four generated instances;
* ``serve_write`` — thread-mode server with a durable store, one
  connection sending PATCH writes and re-reads to four generated
  instances registered with 8 shards each;
* ``library`` — in-process engine calls on a generated ~500-block
  instance, one caller.

Every caller is a closed loop.  ``--trace 0`` measures the untraced program
and prints the end-to-end metrics; ``--trace 1`` runs the workload twice,
untraced and then with the span wrappers of :mod:`tracer` installed, and
prints the per-layer metrics.  Every reply is checked against a reference
computed outside the timed window.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--workload all`` runs the three untraced workloads one after another,
prints every end-to-end metric with its unit and workload, and exits 1 if
any answer was wrong.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("serve_cpu", "serve_write", "library")
SERVE_SETUPS = 3
#: Width of the slices whose median rate is a serve workload's ``ops_per_s``.
SLICE_S = 5.0
LIBRARY_SETUPS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)

EVALUATORS = ("operational", "minmax", "branch_and_bound", "sqlite")
EVAL_LAYERS = tuple(
    f"engine.eval.{direction}.{evaluator}"
    for direction in ("glb", "lub")
    for evaluator in EVALUATORS
)

#: Per-layer metrics: (name, unit).  ``ms/op`` is the layer's self time
#: summed over the traced window and divided by the operations completed
#: in it, so the layers of one workload add up to its mean latency.
PER_LAYER = (
    ("serve.app.self_ms", "ms/op"),
    ("serve.protocol.decode_ms", "ms/op"),
    ("serve.protocol.encode_ms", "ms/op"),
    ("serve.admission.shed", "count"),
    ("serve.registry.mutate_ms", "ms/op"),
    ("serve.write.p50_ms", "ms"),
    ("serve.write.tail_ms", "ms"),
    ("store.mutate_ms", "ms/op"),
    ("store.fsync_ms", "ms/op"),
    ("store.fsyncs_per_write", "1/write"),
    ("store.compact_ms", "ms/op"),
    ("store.compactions", "count"),
    ("store.bytes_per_write", "B/write"),
    ("engine.plan.compile_ms", "ms/op"),
    ("engine.plan.hit_ratio", "ratio"),
    ("engine.plan.lookups", "count"),
    ("engine.answer_ms", "ms/op"),
    *((f"{layer}_ms", "ms/op") for layer in EVAL_LAYERS),
    *((f"{layer}_calls", "count") for layer in EVAL_LAYERS),
    ("engine.sql.memo_hit_ratio", "ratio"),
    ("engine.sql.memo_lookups", "count"),
    ("engine.sharding.execute_ms", "ms/op"),
    ("engine.sharding.summarize_ms", "ms/op"),
    ("engine.sharding.summaries_per_answer", "1/answer"),
    ("engine.sharding.merge_ms", "ms/op"),
    ("engine.sharding.summary_hit_ratio", "ratio"),
    ("engine.sharding.summary_lookups", "count"),
    ("engine.sharding.summary_evictions", "count"),
    ("engine.batch.execute_ms", "ms/op"),
    ("engine.batch.fork_calls", "count"),
    ("engine.batch.fork_ms", "ms/op"),
    ("engine.workers.answer_ms", "ms/op"),
    ("engine.workers.shard_ms", "ms/op"),
    ("engine.workers.jobs", "count"),
    ("engine.workers.delta_ships", "count"),
    ("engine.workers.delta_reships", "count"),
    ("engine.workers.restarts", "count"),
    ("fol.rewriting_eval_ms", "ms/op"),
    ("datamodel.relation_calls", "count"),
    ("datamodel.relation_ms", "ms/op"),
    ("obs.sample_rate", "N"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
)

#: Span name behind each ``ms/op`` metric.
SPAN_OF = {
    "serve.protocol.decode_ms": "serve.protocol.decode",
    "serve.protocol.encode_ms": "serve.protocol.encode",
    "serve.registry.mutate_ms": "serve.registry.mutate",
    "store.mutate_ms": "store.mutate",
    "store.fsync_ms": "store.fsync",
    "store.compact_ms": "store.compact",
    "engine.plan.compile_ms": "engine.plan.compile",
    "engine.answer_ms": "engine.answer",
    **{f"{layer}_ms": layer for layer in EVAL_LAYERS},
    "engine.sharding.execute_ms": "engine.sharding.execute",
    "engine.sharding.summarize_ms": "engine.sharding.summarize",
    "engine.sharding.merge_ms": "engine.sharding.merge",
    "engine.batch.execute_ms": "engine.batch.execute",
    "engine.batch.fork_ms": "engine.batch.fork",
    "engine.workers.answer_ms": "engine.workers.answer",
    "engine.workers.shard_ms": "engine.workers.shard",
    "fol.rewriting_eval_ms": "fol.rewriting_eval",
    "datamodel.relation_ms": "datamodel.relation",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        _fail(f"no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


# -- shared result helpers -------------------------------------------------------------


class Outcome:
    """What one run measured, plus what the report prints around it."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.absent: List[str] = []
        self.notes: Dict[str, object] = {}
        self.layer_table: List[Tuple[str, int, float]] = []

    def add_checked(self, count: int, failures: Sequence[str]) -> None:
        self.attempted += count
        self.failures.extend(failures)


def end_to_end(outcome, ops, start, tail_pct, setups, rss_mb, slice_s=None) -> None:
    """Fill the end-to-end metrics of an untraced window.

    With ``slice_s``, ``ops_per_s`` is the median rate over consecutive
    slices of that many seconds, so a few seconds in which the host ran
    slow do not move it; without, it is the rate over the whole window.
    """
    from stats import latency_summary, median, percentile, slice_rates, tail_percentile_for

    finished = max(op.received for op in ops)
    answers = [op.latency_ms for op in ops if op.kind == "answer"]
    summary = latency_summary(answers, tail_pct)
    window_rate = len(ops) / (finished - start)
    rates = slice_rates([op.received for op in ops], start, finished, slice_s) if slice_s else []
    rate = median(rates) if rates else window_rate
    outcome.notes["slice_ops_per_s"] = [round(r, 2) for r in rates]
    outcome.notes["window_ops_per_s"] = window_rate
    outcome.notes["answer_ms_percentiles"] = {
        f"p{pct}": round(percentile(answers, pct), 3) for pct in (50, 75, 90, 95, 97, 99)
    }
    outcome.metrics.update(
        setup_s=median(setups),
        ops_per_s=rate,
        p50_ms=summary["p50_ms"],
        tail_ms=summary["tail_ms"],
        success_rate=1.0 - len(outcome.failures) / outcome.attempted,
        peak_rss_mb=rss_mb,
    )
    outcome.notes["setups_s"] = [round(s, 4) for s in setups]
    outcome.notes["answer_latency"] = {
        "samples": len(answers),
        "tail_percentile": f"p{tail_pct}",
        "samples_beyond_tail": summary["samples_beyond_tail"],
        "rule_would_pick": f"p{tail_percentile_for(len(answers))}",
    }


def ops_per_s(ops, start) -> float:
    return len(ops) / (max(op.received for op in ops) - start)


def layer_metrics(
    outcome: Outcome,
    spans,
    ops,
    root_pid: int,
    counters: Dict[str, Optional[float]],
    serve: bool,
) -> None:
    """Fill the per-layer metrics from the traced window's spans."""
    from stats import ratio

    layers = spans.self_times()
    n_ops = len(ops)
    metrics = outcome.metrics
    for metric, span_name in SPAN_OF.items():
        calls, seconds = layers.get(span_name, (0, 0.0))
        metrics[metric] = seconds * 1000.0 / n_ops
        if calls == 0:
            outcome.absent.append(metric)
    for layer in EVAL_LAYERS:
        metrics[f"{layer}_calls"] = layers.get(layer, (0, 0.0))[0]
        if metrics[f"{layer}_calls"] == 0:
            outcome.absent.append(f"{layer}_calls")
    outcome.layer_table = sorted(
        ((name, calls, seconds * 1000.0 / n_ops) for name, (calls, seconds) in layers.items()),
        key=lambda row: -row[2],
    )

    traces = spans.by_trace(root_pid)
    total = uncovered = 0.0
    app_self = []
    for op in ops:
        latency = op.received - op.sent
        own = traces.get(op.trace_id, [])
        total += latency
        uncovered += max(0.0, latency - spans.covered(own, op.sent, op.received))
        if serve and op.kind == "answer":
            inner = spans.covered(own, op.sent, op.received, skip="serve.app")
            app_self.append((latency - inner) * 1000.0)
    metrics["bench.unattributed_pct"] = 100.0 * uncovered / total
    metrics["serve.app.self_ms"] = sum(app_self) / len(app_self) if app_self else 0.0
    if not app_self:
        outcome.absent.append("serve.app.self_ms")

    writes = sum(1 for op in ops if op.kind == "write")
    fsyncs = layers.get("store.fsync", (0, 0.0))[0]
    metrics["store.fsyncs_per_write"] = fsyncs / writes if writes else 0.0
    metrics["store.compactions"] = layers.get("store.compact", (0, 0.0))[0]
    log_bytes = spans.counters.get("store.log_bytes", 0)
    metrics["store.bytes_per_write"] = log_bytes / writes if writes else 0.0
    if not writes or "store.mutate" not in layers:
        outcome.absent += ["store.fsyncs_per_write", "store.bytes_per_write"]
    if "store.mutate" not in layers:
        outcome.absent.append("store.compactions")

    executes = layers.get("engine.sharding.execute", (0, 0.0))[0]
    summaries = layers.get("engine.sharding.summarize", (0, 0.0))[0]
    metrics["engine.sharding.summaries_per_answer"] = (
        summaries / executes if executes else 0.0
    )
    if not executes:
        outcome.absent.append("engine.sharding.summaries_per_answer")
    metrics["engine.batch.fork_calls"] = layers.get("engine.batch.fork", (0, 0.0))[0]
    metrics["datamodel.relation_calls"] = layers.get("datamodel.relation", (0, 0.0))[0]

    def counter(name: str, metric: str) -> float:
        value = counters.get(name)
        if value is None:
            outcome.absent.append(metric)
            return 0.0
        return value

    plan_hits = counter("plan.hits", "engine.plan.lookups")
    plan_lookups = plan_hits + counter("plan.misses", "engine.plan.lookups")
    metrics["engine.plan.lookups"] = plan_lookups
    metrics["engine.plan.hit_ratio"] = ratio(plan_hits, plan_lookups)
    memo_hits = counter("memo.hits", "engine.sql.memo_lookups")
    memo_lookups = memo_hits + counter("memo.misses", "engine.sql.memo_lookups")
    metrics["engine.sql.memo_lookups"] = memo_lookups
    metrics["engine.sql.memo_hit_ratio"] = ratio(memo_hits, memo_lookups)
    summary_hits = counter("summary.hits", "engine.sharding.summary_lookups")
    summary_lookups = summary_hits + counter(
        "summary.misses", "engine.sharding.summary_lookups"
    )
    metrics["engine.sharding.summary_lookups"] = summary_lookups
    metrics["engine.sharding.summary_hit_ratio"] = ratio(summary_hits, summary_lookups)
    metrics["engine.sharding.summary_evictions"] = counter(
        "summary.evictions", "engine.sharding.summary_evictions"
    )
    for name in ("jobs", "delta_ships", "delta_reships", "restarts"):
        metrics[f"engine.workers.{name}"] = counter(
            f"workers.{name}", f"engine.workers.{name}"
        )
    metrics["serve.admission.shed"] = counter("admission.shed", "serve.admission.shed")
    metrics["obs.sample_rate"] = counter("sample_rate", "obs.sample_rate")
    outcome.notes["ratios"] = {
        "engine.plan.hit_ratio": f"{int(plan_hits)}/{int(plan_lookups)}",
        "engine.sql.memo_hit_ratio": f"{int(memo_hits)}/{int(memo_lookups)}",
        "engine.sharding.summary_hit_ratio": f"{int(summary_hits)}/{int(summary_lookups)}",
    }
    for name in ("engine.plan.hit_ratio", "engine.sql.memo_hit_ratio",
                 "engine.sharding.summary_hit_ratio"):
        if outcome.notes["ratios"][name].endswith("/0"):
            outcome.absent.append(name)


def write_latencies(outcome: Outcome, ops, tail_pct: int) -> None:
    from stats import percentile

    writes = [op.latency_ms for op in ops if op.kind == "write"]
    for name, pct in (("serve.write.p50_ms", 50), ("serve.write.tail_ms", tail_pct)):
        outcome.metrics[name] = percentile(writes, pct) if writes else 0.0
        if not writes:
            outcome.absent.append(name)


# -- HTTP workloads --------------------------------------------------------------------


def _serve_counters(before: dict, after: dict, untraced_end: dict) -> Dict[str, Optional[float]]:
    def delta(*path):
        a, b = before, after
        for key in path:
            if not isinstance(a, dict) or key not in a or key not in b:
                return None
            a, b = a[key], b[key]
        return float(b) - float(a)

    pool = after.get("worker_pool", {})
    pool_on = isinstance(pool, dict) and pool.get("enabled")
    counters = {
        "plan.hits": delta("plan_cache", "hits"),
        "plan.misses": delta("plan_cache", "misses"),
        "memo.hits": delta("sql_memo", "hits"),
        "memo.misses": delta("sql_memo", "misses"),
        "summary.hits": delta("sharding", "summary_cache", "hits"),
        "summary.misses": delta("sharding", "summary_cache", "misses"),
        "summary.evictions": delta("sharding", "summary_cache", "evictions"),
        "admission.shed": delta("rejected_total"),
        "sample_rate": float(untraced_end.get("sampling", {}).get("rate", 0)) or None,
    }
    for name, key in (
        ("jobs", "jobs_submitted"),
        ("delta_ships", "delta_ships"),
        ("delta_reships", "delta_reships"),
        ("restarts", "restarts"),
    ):
        counters[f"workers.{name}"] = delta("worker_pool", key) if pool_on else None
    return counters


def _boot(workload, run_dir: str, label: str, spans_path: Optional[str]):
    """Start a server, register the instances, warm up.  The timed set-up."""
    from server import ServerProcess, drive

    store_dir = os.path.join(run_dir, f"store-{label}")
    server = ServerProcess(run_dir, label, workload.serve_args(store_dir), spans_path)
    port = server.start()
    try:
        workload.register(port)
        warm = drive(port, workload.warmup_scripts(), trace_prefix="d" * 16)
    except BaseException:
        server.stop()
        raise
    return server, warm


def run_serve(name: str, seed: int, seconds: float, trace: bool, run_dir: str) -> Outcome:
    from server import drive
    from serve_workloads import SERVE_WORKLOADS, fetch_metrics

    workload = SERVE_WORKLOADS[name](seed)
    outcome = Outcome()

    def window(server, duration: float, phase: int):
        start = time.perf_counter()
        ops = drive(
            server.port,
            workload.scripts(),
            until=start + duration,
            trace_prefix=f"{phase:02x}{seed & (2**56 - 1):014x}",
        )
        return start, ops

    if not trace:
        setups: List[float] = []
        server = None
        for index in range(SERVE_SETUPS):
            started = time.perf_counter()
            server, warm = _boot(workload, run_dir, f"setup{index}", None)
            setups.append(time.perf_counter() - started)
            outcome.add_checked(len(warm), workload.check(warm))
            if index < SERVE_SETUPS - 1:
                server.stop()
        try:
            start, ops = window(server, seconds, 0)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        outcome.add_checked(len(ops), workload.check(ops))
        end_to_end(outcome, ops, start, workload.tail_pct, setups, rss, SLICE_S)
    else:
        server, warm = _boot(workload, run_dir, "untraced", None)
        try:
            outcome.add_checked(len(warm), workload.check(warm))
            start_a, ops_a = window(server, seconds / 2, 1)
            untraced_end = fetch_metrics(server.port)
        finally:
            server.stop()
        outcome.add_checked(len(ops_a), workload.check(ops_a))
        write_latencies(outcome, ops_a, workload.tail_pct)

        spans_path = os.path.join(run_dir, "spans.json")
        server, warm = _boot(workload, run_dir, "traced", spans_path)
        try:
            outcome.add_checked(len(warm), workload.check(warm))
            before = fetch_metrics(server.port)
            start_b, ops_b = window(server, seconds / 2, 2)
            after = fetch_metrics(server.port)
            root_pid = server.proc.pid
        finally:
            server.stop()
        outcome.add_checked(len(ops_b), workload.check(ops_b))
        from tracer import SpanSet, load_dumps

        dumps = load_dumps(
            [spans_path] + sorted(glob.glob(f"{spans_path}.worker-*.json"))
        )
        spans = SpanSet(dumps, start_b, max(op.received for op in ops_b))
        layer_metrics(
            outcome,
            spans,
            ops_b,
            root_pid,
            _serve_counters(before, after, untraced_end),
            serve=True,
        )
        untraced, traced = ops_per_s(ops_a, start_a), ops_per_s(ops_b, start_b)
        outcome.metrics["bench.trace_overhead_pct"] = 100.0 * (untraced - traced) / untraced
        outcome.notes["untraced_ops_per_s"] = untraced
        outcome.notes["traced_ops_per_s"] = traced
    outcome.notes["provenance"] = workload.provenance()
    outcome.notes["tail_percentile"] = f"p{workload.tail_pct}"
    return outcome


# -- the library workload --------------------------------------------------------------


def _library_counters(workload) -> Dict[str, float]:
    from repro.engine import sql_memo_stats, summary_cache_stats

    plans = [workload.engine.cache_stats(), workload.sql_engine.cache_stats()]
    memo = sql_memo_stats()
    summary = summary_cache_stats()
    return {
        "plan.hits": sum(p.hits for p in plans),
        "plan.misses": sum(p.misses for p in plans),
        "memo.hits": memo["hits"],
        "memo.misses": memo["misses"],
        "summary.hits": summary["hits"],
        "summary.misses": summary["misses"],
        "summary.evictions": summary["evictions"],
    }


def run_library(seed: int, seconds: float, trace: bool, run_dir: str) -> Outcome:
    from library import Library

    workload = Library(seed)
    outcome = Outcome()
    setups = []
    for _ in range(LIBRARY_SETUPS if not trace else 1):
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    prefix = f"{seed & (2**64 - 1):016x}"

    if not trace:
        start = time.perf_counter()
        ops = workload.run(start + seconds, prefix)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcome.add_checked(len(ops), workload.check(ops, workload.references()))
        end_to_end(outcome, ops, start, workload.tail_pct, setups, rss)
    else:
        start_a = time.perf_counter()
        ops_a = workload.run(start_a + seconds / 2, prefix)

        from tracer import SpanSet, Tracer, install, set_trace_id

        tracer = Tracer()
        install(tracer)
        before = _library_counters(workload)
        start_b = time.perf_counter()
        ops_b = workload.run(start_b + seconds / 2, prefix, on_call=set_trace_id)
        after = _library_counters(workload)
        set_trace_id(None)
        references = workload.references()
        outcome.add_checked(len(ops_a), workload.check(ops_a, references))
        outcome.add_checked(len(ops_b), workload.check(ops_b, references))
        spans = SpanSet(
            [{"pid": os.getpid(), "spans": tracer.spans, "events": tracer.events}],
            start_b,
            max(op.received for op in ops_b),
        )
        counters: Dict[str, Optional[float]] = {
            name: after[name] - before[name] for name in after
        }
        for name in ("jobs", "delta_ships", "delta_reships", "restarts"):
            counters[f"workers.{name}"] = None
        counters["admission.shed"] = None
        counters["sample_rate"] = None
        layer_metrics(outcome, spans, ops_b, os.getpid(), counters, serve=False)
        write_latencies(outcome, [], workload.tail_pct)
        untraced, traced = ops_per_s(ops_a, start_a), ops_per_s(ops_b, start_b)
        outcome.metrics["bench.trace_overhead_pct"] = 100.0 * (untraced - traced) / untraced
        outcome.notes["untraced_ops_per_s"] = untraced
        outcome.notes["traced_ops_per_s"] = traced
    outcome.notes["provenance"] = workload.provenance()
    outcome.notes["tail_percentile"] = f"p{workload.tail_pct}"
    return outcome


# -- reporting ---------------------------------------------------------------------------


def report(workload: str, seed: int, trace: bool, outcome: Outcome) -> dict:
    from stats import host_facts

    names = PER_LAYER if trace else END_TO_END
    metrics = {
        name: {"value": float(outcome.metrics[name]), "unit": unit} for name, unit in names
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "host": host_facts(ROOT),
        **outcome.notes,
        "failures": outcome.failures[:20],
        "absent": sorted(set(outcome.absent)) if trace else [],
        "metrics": metrics,
    }
    print(json.dumps({k: v for k, v in detail.items() if k != "metrics"}, default=str))
    for name, unit in names:
        shown = "absent" if name in detail["absent"] else f"{outcome.metrics[name]:.6g}"
        ratio = outcome.notes.get("ratios", {}).get(name)
        if ratio is not None:
            shown += f" ({ratio})"
        print(f"{workload:12s} {name:42s} {shown:>20s} {unit}")
    if trace:
        print(f"{workload:12s} self time by layer (calls, ms/op):")
        for layer, calls, per_op in outcome.layer_table:
            print(f"{workload:12s}   {layer:40s} {calls:9d} {per_op:12.4f}")
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(
        OUT_DIR, "results", f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, default=str)
    return {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced, one subprocess each; non-zero on a wrong answer."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            print(f"{workload}: run failed (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        rows.append((workload, result))
    print(f"{'workload':12s} {'metric':14s} {'value':>14s} unit")
    for workload, result in rows:
        for name, metric in result["metrics"].items():
            print(f"{workload:12s} {name:14s} {metric['value']:14.6g} {metric['unit']}")
        error_rate = result["failed"] / result["attempted"]
        print(f"{workload:12s} {'error_rate':14s} {error_rate:14.6g} ratio "
              f"({result['failed']}/{result['attempted']}, correct={result['correct']})")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    _import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    run_dir = os.path.join(
        OUT_DIR, f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    )
    os.makedirs(run_dir, exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(run_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    try:
        if args.workload == "library":
            outcome = run_library(args.seed, args.seconds, bool(args.trace), run_dir)
        else:
            outcome = run_serve(
                args.workload, args.seed, args.seconds, bool(args.trace), run_dir
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = report(args.workload, args.seed, bool(args.trace), outcome)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
