"""The two HTTP workloads: ``serve_cpu`` and ``serve_write``.

Each workload knows how to configure the server, register its generated
instances over HTTP, build the per-connection request scripts, and check
every reply against a reference computed in this process by a serial,
unsharded engine (outside the timed window).
"""

from __future__ import annotations

import itertools
import json
import random
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine import ConsistentAnswerEngine
from repro.query.parser import parse_aggregation_query
from repro.serve.protocol import (
    decode_group_answers,
    decode_range_answer,
    instance_to_payload,
)
from repro.workloads import (
    InconsistentDatabaseGenerator,
    WorkloadSpec,
    derive_seed,
    fig1_stock_instance,
)

from server import Request, Result, drive, json_request

STOCK_SUM = "SUM(y) <- Dealers('Smith', t), Stock(p, t, y)"
WHOLE_MAX = "MAX(y) <- Stock(p, t, y)"
WHOLE_MIN = "MIN(y) <- Stock(p, t, y)"
WHOLE_SUM = "SUM(y) <- Stock(p, t, y)"
TOWN_SUM = "(t, SUM(y)) <- Stock(p, t, y)"

PLAN_CACHE_CAPACITY = 256
SUMMARY_CACHE_CAPACITY = 512


def generated_instance(blocks: int, seed: int, inconsistency: float = 0.2):
    """The scalability-shaped Stock/Dealers instance the serve benches use."""
    spec = WorkloadSpec(
        dealers=max(5, blocks // 10),
        products=max(5, blocks // 10),
        towns=max(5, blocks // 20),
        stock_facts=blocks,
        inconsistency=inconsistency,
        seed=seed,
    )
    return InconsistentDatabaseGenerator(spec).generate()


def instance_facts(instance) -> Dict[str, int]:
    return {
        "facts": len(instance),
        "blocks": instance.block_count(),
        "inconsistent_blocks": len(instance.inconsistent_blocks()),
    }


def whole_sum_reference(instance):
    """Exact [glb, lub] of ``SUM(y) <- Stock(p, t, y)``.

    Every repair keeps exactly one fact of every Stock block and the body
    has no join, so the bounds are the sums of the per-block minima and
    maxima.  The unsharded engine computes the lub by branch and bound,
    which takes minutes at this size, so this closed form is the reference.
    """
    from fractions import Fraction

    from repro.core.range_answers import RangeAnswer

    low = high = Fraction(0)
    for block in instance.blocks("Stock"):
        values = [Fraction(fact.values[2]) for fact in block]
        low += min(values)
        high += max(values)
    return RangeAnswer(low, high)


class ServeWorkload:
    """Common shape of the HTTP workloads (one closed-loop connection)."""

    name = ""
    # Each workload drives one connection.  With two on a 2-vCPU host the
    # figures followed the host's share of a second core: over six seeds
    # serve_cpu's p50 and p95 spread 0.17 and 0.25 (0.10 and 0.14 with
    # one), serve_write's ops_per_s 0.17 (0.13 with one).
    connections = 1
    loop = "closed"
    tail_pct = 99

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.instances = {"stock": fig1_stock_instance()}
        self._engine = ConsistentAnswerEngine(batch_workers=1)
        self._references: Dict[tuple, object] = {}
        self._checked: Dict[Tuple[object, bytes], Optional[str]] = {}

    # -- set-up ---------------------------------------------------------------------

    def serve_args(self, store_dir: str) -> List[str]:
        return []

    def register(self, port: int) -> None:
        """POST the generated instances (part of the timed set-up)."""

    def warmup_scripts(self) -> List[Iterator[Request]]:
        raise NotImplementedError

    def scripts(self) -> List[Iterator[Request]]:
        raise NotImplementedError

    def provenance(self) -> Dict[str, object]:
        return {
            "instances": {
                name: instance_facts(instance)
                for name, instance in sorted(self.instances.items())
            },
            "connections": self.connections,
            "loop": self.loop,
            "plan_cache_capacity": PLAN_CACHE_CAPACITY,
            "summary_cache_capacity": SUMMARY_CACHE_CAPACITY,
        }

    # -- correctness ----------------------------------------------------------------

    def reference(self, instance_name: str, query_text: str, state=None):
        key = (instance_name, query_text, state)
        if key not in self._references:
            instance = self.instance_at(instance_name, state)
            if query_text == WHOLE_SUM:
                answer = whole_sum_reference(instance)
            else:
                query = parse_aggregation_query(instance.schema, query_text)
                if query.free_variables:
                    answer = self._engine.answer_group_by(query, instance)
                else:
                    answer = self._engine.answer(query, instance)
            self._references[key] = answer
        return self._references[key]

    def instance_at(self, instance_name: str, state):
        return self.instances[instance_name]

    def check_body(self, tag, payload, state=None) -> Optional[str]:
        """None when the reply body matches the reference, else why not."""
        kind = tag[0]
        if kind == "answer":
            got = decode_range_answer(payload["answer"])
            want = self.reference(tag[1], tag[2], state)
            return None if got == want else f"{tag}: got {got}, want {want}"
        if kind == "group":
            got = decode_group_answers(payload["groups"])
            want = self.reference(tag[1], tag[2], state)
            return None if got == want else f"{tag}: groups differ"
        if kind == "many":
            results = payload["results"]
            if len(results) != len(tag[1]):
                return f"{tag}: {len(results)} results"
            for position, (item, (instance_name, text)) in enumerate(
                zip(results, tag[1])
            ):
                if item.get("index") != position:
                    return f"{tag}: result {position} out of order"
                sub = ("group", instance_name, text) if "groups" in item else (
                    "answer",
                    instance_name,
                    text,
                )
                problem = self.check_body(sub, item, state)
                if problem is not None:
                    return problem
            return None
        return f"unknown tag {tag}"

    def check(self, results: Sequence[Result]) -> List[str]:
        """Failures among ``results`` (HTTP errors and wrong answers)."""
        failures = []
        for result in results:
            if result.status != 200:
                failures.append(f"{result.tag}: HTTP {result.status}")
                continue
            problem = self.check_result(result)
            if problem is not None:
                failures.append(problem)
        return failures

    def check_result(self, result: Result) -> Optional[str]:
        key = (result.tag, result.body)
        if key not in self._checked:
            try:
                self._checked[key] = self.check_body(result.tag, json.loads(result.body))
            except (ValueError, KeyError, TypeError) as exc:
                self._checked[key] = f"{result.tag}: malformed reply ({exc})"
        return self._checked[key]


def _query_request(path: str, instance: str, query: str) -> Request:
    kind = "group" if path == "/answer_group_by" else "answer"
    return json_request(
        "POST", path, {"instance": instance, "query": query}, "answer", (kind, instance, query)
    )


def _many_request(items: Sequence[Tuple[str, str]]) -> Request:
    payload = {"items": [{"instance": i, "query": q} for i, q in items]}
    return json_request("POST", "/answer_many", payload, "answer", ("many", tuple(items)))


def _rotate(rotation: Sequence[Request], offset: int) -> Iterator[Request]:
    for index in itertools.count(offset):
        yield rotation[index % len(rotation)]


class ServeCpu(ServeWorkload):
    """The ``cpu`` rotation over generated instances, process mode."""

    name = "serve_cpu"
    # A 35 s run collects 700-950 answers, so p99 would keep fewer than ten
    # samples beyond it; p95 keeps 35-47.
    tail_pct = 95
    blocks = 160
    # The per-town GROUP BY lub is a branch-and-bound search per town; at
    # the generator's 0.2 its cost ranged 63-266 ms over seeds, at 0.1 the
    # seeds compare.
    inconsistency = 0.1
    # Even at 0.1 one instance's rotation cost 96-180 ms over ten seeds;
    # the rotation runs over several independently generated instances,
    # so a run averages their costs.
    generated = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.names = [f"workload{k}" for k in range(self.generated)]
        for name in self.names:
            self.instances[name] = generated_instance(
                self.blocks, derive_seed(seed, f"{self.name}/{name}"), self.inconsistency
            )

    def serve_args(self, store_dir: str) -> List[str]:
        return ["--workers", "2"]

    def register(self, port: int) -> None:
        for name in self.names:
            _register(port, name, self.instances[name], shards=1)

    def rotation(self) -> List[Request]:
        requests = []
        for name in self.names:
            requests += [
                _query_request("/answer", name, WHOLE_MAX),
                _query_request("/answer", name, WHOLE_MIN),
                _query_request("/answer_group_by", name, TOWN_SUM),
                _query_request("/answer", "stock", STOCK_SUM),
                _many_request([(name, WHOLE_MAX), (name, WHOLE_MIN)]),
            ]
        return requests

    def warmup_scripts(self):
        return [iter(self.rotation())]

    def scripts(self):
        rotation = self.rotation()
        return [_rotate(rotation, self.seed % len(rotation))]

    def provenance(self):
        return {
            **super().provenance(),
            "worker_processes": 2,
            "inconsistency": self.inconsistency,
        }


class WriteCycle:
    """The writer's op sequence over a few consistent Stock blocks.

    Per block: three value replacements, each restored by the next write,
    then a conflicting fact inserted and deleted.  Replacements keep the
    fact count; the insert and delete change it by one, which makes the
    ``balanced`` shard placement re-pack.  The instance is back at its
    registered state after every eight writes.  Cycling over several
    blocks averages the cost of the shards they sit in, so seeds compare.
    The first write starts ``skip`` phases into the cycle; an even
    ``skip`` starts it at a pair, from the registered state.
    """

    PHASES = ("replace", "restore") * 3 + ("insert", "delete")

    def __init__(self, instance, seed: int, blocks: int = 8, skip: int = 0) -> None:
        stock = sorted(
            (b for b in instance.blocks("Stock") if len(b) == 1),
            key=lambda b: repr(sorted(b, key=repr)),
        )
        rng = random.Random(seed)
        self.blocks = []
        for block in rng.sample(stock, blocks):
            [fact] = block
            top = fact.values[2]
            self.blocks.append(
                (fact, fact.values[:2] + (top + 7,), fact.values[:2] + (top + 11,))
            )
        self.period = len(self.PHASES) * len(self.blocks)
        self.skip = skip
        self._count = itertools.count(1)
        self._lock = threading.Lock()

    def _phase(self, write_number: int) -> Tuple[int, str]:
        r = (write_number - 1 + self.skip) % self.period
        return r // len(self.PHASES), self.PHASES[r % len(self.PHASES)]

    def ops_for(self, write_number: int) -> List[Tuple[str, Tuple]]:
        """The ops of the ``write_number``-th write (1-based)."""
        block, phase = self._phase(write_number)
        original, replaced, conflicting = self.blocks[block]
        if phase == "replace":
            return [("remove", original.values), ("add", replaced)]
        if phase == "restore":
            return [("remove", replaced), ("add", original.values)]
        if phase == "insert":
            return [("add", conflicting)]
        return [("remove", conflicting)]

    def state_after(self, write_number: int):
        """A hashable name of the instance state after that many writes."""
        if write_number == 0:
            return None  # the registered state
        block, phase = self._phase(write_number)
        if phase == "replace":
            return (block, "replaced")
        if phase == "insert":
            return (block, "inserted")
        return None

    def apply(self, instance, state):
        from repro.datamodel.facts import Fact

        if state is None:
            return instance
        original, replaced, conflicting = self.blocks[state[0]]
        mirror = instance.copy()
        if state[1] == "replaced":
            mirror.remove_fact(original)
            mirror.add_fact(Fact("Stock", replaced))
        else:
            mirror.add_fact(Fact("Stock", conflicting))
        return mirror

    def next_number(self) -> int:
        with self._lock:
            return next(self._count)


class ServeWrite(ServeWorkload):
    """PATCH writes, each followed by reads, on durable sharded instances."""

    name = "serve_write"
    # The one connection writes and reads, so every run serves the same
    # mix: per PATCH, two reads that miss the summary cache and four that
    # hit.  p99 lies inside the mode of reads after a size-changing write.
    tail_pct = 99
    blocks = 250
    shards = 8
    # The lub of the whole-relation SUM is found by branch and bound per
    # shard, whose cost grows exponentially with the conflicting blocks in
    # a shard.  At the generator's 0.2 the cold answer ranged 156-642 ms
    # over seeds; at 0.1 it stays within 45-80 ms, so seeds compare.
    inconsistency = 0.1
    # The cost of a write cycle depends on the generated instance: over ten
    # seeds one 250-block instance ranged 3.6-5.2 s per 64 writes.  The
    # writer turns over several independently generated instances, so a
    # run averages their costs and seeds compare.
    ledgers = 4
    # The writer re-reads both queries this many times per PATCH.  With one
    # re-read about half of all reads miss the summary cache, so the median
    # sits in the gap between the hit (~5 ms) and miss (~40 ms) modes and
    # jumps between them from seed to seed; with three it stays on hits,
    # and the misses set the tail.
    rereads = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.names = [f"ledger{k}" for k in range(self.ledgers)]
        for name in self.names:
            self.instances[name] = generated_instance(
                self.blocks, derive_seed(seed, f"{self.name}/{name}"), self.inconsistency
            )
        self._reset()
        self._mirrors: Dict[Tuple[str, object], object] = {}

    def _reset(self) -> None:
        # Writes go to the instances in turn.  Each instance's cycle starts
        # two phases after the previous one's, so every round of writes
        # holds one size-changing write instead of all of them falling in
        # the same rounds: the cost per second stays level through a run.
        self.cycles = {
            name: WriteCycle(
                self.instances[name], derive_seed(self.seed, f"writes/{name}"), skip=2 * k
            )
            for k, name in enumerate(self.names)
        }
        self.base_versions = dict.fromkeys(self.names, 0)
        #: Per instance, (write number, sent, acknowledged) per completed PATCH.
        self.write_logs: Dict[str, List[Tuple[int, float, float]]] = {
            name: [] for name in self.names
        }
        self._turn = itertools.count()

    def serve_args(self, store_dir: str) -> List[str]:
        return ["--store-dir", store_dir]

    def register(self, port: int) -> None:
        self._reset()
        for name in self.names:
            reply = _register(port, name, self.instances[name], shards=self.shards)
            self.base_versions[name] = reply["registered"]["version"]

    def _reads(self, name: str) -> List[Request]:
        return [
            _query_request("/answer", name, WHOLE_SUM),
            _query_request("/answer_group_by", name, TOWN_SUM),
        ]

    def _write(self, name: str) -> Request:
        number = self.cycles[name].next_number()
        ops = [
            {"op": op, "relation": "Stock", "values": list(values)}
            for op, values in self.cycles[name].ops_for(number)
        ]

        def record(result: Result) -> None:
            self.write_logs[name].append((number, result.sent, result.received))

        return json_request(
            "PATCH", f"/instances/{name}", {"ops": ops}, "write", ("patch", name, number), record
        )

    def _writer_script(self) -> Iterator[Request]:
        while True:
            name = self.names[next(self._turn) % len(self.names)]
            yield self._write(name)
            for _ in range(self.rereads):
                yield from self._reads(name)

    def warmup_scripts(self):
        warm: List[Request] = []
        for name in self.names:
            warm += self._reads(name)
            warm += [self._write(name) for _ in WriteCycle.PHASES]
            warm += self._reads(name)
        return [iter(warm)]

    def scripts(self):
        return [self._writer_script()]

    def reference(self, instance_name: str, query_text: str, state=None):
        """As the base class, but a written state recomputes only its town.

        Every write touches one Stock block, so against the registered
        state only the written block's town group can differ; the engine
        answers that group alone (the query with its free variable bound)
        and the other groups are the registered state's.
        """
        if query_text != TOWN_SUM or state is None:
            return super().reference(instance_name, query_text, state)
        key = (instance_name, query_text, state)
        if key not in self._references:
            groups = dict(super().reference(instance_name, query_text, None))
            instance = self.instance_at(instance_name, state)
            query = parse_aggregation_query(instance.schema, query_text)
            town = self.cycles[instance_name].blocks[state[0]][0].values[1]
            [variable] = query.free_variables
            groups[(town,)] = self._engine.answer(query, instance, {variable.name: town})
            self._references[key] = groups
        return self._references[key]

    def instance_at(self, instance_name: str, state):
        key = (instance_name, state)
        if key not in self._mirrors:
            self._mirrors[key] = self.cycles[instance_name].apply(
                self.instances[instance_name], state
            )
        return self._mirrors[key]

    def check_result(self, result: Result) -> Optional[str]:
        if result.tag[0] == "patch":
            _kind, name, number = result.tag
            expected = self.base_versions[name] + number
            try:
                version = json.loads(result.body).get("version")
            except (ValueError, AttributeError) as exc:
                return f"{result.tag}: malformed reply ({exc})"
            return None if version == expected else f"{result.tag}: version {version}"
        # Writes whose acknowledgement preceded this read are visible;
        # writes sent before its reply arrived may be.
        name = result.tag[1]
        log = self.write_logs[name]
        lo = max((n for n, _s, acked in log if acked < result.sent), default=0)
        hi = max((n for n, sent, _a in log if sent < result.received), default=0)
        cycle = self.cycles[name]
        states = frozenset(cycle.state_after(n) for n in range(lo, hi + 1))
        key = (result.tag, result.body, states)
        if key not in self._checked:
            try:
                payload = json.loads(result.body)
                problems = [self.check_body(result.tag, payload, s) for s in states]
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"{result.tag}: malformed reply ({exc})"]
            self._checked[key] = (
                None if any(p is None for p in problems) else problems[0]
            )
        return self._checked[key]

    def provenance(self):
        return {
            **super().provenance(),
            "shards": self.shards,
            "shard_strategy": "balanced",
            "inconsistency": self.inconsistency,
            "written_instances": self.ledgers,
            "writes_per_cycle": self.cycles[self.names[0]].period,
            "store": "fsync log, compact every 64 records",
        }


def _register(port: int, name: str, instance, shards: int) -> dict:
    payload = instance_to_payload(name, instance)
    payload["shards"] = shards
    request = json_request("POST", "/instances", payload, "other", ("register",))
    [result] = drive(port, [iter([request])], trace_prefix="f" * 16)
    if result.status != 201:
        raise RuntimeError(f"registering {name} failed: HTTP {result.status}")
    return json.loads(result.body)


def fetch_metrics(port: int) -> dict:
    request = json_request("GET", "/metrics", None, "other", ("metrics",))
    [result] = drive(port, [iter([request])], trace_prefix="e" * 16)
    if result.status != 200:
        raise RuntimeError(f"GET /metrics failed: HTTP {result.status}")
    return json.loads(result.body)


SERVE_WORKLOADS = {cls.name: cls for cls in (ServeCpu, ServeWrite)}
