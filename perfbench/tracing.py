"""In-memory span tracer and the wrappers that attach it to repro's layers.

Spans are recorded from the benchmark's own code, around calls into each
layer's public functions: the tracer wraps those functions for the
duration of one traced repetition and restores them afterwards, so the
program under test is never edited.  A span records ``name``, ``start``,
``end``, its ``parent`` span and the ``run`` it belongs to; spans stay in
memory until :meth:`Tracer.write` exports them as JSONL and as a Chrome
trace.  High-frequency calls (``SimulatedNetwork.send``) are counted, not
spanned.
"""
# repro: allow-file[REPRO003] -- spans time real wall-clock intervals of
# the program under test; nothing here feeds the simulated cluster clock.

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
import functools
import itertools
import json
from pathlib import Path
import threading
import time
from typing import Callable, Iterator

from perfbench.metrics import self_time
from repro.gluon.comm import SimulatedNetwork
from repro.gluon.sync import GluonSynchronizer
import repro.w2v.distributed as distributed
from repro.w2v.steps import RoundWork

#: The buckets SimulatedNetwork phases are reported in.
PHASES = ("reduce", "request", "broadcast", "refresh")


def phase_bucket(phase_name: str) -> str:
    """A phase's bucket, from the prefix of its name (``reduce:embedding``).

    The async engine's ``refresh-request`` phase belongs to the refresh
    protocol.
    """
    prefix = phase_name.split(":", 1)[0]
    bucket = "refresh" if prefix == "refresh-request" else prefix
    if bucket not in PHASES:
        raise ValueError(f"unbucketed gluon phase {phase_name!r}")
    return bucket


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
            "thread": self.thread,
        }


class Tracer:
    """Records spans and counters in memory.

    A span's parent is the innermost span open on the same thread.  A span
    opened on a worker thread with nothing open there takes the innermost
    span open on the run's own thread: the call that handed work to the
    worker, which blocks until the worker is done.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[tuple[str, str]] = Counter()
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._counts_lock = threading.Lock()
        self._run: str = ""
        self._run_thread: int | None = None

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        caller = self._stacks.get(self._run_thread)
        return caller[-1] if caller else None

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        thread = threading.get_ident()
        stack = self._stacks.setdefault(thread, [])
        parent = self._parent(stack)
        span_id = next(self._ids)
        stack.append(span_id)
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self._run, thread))

    @contextmanager
    def run(self, run_id: str, name: str) -> Iterator[int]:
        """A root span on the calling thread; later spans belong to ``run_id``."""
        self._run = run_id
        self._run_thread = threading.get_ident()
        with self.span(name) as root:
            yield root

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the current run's counter ``name``."""
        with self._counts_lock:
            self.counts[(self._run, name)] += n

    def counted(self, run_id: str, name: str) -> int:
        return self.counts[(run_id, name)]

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- queries -----------------------------------------------------------
    def of_run(self, run_id: str) -> list[Span]:
        return [s for s in self.spans if s.run == run_id]

    @staticmethod
    def total(spans: list[Span], name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    @staticmethod
    def calls(spans: list[Span], name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    @staticmethod
    def self_total(spans: list[Span], name: str) -> float:
        """Summed self time of every ``name`` span (duration minus children)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        return sum(
            self_time(s.start, s.end, children.get(s.id, ()))
            for s in spans
            if s.name == name
        )

    # -- export ------------------------------------------------------------
    def counters_by_run(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (run_id, name), value in sorted(self.counts.items()):
            out.setdefault(run_id, {})[name] = value
        return out

    def write(self, stem: Path) -> tuple[Path, Path]:
        """Write ``<stem>.jsonl`` and ``<stem>.trace.json`` (Chrome trace)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        jsonl = stem.with_name(stem.name + ".jsonl")
        chrome = stem.with_name(stem.name + ".trace.json")
        ordered = sorted(self.spans, key=lambda s: (s.start, s.id))
        with open(jsonl, "w", encoding="utf-8") as handle:
            for s in ordered:
                handle.write(json.dumps(s.as_dict()) + "\n")
        origin = ordered[0].start if ordered else 0.0
        threads = {t: i for i, t in enumerate(sorted({s.thread for s in ordered}))}
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 0,
                "tid": threads[s.thread],
                "args": {"id": s.id, "parent": s.parent, "run": s.run},
            }
            for s in ordered
        ]
        chrome.write_text(
            json.dumps({"traceEvents": events, "counters": self.counters_by_run()}),
            encoding="utf-8",
        )
        return jsonl, chrome


@contextmanager
def patched(target, attr: str, replacement) -> Iterator[None]:
    """Temporarily replace ``target.attr`` (a class, module or instance)."""
    original = getattr(target, attr)
    in_dict = attr in vars(target)
    setattr(target, attr, replacement)
    try:
        yield
    finally:
        if in_dict:
            setattr(target, attr, original)
        else:
            delattr(target, attr)


@contextmanager
def instrument_training(tracer: Tracer, trainer) -> Iterator[None]:
    """Wrap the layers one ``GraphWord2Vec.train()`` call runs through."""
    build = distributed.build_round_work
    apply = RoundWork.apply
    sync = GluonSynchronizer.sync_replicated
    phase = SimulatedNetwork.phase
    send = SimulatedNetwork.send
    create = trainer.combiner.create

    def traced_build(*args, **kwargs):
        with tracer.span("w2v.pairs"):
            work = build(*args, **kwargs)
        tracer.count("w2v.pairs_generated", work.num_examples)
        return work

    def traced_apply(self, *args, **kwargs):
        with tracer.span("w2v.kernel"):
            loss, pairs = apply(self, *args, **kwargs)
        tracer.count("w2v.kernel_pairs", pairs)
        return loss, pairs

    def traced_phase(self, name):
        return _TracedPhase(tracer, phase(self, name), "gluon.phase." + phase_bucket(name))

    def counted_send(self, *args, **kwargs):
        tracer.count("gluon.send_calls")
        return send(self, *args, **kwargs)

    def traced_create(num_rows, dim):
        state = create(num_rows, dim)
        accumulate = state.accumulate

        def traced_accumulate(rows, deltas):
            with tracer.span("core.combiner"):
                accumulate(rows, deltas)
            tracer.count("core.combiner_rows", len(rows))

        state.accumulate = traced_accumulate
        return state

    with (
        patched(distributed, "build_round_work", traced_build),
        patched(RoundWork, "apply", traced_apply),
        patched(GluonSynchronizer, "sync_replicated", tracer.wrap("gluon.sync", sync)),
        patched(SimulatedNetwork, "phase", traced_phase),
        patched(SimulatedNetwork, "send", counted_send),
        patched(trainer.combiner, "create", traced_create),
    ):
        yield


class _TracedPhase:
    """A ``SimulatedNetwork.phase`` context that is also a span."""

    def __init__(self, tracer: Tracer, inner, name: str):
        self._span = tracer.span(name)
        self._inner = inner

    def __enter__(self):
        self._span.__enter__()
        return self._inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._span.__exit__(*exc)


@contextmanager
def instrument_serving(tracer: Tracer, engine) -> Iterator[None]:
    """Wrap a ``QueryEngine`` flush, its ``ShardedIndex`` and every shard index."""
    index = engine.index
    search = index.search

    def traced_search(queries, k):
        tracer.count("serve.search_rows", len(queries))
        with tracer.span("serve.search"):
            return search(queries, k)

    with ExitStack() as stack:
        stack.enter_context(patched(engine, "flush", tracer.wrap("serve.flush", engine.flush)))
        stack.enter_context(patched(index, "search", traced_search))
        for shard in index.generation.indexes:
            stack.enter_context(
                patched(shard, "search", tracer.wrap("serve.shard_search", shard.search))
            )
        yield
