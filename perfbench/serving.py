"""The serving workload: a sharded exact index behind a batching query engine.

A 30k x 64 ``clustered_matrix`` store is saved once (input generation,
not timed), then every set-up opens it with ``EmbeddingStore.open`` and
builds a ``ShardedIndex`` (4 shards x 2 replicas) inside a ``QueryEngine``
(max_batch 32, cache 2048).  The query mix is Zipf 1.1 over the rows.
Latency is measured in an open loop (Poisson arrivals at 800 qps, 10 ms
batching window, a generator that spins rather than sleeps between
events); capacity in a closed loop over the same stream.
"""
# repro: allow-file[REPRO003] -- the load generator's clock is the wall
# clock by definition: it schedules arrivals and times answers.

from __future__ import annotations

from dataclasses import dataclass
import hashlib
from pathlib import Path
import time

import numpy as np

from perfbench.loadloop import OpenLoopResult, closed_loop, open_loop, spin_wait
from perfbench.tracing import Tracer, instrument_serving
from repro.serve import EmbeddingStore, ExactIndex, QueryEngine, ShardedIndex, clustered_matrix
from repro.serve.loadgen import LoadConfig, generate_queries
from repro.serve.shard import fingerprint_update
from repro.serve.workload.arrivals import PoissonArrivals, arrival_times_us

NAME = "serve-zipf"

ROWS = 30_000
DIM = 64
#: About 50 rows per family, the density of the frontier sweep's store.
CLUSTERS = 600
K = 10
SHARDS = 4
REPLICAS = 2
MAX_BATCH = 32
CACHE = 2048
ZIPF = 1.1
RATE_QPS = 800.0
WINDOW_S = 0.010
#: Queries of the open loop: fifteen seconds of arrivals at ``RATE_QPS``,
#: long enough to average over the host's slow and fast spells.
QUERIES = 12_000
#: Latency percentiles are the median over this many consecutive
#: stretches of the open loop: 1000 queries each, the fewest whose p99
#: still has 10 samples beyond it.  A burst of slow flushes then moves
#: the percentiles of one or two stretches, not the reported median.
STRETCHES = 12
#: A query answered later than this after it was due misses the goodput.
LATENCY_LIMIT_MS = 50.0
#: Set-ups a run times; ``setup_s`` is their median.  One takes about
#: 0.1 s, so a run affords three times the training workloads' count.
SETUP_SAMPLES = 15
#: Queries checked against a single-host ``ExactIndex``.
REFERENCE_SAMPLE = 64


@dataclass
class ServeInputs:
    store_dir: Path
    words: list[str]
    due_s: np.ndarray


def make_inputs(seed: int, workdir: Path) -> ServeInputs:
    """Generate and save the store, the query stream and the arrival times."""
    matrix = clustered_matrix(ROWS, DIM, CLUSTERS, seed=seed)
    width = len(str(ROWS - 1))
    words = [f"tok{i:0{width}d}" for i in range(ROWS)]
    EmbeddingStore(matrix, words).save(workdir)
    load = LoadConfig(num_queries=QUERIES, k=K, zipf_exponent=ZIPF, seed=seed)
    ids = generate_queries(ROWS, load)
    due_us = arrival_times_us(PoissonArrivals(RATE_QPS), QUERIES, seed)
    return ServeInputs(workdir, [words[i] for i in ids], due_us / 1e6)


@dataclass
class ServeSetup:
    engine: QueryEngine
    store_open_s: float
    index_build_s: float

    @property
    def setup_s(self) -> float:
        return self.store_open_s + self.index_build_s


def set_up(inputs: ServeInputs, executor) -> ServeSetup:
    """Open the store, build the sharded index (warmed) and the engine.

    ``executor`` runs the shard scatter; the caller owns and closes it.
    """
    start = time.perf_counter()
    store = EmbeddingStore.open(inputs.store_dir)
    opened = time.perf_counter()
    index = ShardedIndex(
        store, num_shards=SHARDS, replicas=REPLICAS, executor=executor, sanitize=False
    )
    # The shard stores normalize lazily on their first search; pay that here.
    index.search(store.matrix[:1], K)
    engine = new_engine(index)
    built = time.perf_counter()
    return ServeSetup(engine, opened - start, built - opened)


def new_engine(index: ShardedIndex) -> QueryEngine:
    """A fresh engine (empty cache) over ``index``; flushes run serially
    because one flush holds at most one search block."""
    return QueryEngine(
        index, max_batch=MAX_BATCH, cache_size=CACHE, workers=1, sanitize=False
    )


def answers_sha256(words: list[str], tickets: list) -> str:
    """Digest of every answer in stream order (word, ids, scores)."""
    digest = hashlib.sha256()
    for word, ticket in zip(words, tickets):
        fingerprint_update(digest, word, *ticket.result)
    return digest.hexdigest()


def run_open(inputs: ServeInputs, engine: QueryEngine) -> OpenLoopResult:
    words = inputs.words
    return open_loop(
        inputs.due_s,
        lambda i: engine.submit(words[i], K),
        engine.flush,
        window_s=WINDOW_S,
        clock=time.perf_counter,
        sleep=lambda seconds: spin_wait(seconds, time.perf_counter),
    )


def run_closed(inputs: ServeInputs, engine: QueryEngine) -> tuple[float, list]:
    words = inputs.words
    return closed_loop(
        len(words), lambda i: engine.submit(words[i], K), engine.flush, time.perf_counter
    )


def reference_mismatches(inputs: ServeInputs, tickets: list) -> int:
    """Sampled answers that differ from a single-host ``ExactIndex``."""
    store = EmbeddingStore.open(inputs.store_dir)
    reference = ExactIndex(store)
    first: dict[str, int] = {}
    for i, word in enumerate(inputs.words):
        first.setdefault(word, i)
        if len(first) == REFERENCE_SAMPLE:
            break
    picks = list(first.values())
    ids, scores = reference.search(
        np.stack([store.vector(inputs.words[i]) for i in picks]), K
    )
    bad = 0
    for row, i in enumerate(picks):
        got_ids, got_scores = tickets[i].result
        if not (
            np.array_equal(got_ids, ids[row]) and np.array_equal(got_scores, scores[row])
        ):
            bad += 1
    return bad


def layer_metrics(tracer: Tracer, run_id: str, engine: QueryEngine, result: OpenLoopResult):
    """Per-layer numbers of one traced open-loop pass."""
    spans = tracer.of_run(run_id)
    stats = engine.stats
    cache = stats.cache
    wait_ms = 1000.0 * result.queue_wait
    return {
        "serve.flush_calls": Tracer.calls(spans, "serve.flush"),
        "serve.batch_size_mean": float(np.mean(stats.batch_sizes)),
        "serve.flush_s": Tracer.total(spans, "serve.flush"),
        "serve.queue_wait_ms_p50": float(np.percentile(wait_ms, 50)),
        "serve.queue_wait_ms_p99": float(np.percentile(wait_ms, 99)),
        "serve.cache_hits": cache.hits,
        "serve.cache_misses": cache.misses,
        "serve.cache_evictions": cache.evictions,
        "serve.cache_hit_rate": cache.hit_rate,
        "serve.search_calls": Tracer.calls(spans, "serve.search"),
        "serve.search_rows": tracer.counted(run_id, "serve.search_rows"),
        "serve.search_s": Tracer.total(spans, "serve.search"),
        "serve.shard_search_s": Tracer.total(spans, "serve.shard_search"),
        "serve.merge_s": Tracer.self_total(spans, "serve.search"),
        "serve.failovers": engine.index.failovers,
        "loadgen.late_ms_max": 1000.0 * result.late_max,
    }


def traced_open(inputs: ServeInputs, engine: QueryEngine, tracer: Tracer, run_id: str):
    with instrument_serving(tracer, engine), tracer.run(run_id, "serve.open_loop"):
        result = run_open(inputs, engine)
    return result, layer_metrics(tracer, run_id, engine, result)


def traced_closed(inputs: ServeInputs, engine: QueryEngine, tracer: Tracer, run_id: str):
    with instrument_serving(tracer, engine), tracer.run(run_id, "serve.closed_loop"):
        return run_closed(inputs, engine)
