"""Training workloads: ``GraphWord2Vec.train()`` on three cluster shapes.

Each repetition builds its inputs afresh (preset corpus with the
``datasets.load`` cache cleared, then the trainer), trains two epochs and
collects what the end-to-end metrics, the correctness gate and, for a
traced repetition, the per-layer ledger need.
"""
# repro: allow-file[REPRO003] -- the benchmark times whole training runs
# with the wall clock; the simulated cluster clock is read from the
# trainer's own report, never from here.

from __future__ import annotations

from dataclasses import dataclass, field
import hashlib
import time

import numpy as np

from perfbench.metrics import covered_length, self_time
from perfbench.tracing import PHASES, Tracer, instrument_training, patched, phase_bucket
from repro.cluster.faults import FaultConfig
from repro.experiments import datasets, harness
from repro.w2v.distributed import GraphWord2Vec

#: Two epochs keep a repetition at a few seconds on two cores while
#: every round shape (first round of an epoch, learning-rate decay) occurs.
EPOCHS = 2
#: Size of the seed-drawn (center, context, negatives) sample the final
#: model's SGNS loss is evaluated on.
EVAL_PAIRS = 20_000
#: Pairs per block of the loss evaluation, so that its temporaries stay
#: small beside the trainer's own memory.
EVAL_BLOCK = 2_000
#: Key separating the evaluation sample's rng stream from the trainer's.
_EVAL_DOMAIN = 0x6576616C
#: Repetitions a run always makes (two are the least that can show a
#: result repeats).
MIN_REPS = 2


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    dataset: str
    hosts: int
    plan: str
    dim: int
    #: Seconds of the ``--seconds`` budget one repetition is given: its
    #: set-up and ``train()`` on a 2-core host plus a share of the run's
    #: fixed costs.
    rep_s: float
    engine: str = "bsp"
    staleness: int = 0
    faults: FaultConfig | None = None


#: The straggler schedule the bounded-staleness engine is measured under:
#: each host runs 4-6x slow on about 40% of its rounds.
STRAGGLERS = FaultConfig(straggler_prob=0.4, straggler_factor=(4.0, 6.0))

#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload("train-kernel", "1-billion-sim", hosts=2, plan="opt", dim=64, rep_s=6.0),
        TrainWorkload("train-sync32", "tiny-sim", hosts=32, plan="opt", dim=32, rep_s=6.0),
        TrainWorkload(
            "train-ssp-pull", "news-sim", hosts=16, plan="pull", dim=32, rep_s=10.0,
            engine="async", staleness=2, faults=STRAGGLERS,
        ),
    )
}


def repetitions(workload: TrainWorkload, seconds: float) -> int:
    """Repetitions that fit in ``seconds`` on a 2-core host.

    The count depends on the budget only, not on how fast the program
    runs, so a faster build yields the same number of epoch samples and
    their percentiles keep their meaning.
    """
    return max(MIN_REPS, int(seconds // workload.rep_s))


def params_for(workload: TrainWorkload):
    return harness.experiment_params(dim=workload.dim, epochs=EPOCHS)


@dataclass
class Setup:
    trainer: GraphWord2Vec
    corpus_s: float
    trainer_init_s: float


def set_up(workload: TrainWorkload, seed: int, workers: int) -> Setup:
    """Load the preset (cache cleared, so every call pays it) and build the trainer."""
    datasets.load.cache_clear()
    start = time.perf_counter()
    corpus, _questions = datasets.load(workload.dataset, seed)
    loaded = time.perf_counter()
    engine_kw = (
        {"engine": workload.engine, "staleness": workload.staleness}
        if workload.engine != "bsp"
        else {}
    )
    trainer = GraphWord2Vec(
        corpus,
        params_for(workload),
        num_hosts=workload.hosts,
        combiner="mc",
        plan=workload.plan,
        seed=seed,
        faults=workload.faults,
        workers=workers,
        sanitize=False,
        **engine_kw,
    )
    built = time.perf_counter()
    return Setup(trainer, loaded - start, built - loaded)


@dataclass
class EvalSample:
    """A fixed (center, context, negatives) sample for the SGNS loss."""

    centers: np.ndarray
    contexts: np.ndarray
    negatives: np.ndarray

    @classmethod
    def draw(cls, corpus, seed: int, window: int, negatives: int, n: int = EVAL_PAIRS):
        rng = np.random.default_rng([seed, _EVAL_DOMAIN])
        sentences = [np.asarray(s) for s in corpus]
        tokens = np.concatenate(sentences)
        sentence_of = np.repeat(
            np.arange(len(sentences)), [len(s) for s in sentences]
        )
        m = 4 * n
        at = rng.integers(0, len(tokens), m)
        offset = rng.integers(1, window + 1, m) * rng.choice((-1, 1), m)
        to = at + offset
        ok = (to >= 0) & (to < len(tokens))
        ok[ok] = sentence_of[at[ok]] == sentence_of[to[ok]]
        at, to = at[ok][:n], to[ok][:n]
        if len(at) < n:
            raise ValueError(f"corpus yields only {len(at)} of {n} evaluation pairs")
        weights = corpus.vocabulary.counts.astype(np.float64) ** 0.75
        noise = rng.choice(len(weights), size=(n, negatives), p=weights / weights.sum())
        return cls(tokens[at], tokens[to], noise)

    def loss(self, model) -> float:
        """Mean SGNS loss ``-log s(e.t) - sum log s(-e.n)`` in float64."""
        total = 0.0
        for lo in range(0, len(self.centers), EVAL_BLOCK):
            block = slice(lo, lo + EVAL_BLOCK)
            emb = model.embedding[self.centers[block]].astype(np.float64)
            pos = np.einsum("nd,nd->n", emb, model.training[self.contexts[block]])
            neg = np.einsum("nd,nkd->nk", emb, model.training[self.negatives[block]])
            total += float(
                (np.logaddexp(0.0, -pos) + np.logaddexp(0.0, neg).sum(axis=1)).sum()
            )
        return total / len(self.centers)

    def initial_loss(self) -> float:
        """The loss at initialization, where every output vector is zero."""
        return (1 + self.negatives.shape[1]) * float(np.log(2.0))


@dataclass
class TrainRep:
    """One ``train()`` call: timings, exact counts and the model digest."""

    traced: bool
    wall_s: float
    epoch_ms: list[float]
    epoch_pairs: list[int]
    pairs: int
    rounds: int
    bytes_by_phase: dict[str, int]
    messages_by_phase: dict[str, int]
    messages: int
    resent_bytes: int
    model_sha256: str
    replicas_finite: bool
    eval_loss: float
    breakdown: dict[str, float]
    modeled_epoch_s: float
    layers: dict[str, float] = field(default_factory=dict)
    #: Spans the traced repetition recorded (0 when untraced).
    spans: int = 0

    def exact(self) -> dict:
        """The fields that must repeat bit-for-bit across repetitions."""
        return {
            "pairs_processed": self.pairs,
            "bytes_by_phase": dict(sorted(self.bytes_by_phase.items())),
            "messages_by_phase": dict(sorted(self.messages_by_phase.items())),
        }


def model_digest(model) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(model.embedding).tobytes())
    digest.update(np.ascontiguousarray(model.training).tobytes())
    return digest.hexdigest()


def close_executor(trainer: GraphWord2Vec) -> None:
    """Stop the trainer's worker threads (a serial executor has none)."""
    close = getattr(trainer.executor, "close", None)
    if close is not None:
        close()


def replicas_finite(trainer: GraphWord2Vec) -> bool:
    # No public accessor exposes the per-host replicas; the field store
    # is read, never written.
    return all(
        bool(np.isfinite(array).all())
        for sync_field in trainer._fields.values()
        for array in sync_field.arrays
    )


def train_once(
    setup: Setup, sample: EvalSample, tracer: Tracer | None = None, run_id: str = ""
) -> TrainRep:
    """Run ``train()`` once; traced when a ``tracer`` is given."""
    trainer = setup.trainer
    stamps: list[float] = []
    end_round = trainer.metrics.end_round

    def stamped_end_round() -> None:
        end_round()
        stamps.append(time.perf_counter())

    try:
        with patched(trainer.metrics, "end_round", stamped_end_round):
            if tracer is None:
                start = time.perf_counter()
                result = trainer.train()
                wall = time.perf_counter() - start
            else:
                with instrument_training(tracer, trainer), tracer.run(run_id, "w2v.train"):
                    start = time.perf_counter()
                    result = trainer.train()
                    wall = time.perf_counter() - start
    finally:
        close_executor(trainer)
    report = result.report
    stats = trainer.network.stats
    breakdown = report.breakdown
    rep = TrainRep(
        traced=tracer is not None,
        wall_s=wall,
        # An epoch ends with the fold of its last round.
        epoch_ms=[
            1000.0 * d
            for d in np.diff([start] + stamps[trainer.sync_rounds - 1 :: trainer.sync_rounds])
        ],
        epoch_pairs=list(result.epoch_pairs),
        pairs=int(report.pairs_processed),
        rounds=len(stamps),
        bytes_by_phase=dict(stats.bytes_by_phase),
        messages_by_phase=dict(stats.messages_by_phase),
        messages=int(stats.total_messages),
        resent_bytes=int(stats.resent_bytes),
        model_sha256=model_digest(result.model),
        replicas_finite=replicas_finite(trainer),
        eval_loss=sample.loss(result.model),
        breakdown={
            "compute_s": breakdown.compute_s,
            "comm_s": breakdown.communication_s,
            "inspection_s": breakdown.inspection_s,
            "wait_s": breakdown.wait_s,
        },
        modeled_epoch_s=report.total_time_s / EPOCHS,
    )
    if tracer is not None:
        rep.layers = layer_metrics(tracer, run_id)
        rep.spans = len(tracer.of_run(run_id))
    return rep


def layer_metrics(tracer: Tracer, run_id: str) -> dict[str, float]:
    """Per-layer numbers of one traced ``train()`` call."""
    spans = tracer.of_run(run_id)
    total, calls = Tracer.total, Tracer.calls
    kernel_s = total(spans, "w2v.kernel")
    out = {
        "w2v.pairs_calls": calls(spans, "w2v.pairs"),
        "w2v.pairs_s": total(spans, "w2v.pairs"),
        "w2v.pairs_generated": tracer.counted(run_id, "w2v.pairs_generated"),
        "w2v.kernel_calls": calls(spans, "w2v.kernel"),
        "w2v.kernel_s": kernel_s,
        "w2v.kernel_pairs_per_s": (
            tracer.counted(run_id, "w2v.kernel_pairs") / kernel_s if kernel_s > 0 else 0.0
        ),
        "core.combiner_calls": calls(spans, "core.combiner"),
        "core.combiner_rows": tracer.counted(run_id, "core.combiner_rows"),
        "core.combiner_s": total(spans, "core.combiner"),
        "gluon.sync_calls": calls(spans, "gluon.sync"),
        "gluon.sync_s": total(spans, "gluon.sync"),
        "gluon.sync_self_s": Tracer.self_total(spans, "gluon.sync"),
        "gluon.send_calls": tracer.counted(run_id, "gluon.send_calls"),
    }
    for bucket in PHASES:
        out[f"gluon.phase_s.{bucket}"] = total(spans, f"gluon.phase.{bucket}")
    (root,) = [s for s in spans if s.name == "w2v.train"]
    out["w2v.train_s"] = root.duration
    # Kernels of different hosts overlap on the worker threads; this is the
    # wall time during which at least one runs, the share a faster kernel
    # can save.
    out["w2v.kernel_wall_s"] = covered_length(
        [(s.start, s.end) for s in spans if s.name == "w2v.kernel"], root.start, root.end
    )
    blocking = [
        (s.start, s.end)
        for s in spans
        if s.name in ("w2v.kernel", "w2v.pairs") or s.name.startswith("gluon.phase.")
    ]
    out["dgraph.engine_self_s"] = self_time(root.start, root.end, blocking)
    return out


def bytes_by_bucket(bytes_by_phase: dict[str, int]) -> dict[str, int]:
    out = dict.fromkeys(PHASES, 0)
    for phase, nbytes in bytes_by_phase.items():
        out[phase_bucket(phase)] += nbytes
    return out
