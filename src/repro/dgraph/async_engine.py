"""The training engine: bounded staleness (SSP), with BSP as ``s = 0``.

The stale-synchronous-parallel engine lets hosts advance their round
clocks independently, up to a staleness bound ``s``: a host may start
global round ``g`` only while ``g - folds_done <= s``, where
``folds_done`` equals the slowest host's completed-round clock (round
``r`` *folds* — reduce + broadcast — the moment every host has finished
it).  ``s = 0`` is the lock-step BSP schedule of the paper's Algorithm 1,
and ``engine="bsp"`` runs exactly that: same kernels, same deltas, same
combiner arithmetic in the same rotation order, same wire bytes and
message sequence under every communication plan and fault schedule
(pinned by ``tests/test_async_engine.py``).

Determinism story.  The interleaving is not discovered from wall-clock —
it is *recorded*: :func:`build_interleaving` runs a virtual event loop
whose per-step durations come from the trainer's modeled time factors
plus a seed-keyed jitter, producing a causal event list (start / end /
fold) that is a pure function of the seed.  Execution then replays that
list, and the *measured* per-step times are laid back onto the recorded
order to produce the reported makespan.  Replay, checkpointing and crash
recovery are exact because every started round still folds at a
deterministic point of the recorded schedule.

Folds.  Every fold runs through
:meth:`~repro.gluon.sync.GluonSynchronizer.sync_replicated`, which
reduces into the field's canonical store (``FieldSync.canonical``).  At
``s = 0`` nothing runs between a host's step and its fold, so the fold
reads each delta off the replica (current − base), exactly as BSP does.
At ``s > 0`` hosts run ahead of the fold frontier, so each step captures
its float64 delta and rebases right after its kernel; replicas become
bounded-staleness mirrors: fold broadcasts and PullModel refreshes land
canonical values *plus* the host's still-unfolded buffered deltas on those
rows (read-my-writes), and per-(field, host) pending-stale sets drive an
extra ``refresh``/``refresh-request`` phase pair so a host never computes
on a row whose master changed without a broadcast reaching it.  Fold
order across fields is priority-scheduled dirtiest-first through the
galois :class:`~repro.galois.worklist.OrderedByIntegerMetric` worklist
(only when ``s > 0``; at ``s = 0`` the BSP field order is kept so the
transient-fault injector sees the identical send sequence).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
import heapq
import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analysis.runtime import SanitizeError, note_write
from repro.dgraph.engine import compensate_delta
from repro.galois.do_all import do_all
from repro.galois.worklist import OrderedByIntegerMetric
from repro.gluon.bitvector import BitVector
from repro.gluon.comm import VALUE_BYTES
from repro.util.rng import keyed_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.w2v.distributed import GraphWord2Vec
    from repro.w2v.model import Word2VecModel
    from repro.w2v.steps import RoundWork

__all__ = [
    "SSPTrainingEngine",
    "ScheduledEvent",
    "AsyncSchedule",
    "AsyncTimeline",
    "build_interleaving",
]

#: BSP synchronizes embedding before training; the s=0 fold keeps this
#: order, which fixes the per-round message sequence (and hence the
#: transient-fault injector's draw order).
_FIELD_ORDER = ("embedding", "training")


def _empty_ids() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


# ----------------------------------------------------------------------
# Recorded interleaving schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ScheduledEvent:
    """One event of the recorded interleaving (virtual time units).

    ``kind`` is ``"start"`` / ``"end"`` (``host`` >= 0) or ``"fold"``
    (``host`` == -1).  ``lead`` is, for starts, how many rounds the host
    led the fold frontier when it began — the quantity the staleness
    bound caps.
    """

    kind: str
    time: float
    round_index: int
    host: int = -1
    lead: int = 0


@dataclass
class AsyncSchedule:
    """A causal, time-ordered event list; a pure function of the seed."""

    num_hosts: int
    start_round: int
    end_round: int
    staleness: int
    events: list[ScheduledEvent] = dc_field(default_factory=list)

    @property
    def max_lead(self) -> int:
        """Largest observed clock lead (<= staleness by construction)."""
        return max((e.lead for e in self.events if e.kind == "start"), default=0)


def build_interleaving(
    num_hosts: int,
    start_round: int,
    end_round: int,
    staleness: int,
    duration: Callable[[int, int], float],
) -> AsyncSchedule:
    """Record the SSP interleaving for rounds ``[start_round, end_round)``.

    A virtual event loop: each idle host starts its next round ``g`` as
    soon as ``g - min(clock) <= staleness`` (``min(clock)`` equals the
    fold frontier — round ``r`` folds at the event that completes it on
    the last host).  ``duration(host, g)`` supplies virtual step lengths;
    ties break by host index, so the event list is deterministic.  The
    returned list is ordered causally: every step appears after exactly
    the folds it observed.
    """
    if num_hosts <= 0:
        raise ValueError(f"num_hosts must be positive, got {num_hosts}")
    if staleness < 0:
        raise ValueError(f"staleness must be >= 0, got {staleness}")
    sched = AsyncSchedule(num_hosts, start_round, end_round, staleness)
    if end_round <= start_round:
        return sched
    events = sched.events
    clock = [start_round] * num_hosts  # completed rounds per host
    running = [False] * num_hosts
    folds_done = start_round
    heap: list[tuple[float, int, int]] = []  # (end_time, host, round)
    ends_count: dict[int, int] = {}

    def try_start(now: float) -> None:
        for h in range(num_hosts):
            if running[h]:
                continue
            g = clock[h]
            if g >= end_round or g - folds_done > staleness:
                continue
            lead = g - folds_done
            events.append(ScheduledEvent("start", now, g, h, lead))
            heapq.heappush(heap, (now + float(duration(h, g)), h, g))
            running[h] = True

    try_start(0.0)
    while heap:
        t, h, g = heapq.heappop(heap)
        events.append(ScheduledEvent("end", t, g, h))
        running[h] = False
        clock[h] = g + 1
        done = ends_count.get(g, 0) + 1
        if done == num_hosts:
            ends_count.pop(g, None)
            folds_done = g + 1
            events.append(ScheduledEvent("fold", t, g))
        else:
            ends_count[g] = done
        try_start(t)
    return sched


# ----------------------------------------------------------------------
# Measured timeline (Chrome trace input)
# ----------------------------------------------------------------------
@dataclass
class AsyncTimeline:
    """Measured-replay timeline of an async run, for the Chrome trace.

    ``steps``: ``(host, round, start_s, dur_s)`` compute slices;
    ``folds``: ``(round, time_s, rec_lo, rec_hi)`` where the record range
    indexes ``network.phase_records`` emitted since the previous fold
    (wave refresh/recovery phases included); ``recoveries``: ``(host,
    round, start_s, dur_s)`` modeled recovery stalls.  Times are absolute
    across multiple ``train()`` calls of the same trainer.
    """

    num_hosts: int
    steps: list = dc_field(default_factory=list)
    folds: list = dc_field(default_factory=list)
    recoveries: list = dc_field(default_factory=list)
    makespan_s: float = 0.0


class _RunState:
    """Per-``run()`` buffers: everything folds drain, keyed by round."""

    def __init__(self, trainer: "GraphWord2Vec", start_fold: int) -> None:
        self.folds_done = start_fold
        # (field, round) -> {host: (ids, delta_f64|None, drift_base_f64|None)};
        # the delta is None when the fold reads it off the replica.
        self.contrib: dict[tuple[str, int], dict[int, tuple]] = {}
        self.lr_of: dict[int, float] = {}
        # round -> per-host modeled seconds; compute also feeds the
        # measured replay.
        self.compute_buf: dict[int, np.ndarray] = {}
        self.inspect_buf: dict[int, np.ndarray] = {}
        self.recovery_buf: dict[int, np.ndarray] = {}
        self.base_times: dict[int, list[float]] = {}
        self.slow_times: dict[int, list[float]] = {}
        self.pairs_buf: dict[int, int] = {}
        self.recovery_spans: list[tuple[int, int, float]] = []
        # Rows with buffered contributions, per field (kept at s>0 only).
        self.dirty: dict[str, BitVector] = {
            name: BitVector(trainer._fields[name].num_nodes)
            for name in _FIELD_ORDER
        }
        self.fold_records: dict[int, tuple[int, int]] = {}
        self.rec_cursor = len(trainer.network.phase_records)

    def round_array(self, table: dict[int, np.ndarray], g: int, H: int) -> np.ndarray:
        arr = table.get(g)
        if arr is None:
            arr = table[g] = np.zeros(H)
        return arr


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class SSPTrainingEngine:
    """The round driver of :class:`GraphWord2Vec`.

    ``staleness=0`` is BSP (every round a global barrier);
    ``staleness=s`` lets each host run up to ``s`` rounds past the
    slowest host before blocking.  ``delay_compensation=λ`` applies
    :func:`~repro.dgraph.engine.compensate_delta` to contributions at
    fold time (the parameter-server baseline's correction, as a
    comparator configuration).
    """

    name = "async"

    def __init__(self, staleness: int = 0, delay_compensation: float = 0.0):
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        if delay_compensation < 0:
            raise ValueError(
                f"delay_compensation must be >= 0, got {delay_compensation}"
            )
        self.staleness = int(staleness)
        self.delay_compensation = float(delay_compensation)
        # Steps capture their deltas when a fold may not follow directly
        # (s > 0) or when compensation needs the base they started from;
        # otherwise the fold reads deltas off the replicas, as BSP does.
        self._captures = self.staleness > 0 or self.delay_compensation > 0
        #: The interleaving of the most recent ``run()`` (replay evidence).
        self.last_schedule: AsyncSchedule | None = None

    # -- driver ---------------------------------------------------------
    def run(
        self,
        trainer: "GraphWord2Vec",
        stop_epoch: int,
        until_round: int | None,
        epoch_callback: Callable[[int, "Word2VecModel"], None] | None,
    ) -> float:
        """Train rounds up to ``stop_epoch``/``until_round``.

        Returns the modeled makespan of the executed span in seconds.
        """
        S = trainer.sync_rounds
        H = trainer.num_hosts
        g0 = trainer._completed_epochs * S + trainer._completed_rounds
        g1 = stop_epoch * S
        if until_round is not None:
            g1 = min(g1, until_round)
        if g1 <= g0:
            return 0.0
        if trainer._async_state is None:
            trainer._async_state = {"pending_stale": {}, "next_access": {}}
        sched_seed = trainer._seeds.subtree("async-schedule").seed

        def vdur(host: int, g: int) -> float:
            # Modeled speed factors drive the interleaving; the 1% keyed
            # jitter breaks ties on homogeneous clusters so s>0 schedules
            # are generic — and still a pure function of the seed.  At s=0
            # every round starts at the previous fold whatever the
            # durations, so the lock-step schedule skips the draws.
            if not self.staleness:
                return 1.0
            jitter = float(keyed_rng(sched_seed, host, g).random())
            return trainer._time_factor(g // S, g % S, host) * (1.0 + 0.01 * jitter)

        schedule = build_interleaving(H, g0, g1, self.staleness, vdur)
        self.last_schedule = schedule

        run = _RunState(trainer, g0)
        wave: list[ScheduledEvent] = []
        for ev in schedule.events:
            if ev.kind == "start":
                wave.append(ev)
            elif ev.kind == "fold":
                self._flush_wave(trainer, run, wave)
                wave.clear()
                self._fold_round(trainer, run, ev.round_index, epoch_callback)
        assert not wave, "every started round must fold before the schedule ends"
        return self._replay_measured(trainer, run, schedule)

    # -- wave execution -------------------------------------------------
    def _flush_wave(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        wave: list[ScheduledEvent],
    ) -> None:
        """Execute all steps started since the previous fold.

        No fold happens inside a wave, so mirror state is constant except
        for the hosts' own kernels: steps of distinct hosts commute and
        run as per-host chains under the trainer's executor (at s=0, one
        step per host: the paper's compute phase).  Everything that
        touches shared state (work generation, refresh phases,
        accounting) runs serially in wave order, so results are
        executor-independent.
        """
        if not wave:
            return
        S = trainer.sync_rounds
        schedule = trainer.fault_schedule
        checker = trainer.sync_checker
        state = trainer._async_state

        # Serial pre-pass: learning rates, crash lookup.
        steps: list[tuple[ScheduledEvent, object]] = []
        for ev in wave:
            e, s = divmod(ev.round_index, S)
            crash = None
            if schedule is not None:
                for cev in schedule.crashes_at(e, s):
                    if cev.host == ev.host:
                        crash = cev
            if ev.round_index not in run.lr_of:
                run.lr_of[ev.round_index] = trainer.params.learning_rate_for_epoch(e)
            steps.append((ev, crash))

        # PullModel refresh: rows a live step will access whose master
        # changed in a fold this host's mirror never received.  None at
        # s=0 (every access set is covered by the preceding fold's
        # broadcast).
        if trainer.plan.requires_access_sets and self.staleness:
            for fname in _FIELD_ORDER:
                need: dict[int, np.ndarray] = {}
                for ev, crash in steps:
                    if crash is not None:
                        continue
                    e, s = divmod(ev.round_index, S)
                    work = trainer._get_work(e, s, ev.host)
                    ids = (
                        work.embedding_access
                        if fname == "embedding"
                        else work.output_access
                    )
                    pending = state["pending_stale"].get((fname, ev.host))
                    if pending is None or not pending.size or not ids.size:
                        continue
                    rows = np.intersect1d(ids, pending, assume_unique=True)
                    if rows.size:
                        prev = need.get(ev.host)
                        need[ev.host] = (
                            rows if prev is None else np.union1d(prev, rows)
                        )
                if need:
                    self._refresh(trainer, run, fname, need)

        # Staleness audit, after the refresh: captured steps' reads are
        # checked against the rows they will actually read.
        if checker is not None:
            for ev, crash in steps:
                work = None
                if self._captures and crash is None:
                    work = trainer._get_work(*divmod(ev.round_index, S), ev.host)
                for fname in _FIELD_ORDER:
                    reads = None
                    if work is not None:
                        reads = (
                            work.embedding_access
                            if fname == "embedding"
                            else work.output_access
                        )
                    checker.note_async_step(
                        fname, ev.host, ev.round_index, run.folds_done,
                        self.staleness, reads=reads,
                    )

        # Pop round work serially (shared caches), skipping crashed steps
        # — their work is popped at the recovery point.
        works: dict[tuple[int, int], "RoundWork"] = {}
        for ev, crash in steps:
            if crash is None:
                e, s = divmod(ev.round_index, S)
                works[(ev.host, ev.round_index)] = trainer._pop_work(e, s, ev.host)

        # Materialize epoch chunks the in-chain inspection will read, in
        # *descending* epoch order: the chunk cache prunes epochs below
        # the most recent request, so ascending materialization would
        # evict an epoch a straggler's inspection still needs.
        if trainer.plan.requires_access_sets:
            next_epochs = set()
            for ev, _crash in steps:
                nxt = trainer._next_slot(*divmod(ev.round_index, S))
                if nxt is not None:
                    next_epochs.add(nxt[0])
            for epoch in sorted(next_epochs, reverse=True):
                trainer._epoch_chunks(epoch)

        # Execute: batches of crash-free steps as parallel per-host
        # chains, crashed steps serially at their wave position (so at s=0
        # a round's recovery phases precede its sync, as in Algorithm 1).
        batch: list[ScheduledEvent] = []
        for ev, crash in steps:
            if crash is None:
                batch.append(ev)
            else:
                self._run_batch(trainer, run, batch, works)
                batch = []
                self._recover_step(trainer, run, ev.host, ev.round_index, crash)
        self._run_batch(trainer, run, batch, works)

    def _run_batch(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        batch: list[ScheduledEvent],
        works: dict[tuple[int, int], "RoundWork"],
    ) -> None:
        if not batch:
            return
        chains: dict[int, list[int]] = {}
        order: list[int] = []
        for ev in batch:
            if ev.host not in chains:
                chains[ev.host] = []
                order.append(ev.host)
            chains[ev.host].append(ev.round_index)
        slots: dict[int, list[tuple]] = {h: [] for h in order}

        def run_chain(host: int) -> None:
            # A host's steps are sequential; capture must follow each
            # kernel before the next one so a round's delta never absorbs
            # a later round's writes.  Everything touched here is
            # host-local (replica arrays, bases, the private slot list).
            # The flush pre-pass materialized every epoch this wave
            # inspects (descending, so pruning spares them all): the
            # inspection only *reads* the chunk cache.
            for g in chains[host]:
                work = works[(host, g)]
                step = self._step(trainer, host, g, work, run.lr_of[g])  # repro: noqa[REPRO111]
                slots[host].append((g, work, *step))

        do_all(order, run_chain, executor=trainer.executor)

        # Serial post-pass in wave order: fold buffers, metrics, dirty
        # bits, inspection bookkeeping.
        for ev in batch:
            entry = slots[ev.host].pop(0)
            self._post_step(trainer, run, ev.host, *entry)

    def _step(
        self,
        trainer: "GraphWord2Vec",
        host: int,
        g: int,
        work: "RoundWork",
        lr: float,
    ) -> tuple:
        """Run one step on ``host``'s replica: kernel, capture, inspection.

        Returns ``(measured, pairs, captures, next_work, inspect_s)``;
        ``next_work`` is the host's next round, inspected for its access
        sets under PullModel.  Times are ``thread_time``, so they do not
        depend on what else shares the simulator's cores.
        """
        emb = trainer._fields["embedding"].arrays[host]
        out = trainer._fields["training"].arrays[host]
        start = time.thread_time()
        _loss, pairs = work.apply(
            emb, out, lr, trainer.params.batch_pairs, compute_loss=trainer.compute_loss
        )
        measured = time.thread_time() - start
        note_write(emb, work.embedding_access, label=f"embedding[host={host}]")
        note_write(out, work.output_access, label=f"training[host={host}]")
        captures = self._capture(trainer, host, work)
        next_work = None
        inspect_s = 0.0
        nxt = None
        if trainer.plan.requires_access_sets:
            nxt = trainer._next_slot(*divmod(g, trainer.sync_rounds))
        if nxt is not None:
            t0 = time.thread_time()
            next_work = trainer._work_cache.get((nxt[0], nxt[1], host))
            if next_work is None:
                next_work = trainer._build_work(*nxt, host)
            inspect_s = time.thread_time() - t0
        return measured, pairs, captures, next_work, inspect_s

    def _post_step(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        host: int,
        g: int,
        work: "RoundWork",
        measured: float,
        pairs: int,
        captures: list[tuple],
        next_work: "RoundWork | None",
        inspect_s: float,
        crashed: bool = False,
        compute_s: float | None = None,
    ) -> None:
        H = trainer.num_hosts
        e, s = divmod(g, trainer.sync_rounds)
        factor = trainer._time_factor(e, s, host)
        if compute_s is None:
            compute_s = measured * factor
        run.round_array(run.compute_buf, g, H)[host] += compute_s
        if not crashed:
            run.base_times.setdefault(g, []).append(
                measured * trainer.host_speed_factors[host]
            )
            run.slow_times.setdefault(g, []).append(measured * factor)
        run.pairs_buf[g] = run.pairs_buf.get(g, 0) + pairs
        for fname, (ids, delta, drift_base) in zip(_FIELD_ORDER, captures):
            run.contrib.setdefault((fname, g), {})[host] = (ids, delta, drift_base)
            if self.staleness and ids.size:
                run.dirty[fname].set_many(ids)
        if trainer.plan.requires_access_sets:
            state = trainer._async_state
            if next_work is None:
                state["next_access"][("embedding", host)] = _empty_ids()
                state["next_access"][("training", host)] = _empty_ids()
            else:
                nxt = trainer._next_slot(e, s)
                trainer._work_cache[(nxt[0], nxt[1], host)] = next_work
                run.round_array(run.inspect_buf, g, H)[host] += inspect_s
                state["next_access"][("embedding", host)] = next_work.embedding_access
                state["next_access"][("training", host)] = next_work.output_access
                trainer._peak_access_rows = max(
                    trainer._peak_access_rows,
                    int(next_work.embedding_access.size + next_work.output_access.size),
                )

    def _capture(
        self, trainer: "GraphWord2Vec", host: int, work: "RoundWork"
    ) -> list[tuple]:
        """The step's touched rows, with deltas captured when they must be.

        Without capture the fold reads the delta off the replica.  With
        it, the float64 delta (current − base) per touched row is
        snapshotted and the rows rebased immediately post-kernel, so a
        later step of the same host never leaks into this round's
        contribution.  With delay compensation enabled the float64 base
        is kept too (drift = canonical-at-fold − base-at-capture).
        Host-local arrays only — safe inside the parallel chain.
        """
        lam = self.delay_compensation
        out = []
        for fname, ids in (
            ("embedding", work.embedding_access),
            ("training", work.output_access),
        ):
            field = trainer._fields[fname]
            if not self._captures:
                out.append((ids, None, None))
                continue
            if not ids.size:
                out.append((ids, np.empty((0, field.dim)), None))
                continue
            arr = field.arrays[host]
            base = field.bases[host]
            delta = arr[ids].astype(np.float64) - base[ids].astype(np.float64)
            drift_base = base[ids].astype(np.float64) if lam > 0 else None
            base[ids] = arr[ids]
            out.append((ids, delta, drift_base))
        return out

    def _recover_step(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        host: int,
        g: int,
        crash,
    ) -> None:
        """Fail-stop recovery for one crashed step.

        (1) The barrier times out and declares the host dead; (2) its
        replacement restores its own master block from the canonical
        store — the canonical state at the fold frontier is the round
        checkpoint — and every surviving master's block over the network;
        (3) the lost chunk replays on the restored replica.  Work
        generation is a pure function of the seed tree, so the replayed
        updates are bit-identical to the lost ones.  The modeled recovery
        time redistributes the replay across the surviving hosts (values
        come from the sequential execution, wall-clock from the
        concurrency model).
        """
        S = trainer.sync_rounds
        e, s = divmod(g, S)
        config = trainer.fault_schedule.config
        report = trainer.fault_report
        state = trainer._async_state
        report.crashes += 1
        report.detect_s += config.detect_timeout_s

        storage_bytes = 0
        net_bytes = 0
        for fname in _FIELD_ORDER:
            field = trainer._fields[fname]
            sync = trainer._sync_of(fname)
            lo, hi = int(sync.bounds[host]), int(sync.bounds[host + 1])
            field.arrays[host][lo:hi] = field.canonical[lo:hi]
            field.bases[host][lo:hi] = field.canonical[lo:hi]
            storage_bytes += (hi - lo) * field.dim * VALUE_BYTES
        report.checkpoint_restore_bytes += storage_bytes
        storage_s = storage_bytes / config.restore_bandwidth_Bps
        # The recovery phases are priced into recovery time, not regular
        # communication, by the report builder.
        for fname in _FIELD_ORDER:
            net_bytes += trainer._sync_of(fname).restore_host(
                trainer._fields[fname], host
            )
        report.recovery_bytes += net_bytes
        # The rebuilt replica is wholly canonical: nothing is stale, and
        # the host's uncaptured in-round work is what the replay redoes.
        for fname in _FIELD_ORDER:
            state["pending_stale"].pop((fname, host), None)

        work = trainer._pop_work(e, s, host)
        replay_measured, pairs, captures, next_work, inspect_s = self._step(
            trainer, host, g, work, run.lr_of[g]
        )

        own_factor = trainer._time_factor(e, s, host)
        crashed_hosts = {
            cev.host for cev in trainer.fault_schedule.crashes_at(e, s)
        }
        survivors = [
            h for h in range(trainer.num_hosts) if h not in crashed_hosts
        ]
        if survivors:
            replay_s = (
                replay_measured
                * max(trainer._time_factor(e, s, sv) for sv in survivors)
                / len(survivors)
            )
        else:
            replay_s = replay_measured * own_factor
        report.replay_s += replay_s
        report.restore_s += storage_s
        recovery_s = config.detect_timeout_s + storage_s + replay_s
        run.round_array(run.recovery_buf, g, trainer.num_hosts)[host] += recovery_s
        run.recovery_spans.append((host, g, recovery_s))
        self._post_step(
            trainer, run, host, g, work, replay_measured, pairs, captures,
            next_work, inspect_s, crashed=True,
            compute_s=crash.loss_fraction * replay_measured * own_factor,
        )

    def _refresh(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        fname: str,
        need: dict[int, np.ndarray],
    ) -> None:
        """Pull stale rows a wave is about to access (PullModel, s>0)."""
        H = trainer.num_hosts
        state = trainer._async_state
        received = trainer._sync_of(fname).refresh(
            trainer._fields[fname],
            trainer.plan,
            [need.get(h, _empty_ids()) for h in range(H)],
            buffered=self._buffered(run, fname),
        )
        for h in sorted(need):
            pending = state["pending_stale"].get((fname, h))
            if pending is not None and received[h].size:
                state["pending_stale"][(fname, h)] = np.setdiff1d(
                    pending, received[h], assume_unique=True
                )

    @staticmethod
    def _buffered(run: _RunState, fname: str) -> dict[int, list[tuple]]:
        """Per host, its captured not-yet-folded ``(ids, delta)`` entries.

        Ascending rounds, so read-my-writes sums are deterministic.  Empty
        at s=0, where every fold lands as a plain overwrite.
        """
        buffered: dict[int, list[tuple]] = {}
        for key in sorted(k for k in run.contrib if k[0] == fname):
            for h, (ids, delta, _drift) in sorted(run.contrib[key].items()):
                if delta is not None and ids.size:
                    buffered.setdefault(h, []).append((ids, delta))
        return buffered

    def _fold_round(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        g: int,
        epoch_callback,
    ) -> None:
        """Fold global round ``g``: metrics, gluon sync, round bookkeeping.

        The sync frontier only ever advances to a round every host has
        finished, so folds fire in global-round order; at s=0 each one is
        the round barrier's accounting + sync tail.
        """
        S = trainer.sync_rounds
        e, s = divmod(g, S)
        metrics = trainer.metrics
        network = trainer.network
        H = trainer.num_hosts

        metrics.begin_round()
        for table, record in (
            (run.compute_buf, metrics.record_compute),
            (run.inspect_buf, metrics.record_inspection),
            (run.recovery_buf, metrics.record_recovery),
        ):
            buf = table.get(g)
            if buf is not None:
                for h in range(H):
                    if buf[h]:
                        record(h, float(buf[h]))
        base = run.base_times.pop(g, [])
        slow = run.slow_times.pop(g, [])
        report = trainer.fault_report
        if report is not None and slow and slow != base:
            report.straggler_rounds += 1
            report.straggler_extra_s += max(slow) - max(base)

        # Priority-schedule the fields: dirtiest mirror state syncs first
        # (galois worklist; the metric is "rows still clean", so the
        # field with more dirty rows pops first).  At s=0 the declaration
        # order is kept — BSP syncs embedding before training, and
        # reordering would permute the fault injector's draw sequence.
        if self.staleness == 0:
            order = list(_FIELD_ORDER)
        else:
            M = max(trainer._fields[name].num_nodes for name in _FIELD_ORDER)
            worklist = OrderedByIntegerMetric(
                lambda fname: M - run.dirty[fname].count()
            )
            for fname in _FIELD_ORDER:
                worklist.push(fname)
            order = [worklist.pop() for _ in _FIELD_ORDER]

        lr = run.lr_of[g]
        for fname in order:
            self._fold(trainer, run, fname, g, lr)
        metrics.end_round()
        run.fold_records[g] = (run.rec_cursor, len(network.phase_records))
        run.rec_cursor = len(network.phase_records)

        if trainer.sanitize:
            findings = trainer.sanitize_findings
            if findings:
                raise SanitizeError(findings, context=f"epoch {e} round {s}")

        run.folds_done = g + 1
        trainer._partial_pairs += run.pairs_buf.pop(g, 0)
        trainer._completed_rounds = s + 1
        if s + 1 == S:
            trainer._roll_epoch(e, epoch_callback)

    def _fold(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        fname: str,
        g: int,
        lr: float,
    ) -> None:
        """Fold round ``g``'s contributions to one field (Gluon sync).

        The inductive combiner order rotates with the global round (the
        sync's ``fold_offset``), so no host's shard is permanently favored.
        """
        field = trainer._fields[fname]
        plan = trainer.plan
        state = trainer._async_state
        H = trainer.num_hosts
        lam = self.delay_compensation

        entries = run.contrib.pop((fname, g))
        flagged = [entries[h][0] for h in range(H)]
        deltas = None
        if self._captures:
            deltas = []
            for h in range(H):
                ids, delta, drift_base = entries[h]
                if lam > 0 and ids.size:
                    # Drift = how far canon moved since this delta was
                    # captured; zero exactly when the contribution is fresh.
                    drift = field.canonical[ids].astype(np.float64) - drift_base
                    delta = compensate_delta(delta, drift, lam, lr)
                deltas.append(delta)
        accessed = None
        if plan.requires_access_sets:
            accessed = [
                state["next_access"].get((fname, h), _empty_ids()) for h in range(H)
            ]
        result = trainer._sync_of(fname).sync_replicated(
            field,
            flagged,
            trainer.combiner,
            plan,
            accessed_next=accessed,
            fold_offset=g,
            deltas=deltas,
            buffered=self._buffered(run, fname),
        )

        if self.staleness:
            # PullModel staleness ledger: rows whose canon changed this
            # fold that a mirror did not receive are now pending-stale for
            # it; rows it did receive are fresh again.  (At s=0 every
            # access set is covered by the fold before it, so nothing is
            # ever pending.)  Per-master unions are ascending over
            # disjoint ascending blocks, so the concatenation is sorted.
            if plan.requires_access_sets:
                bounds = trainer._sync_of(fname).bounds
                nonempty = [c for c in result.changed_per_master if c.size]
                changed_all = np.concatenate(nonempty) if nonempty else _empty_ids()
                for h in range(H):
                    lo, hi = int(bounds[h]), int(bounds[h + 1])
                    foreign = changed_all[(changed_all < lo) | (changed_all >= hi)]
                    pending = state["pending_stale"].get((fname, h), _empty_ids())
                    pending = np.union1d(pending, foreign)
                    state["pending_stale"][(fname, h)] = np.setdiff1d(
                        pending, result.received_per_host[h], assume_unique=True
                    )

            # Rebuild the dirty vector from the rounds still buffered.
            fresh = BitVector(field.num_nodes)
            for key in sorted(k for k in run.contrib if k[0] == fname):
                per_host = run.contrib[key]
                for h in sorted(per_host):
                    ids = per_host[h][0]
                    if ids.size:
                        fresh.set_many(ids)
            run.dirty[fname] = fresh

        if trainer.sync_checker is not None:
            trainer.sync_checker.note_async_fold(fname, g)

    def _replay_measured(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        schedule: AsyncSchedule,
    ) -> float:
        """Replay the interleaving with measured durations -> makespan.

        The schedule's virtual durations fixed the *order* of events; the
        modeled wall-clock replays that order with the actual modeled
        per-step compute times: a host starts its next round as soon as
        its previous one ends, except that a fold is a causal barrier —
        the schedule only starts a round once the staleness bound allows
        it, and the fold it waited on must have happened.  At s=0 every
        round starts at the previous fold and ends measured later, so the
        makespan collapses to the sum over rounds of the slowest host:
        exactly BSP's barrier makespan, wait bucket included.
        """
        H = trainer.num_hosts
        avail = [0.0] * H
        start_m: dict[tuple[int, int], float] = {}
        end_m: dict[tuple[int, int], float] = {}
        ends_of: dict[int, list[float]] = {}
        last_fold = 0.0
        offset = trainer._makespan_s
        if trainer.async_timeline is None:
            trainer.async_timeline = AsyncTimeline(num_hosts=H)
        timeline = trainer.async_timeline
        for ev in schedule.events:
            h, g = ev.host, ev.round_index
            if ev.kind == "start":
                start_m[(h, g)] = max(avail[h], last_fold)
            elif ev.kind == "end":
                dur = float(run.compute_buf[g][h])
                end = start_m[(h, g)] + dur
                end_m[(h, g)] = end
                avail[h] = end
                ends_of.setdefault(g, []).append(end)
                timeline.steps.append((h, g, offset + start_m[(h, g)], dur))
            else:  # fold
                fold_t = max(max(ends_of.pop(g)), last_fold)
                last_fold = fold_t
                rec_lo, rec_hi = run.fold_records[g]
                timeline.folds.append((g, offset + fold_t, rec_lo, rec_hi))
        for host, g, dur in run.recovery_spans:
            timeline.recoveries.append((host, g, offset + end_m[(host, g)], dur))
        makespan = max(max(avail), last_fold)
        timeline.makespan_s = offset + makespan
        return makespan
