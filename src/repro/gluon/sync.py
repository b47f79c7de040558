"""The Gluon reduce/broadcast synchronization engine.

Two synchronization modes cover the library's needs:

- :meth:`GluonSynchronizer.sync_replicated` — the GraphWord2Vec mode, and
  the only implementation of its reduce/request/broadcast arithmetic.  The
  model (one or more ``(N, dim)`` label arrays) is replicated on all hosts;
  each sync round, mirrors ship their accumulated *deltas* (current − base,
  or deltas the caller captured earlier) to the node's master, the master
  folds them with a :class:`~repro.core.combiners.GradientCombiner` (model
  combiner, averaging, sum, ...) on top of the canonical value, and new
  canonical values are broadcast back according to a
  :class:`~repro.gluon.plans.CommPlan`.  :meth:`GluonSynchronizer.refresh`
  and :meth:`GluonSynchronizer.restore_host` reuse its pull and broadcast
  paths for stale-row refreshes and crash recovery.
- :meth:`GluonSynchronizer.sync_value` — the classic graph-analytics mode
  used by the apps in :mod:`repro.dgraph.apps`.  Mirrors send their label
  *values*; masters reduce them with an elementwise operator (min for sssp,
  add for pagerank residuals, ...); changed canonical values are broadcast to
  every host holding a proxy.

All payloads flow through the :class:`~repro.gluon.comm.SimulatedNetwork` —
masters really consume what mirrors sent — so the byte accounting and the
data movement cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.combiners import GradientCombiner
from repro.gluon.bitvector import BitVector
from repro.gluon.comm import ID_BYTES, VALUE_BYTES, PhaseRecord, SimulatedNetwork
from repro.gluon.partitioner import Partition
from repro.gluon.plans import CommPlan

__all__ = ["FieldSync", "GluonSynchronizer", "ReplicatedSyncResult", "ValueSyncResult"]


@dataclass
class FieldSync:
    """A replicated model field registered for synchronization.

    ``arrays[h]`` is host ``h``'s replica, shape ``(N, dim)``; ``bases[h]``
    is what host ``h``'s next delta is measured against.  ``canonical`` is
    the field's canonical store: reductions write it and broadcasts,
    refreshes and crash restores read it, so replicas — masters included
    — may run ahead of it with unreduced local work.  All are updated in
    place by the synchronizer.
    """

    name: str
    arrays: list[np.ndarray]
    bases: list[np.ndarray]
    canonical: np.ndarray

    def __post_init__(self) -> None:
        shapes = {a.shape for a in self.arrays} | {b.shape for b in self.bases}
        shapes.add(self.canonical.shape)
        if len(shapes) != 1:
            raise ValueError(f"field {self.name!r}: inconsistent replica shapes {shapes}")
        if self.arrays[0].ndim != 2:
            raise ValueError(f"field {self.name!r}: replicas must be 2-D (N, dim)")

    @property
    def dim(self) -> int:
        return self.arrays[0].shape[1]

    @property
    def num_nodes(self) -> int:
        return self.arrays[0].shape[0]

    def snapshot_bases(self) -> None:
        """Record current replica values as the new delta baseline."""
        for base, arr in zip(self.bases, self.arrays):
            np.copyto(base, arr)


def _empty_ids() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def _with_buffered(
    vals: np.ndarray,
    ids: np.ndarray,
    entries: Sequence[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Canonical ``vals`` for rows ``ids`` plus a host's buffered deltas.

    Read-my-writes: a host holding buffered (unreduced) ``(ids, delta)``
    entries (sorted, non-empty ids) on those rows keeps them on top, so
    it still sees its own recent writes.  Entries are summed in the order
    given (ascending rounds), so the result is deterministic.
    """
    total: np.ndarray | None = None
    for cids, delta in entries:
        pos = np.clip(np.searchsorted(cids, ids), 0, cids.size - 1)
        hit = cids[pos] == ids
        if hit.any():
            if total is None:
                total = np.zeros(vals.shape)
            total[hit] += delta[pos[hit]]
    if total is None:
        return vals
    return (vals.astype(np.float64) + total).astype(vals.dtype)


@dataclass
class ReplicatedSyncResult:
    """Accounting for one replicated-field sync round."""

    field: str
    changed_per_master: list[np.ndarray]
    reduce_record: PhaseRecord
    broadcast_record: PhaseRecord
    request_record: PhaseRecord | None = None
    #: Per host: global ids whose replica was overwritten by the broadcast.
    received_per_host: list[np.ndarray] = field(default_factory=list)

    @property
    def num_changed(self) -> int:
        return int(sum(len(c) for c in self.changed_per_master))

    @property
    def total_bytes(self) -> int:
        total = self.reduce_record.total_bytes + self.broadcast_record.total_bytes
        if self.request_record is not None:
            total += self.request_record.total_bytes
        return total


@dataclass
class ValueSyncResult:
    """Accounting for one value-mode sync round."""

    field: str
    #: Per host: local ids whose value changed during this sync (master
    #: reductions and received broadcasts), for worklist-driven algorithms.
    changed_local: list[np.ndarray]
    reduce_record: PhaseRecord
    broadcast_record: PhaseRecord

    @property
    def any_changed(self) -> bool:
        return any(len(c) for c in self.changed_local)


class GluonSynchronizer:
    """Reduce/broadcast engine over a set of partitions and a network."""

    def __init__(self, partitions: Sequence[Partition], network: SimulatedNetwork):
        if not partitions:
            raise ValueError("need at least one partition")
        if len(partitions) != network.num_hosts:
            raise ValueError(
                f"{len(partitions)} partitions but network has {network.num_hosts} hosts"
            )
        hosts = sorted(p.host for p in partitions)
        if hosts != list(range(len(partitions))):
            raise ValueError(f"partition hosts must be 0..H-1, got {hosts}")
        self.partitions = sorted(partitions, key=lambda p: p.host)
        self.network = network
        self.num_hosts = len(partitions)
        self.bounds = self.partitions[0].master_bounds
        #: Optional :class:`~repro.analysis.runtime.GluonSyncChecker`; when
        #: set, replicated syncs and crash restores are observed (never
        #: perturbed) for protocol violations.
        self.checker = None
        # Mirror location map for value-mode sync: (master_host, mirror_host)
        # -> sorted global ids in master_host's block proxied on mirror_host.
        self._mirror_ids: dict[tuple[int, int], np.ndarray] = {}
        for part in self.partitions:
            owners = part.master_host_of(part.local_to_global)
            for m in range(self.num_hosts):
                if m == part.host:
                    continue
                ids = np.sort(part.local_to_global[owners == m])
                self._mirror_ids[(m, part.host)] = ids

    # ------------------------------------------------------------------
    # Replicated-model synchronization (GraphWord2Vec)
    # ------------------------------------------------------------------
    def sync_replicated(
        self,
        field: FieldSync,
        updated: Sequence[np.ndarray],
        combiner: GradientCombiner,
        plan: CommPlan,
        accessed_next: Sequence[np.ndarray] | None = None,
        fold_offset: int = 0,
        deltas: Sequence[np.ndarray] | None = None,
        buffered: Mapping[int, Sequence[tuple[np.ndarray, np.ndarray]]] | None = None,
    ) -> ReplicatedSyncResult:
        """One reduce+broadcast round for a replicated field.

        ``updated[h]`` names the nodes host ``h`` wrote since its base
        snapshot, as sorted unique global ids.
        ``deltas[h]`` (float64, aligned with ``updated[h]``) is the
        host's captured contribution; without it the delta is read off
        the replica as current − base.  ``accessed_next[h]`` (sorted
        global ids) is required by plans with
        :attr:`~repro.gluon.plans.CommPlan.requires_access_sets`.

        Masters reduce into the field's canonical store
        (:attr:`FieldSync.canonical`) and broadcast from it.
        ``buffered[h]`` lists host ``h``'s captured contributions that are
        not part of this reduction (rounds a run-ahead host finished
        since).  Canonical values landing on those rows keep them on top
        (read-my-writes); hosts without buffered rows take a plain
        overwrite.  Every landed row is rebased, so the next delta
        measures only new work.

        ``fold_offset`` rotates the (order-dependent) inductive fold of
        contributions: host ``fold_offset % H`` is folded first this round.
        The paper leaves the induction order open; rotating it round-robin
        avoids permanently privileging one host's shard (an ablation
        benchmark quantifies the effect).
        """
        H = self.num_hosts
        if len(updated) != H:
            raise ValueError(f"need {H} updated id arrays, got {len(updated)}")
        if plan.requires_access_sets and accessed_next is None:
            raise ValueError(f"plan {plan.name} requires access sets")
        for part in self.partitions:
            if part.num_local != field.num_nodes:
                raise ValueError(
                    "sync_replicated requires fully replicated partitions "
                    f"(host {part.host} has {part.num_local} of {field.num_nodes} nodes)"
                )
        dim = field.dim
        dtype = field.arrays[0].dtype
        touched = [np.asarray(u, dtype=np.int64) for u in updated]
        accessed = (
            [np.asarray(a, dtype=np.int64) for a in accessed_next]  # type: ignore[union-attr]
            if plan.requires_access_sets
            else None
        )

        if self.checker is not None:
            # Validate writes-vs-flags while replicas are still untouched.
            # Captured deltas were read when their step ran, possibly
            # before earlier folds landed; their reads are audited there.
            self.checker.before_replicated(
                field, self.bounds, touched, audit_reads=deltas is None
            )
        if deltas is None:
            deltas = [
                (field.arrays[h][touched[h]].astype(np.float64) -
                 field.bases[h][touched[h]].astype(np.float64))
                for h in range(H)
            ]

        # -- reduce phase: mirrors -> masters ---------------------------------
        with self.network.phase(f"reduce:{field.name}") as reduce_record:
            for h in range(H):
                t, d = touched[h], deltas[h]
                owner = np.searchsorted(self.bounds, t, side="right") - 1
                for m in range(H):
                    if m == h:
                        continue
                    sel = owner == m
                    ids = t[sel]
                    block = int(self.bounds[m + 1] - self.bounds[m])
                    wire = plan.reduce_wire_bytes(len(ids), dim, block)
                    if wire > 0:
                        self.network.send(h, m, wire, payload=(ids, d[sel]))

            changed_per_master: list[np.ndarray] = []
            for m in range(H):
                lo, hi = int(self.bounds[m]), int(self.bounds[m + 1])
                # Gather contributions in ascending host order: the master's
                # own local delta participates exactly like a mirror's.
                contribs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
                own_sel = (touched[m] >= lo) & (touched[m] < hi)
                contribs[m] = (touched[m][own_sel], deltas[m][own_sel])
                for src, payload in self.network.drain(m):
                    contribs[src] = payload
                all_ids = [
                    contribs[src][0] for src in sorted(contribs)
                    if len(contribs[src][0])
                ]
                if not all_ids:
                    changed_per_master.append(_empty_ids())
                    continue
                union = np.unique(np.concatenate(all_ids))
                state = combiner.create(len(union), dim)
                for src in sorted(contribs, key=lambda h: (h - fold_offset) % H):
                    ids, vals = contribs[src]
                    if len(ids) == 0:
                        continue
                    rows = np.searchsorted(union, ids)
                    state.accumulate(rows, vals)
                combined = state.result()
                canonical = field.canonical
                new_vals = (canonical[union].astype(np.float64) + combined).astype(dtype)
                canonical[union] = new_vals
                entries = buffered.get(m) if buffered else None
                if entries:
                    new_vals = _with_buffered(new_vals, union, entries)
                field.arrays[m][union] = new_vals
                field.bases[m][union] = new_vals
                changed_per_master.append(union)

        # -- pull-request phase (PullModel only) ------------------------------
        request_record: PhaseRecord | None = None
        if accessed is not None:
            request_record = self._request(f"request:{field.name}", plan, accessed)

        # -- broadcast phase: masters -> mirrors ------------------------------
        broadcast_record, received_per_host = self._broadcast(
            f"broadcast:{field.name}", field, plan, changed_per_master, accessed, buffered
        )

        if self.checker is not None:
            self.checker.after_replicated(
                field,
                self.bounds,
                plan,
                touched,
                changed_per_master,
                received_per_host,
                accessed,
            )

        return ReplicatedSyncResult(
            field=field.name,
            changed_per_master=changed_per_master,
            reduce_record=reduce_record,
            broadcast_record=broadcast_record,
            request_record=request_record,
            received_per_host=received_per_host,
        )

    def refresh(
        self,
        field: FieldSync,
        plan: CommPlan,
        need: Sequence[np.ndarray],
        buffered: Mapping[int, Sequence[tuple[np.ndarray, np.ndarray]]] | None = None,
    ) -> list[np.ndarray]:
        """Pull rows ``need[h]`` (sorted global ids) to each host, unreduced.

        The pull phases of :meth:`sync_replicated` with nothing changed:
        an id-only request, then the masters' canonical values, under
        ``refresh-request:``/``refresh:`` phase names so the byte
        breakdown shows this traffic separately.  Values land as in
        :meth:`sync_replicated` (read-my-writes over ``buffered``).
        Returns the rows each host received.
        """
        self._request(f"refresh-request:{field.name}", plan, need)
        empty = [_empty_ids()] * self.num_hosts
        _record, received = self._broadcast(
            f"refresh:{field.name}", field, plan, empty, need, buffered
        )
        if self.checker is not None:
            self.checker.after_refresh(field, received)
        return received

    def _request(
        self, phase: str, plan: CommPlan, accessed: Sequence[np.ndarray]
    ) -> PhaseRecord:
        """Id-only pull requests: every host asks each master for its rows."""
        H = self.num_hosts
        with self.network.phase(phase) as record:
            for h in range(H):
                acc = accessed[h]
                owner = np.searchsorted(self.bounds, acc, side="right") - 1
                for m in range(H):
                    if m == h:
                        continue
                    ids = acc[owner == m]
                    wire = plan.request_wire_bytes(len(ids))
                    if wire > 0:
                        self.network.send(h, m, wire, payload=ids)
            # Masters consume the requests (content == accessed, which the
            # broadcast re-derives; drain keeps inboxes and the
            # data/accounting paths consistent).
            for m in range(H):
                self.network.drain(m)
        return record

    def _broadcast(
        self,
        phase: str,
        field: FieldSync,
        plan: CommPlan,
        changed_per_master: Sequence[np.ndarray],
        accessed: Sequence[np.ndarray] | None,
        buffered: Mapping[int, Sequence[tuple[np.ndarray, np.ndarray]]] | None,
    ) -> tuple[PhaseRecord, list[np.ndarray]]:
        """Masters ship canonical rows to mirrors; returns rows received."""
        H = self.num_hosts
        dim = field.dim
        with self.network.phase(phase) as record:
            for m in range(H):
                lo, hi = int(self.bounds[m]), int(self.bounds[m + 1])
                changed = changed_per_master[m]
                for h in range(H):
                    if h == m:
                        continue
                    acc_block = None
                    if accessed is not None:
                        acc = accessed[h]
                        acc_block = acc[(acc >= lo) & (acc < hi)]
                    ids, wire = plan.broadcast_selection(changed, hi - lo, acc_block, dim)
                    if wire > 0:
                        self.network.send(m, h, wire, payload=(ids, field.canonical[ids].copy()))
            received_per_host: list[np.ndarray] = []
            for h in range(H):
                array = field.arrays[h]
                entries = buffered.get(h) if buffered else None
                got: list[np.ndarray] = []
                for _src, (ids, vals) in self.network.drain(h):
                    if len(ids):
                        array[ids] = _with_buffered(vals, ids, entries) if entries else vals
                        got.append(ids)
                received = np.unique(np.concatenate(got)) if got else _empty_ids()
                # Repair the delta baseline in bulk: every overwritten row
                # now holds a canonical value, the reference the next delta
                # is measured against.  Rows a plan chose not to refresh
                # (PullModel) keep their old base — they are refreshed (and
                # rebased) before the host may touch them.
                if len(received):
                    field.bases[h][received] = field.arrays[h][received]
                received_per_host.append(received)
        return record, received_per_host

    # ------------------------------------------------------------------
    # Crash recovery (fault injection)
    # ------------------------------------------------------------------
    def restore_host(self, field: FieldSync, host: int, phase: str = "recovery") -> int:
        """Rebuild ``host``'s replica of ``field`` after a fail-stop crash.

        Every surviving master streams its full canonical block to the
        recovering host, read from the field's canonical store, which only
        reductions write — so the transfer is correct even while survivors
        are mid-round or running ahead.  Blocks are contiguous, so ids stay
        implicit on the wire.  The recovering host's own master block is
        not touched — the caller restores it from stable storage.

        Returns the wire bytes charged to the ``{phase}:{field}`` records.
        """
        if not 0 <= host < self.num_hosts:
            raise ValueError(f"host {host} out of range [0, {self.num_hosts})")
        dim = field.dim
        with self.network.phase(f"{phase}:{field.name}") as record:
            for m in range(self.num_hosts):
                if m == host:
                    continue
                lo, hi = int(self.bounds[m]), int(self.bounds[m + 1])
                rows = hi - lo
                if rows == 0:
                    continue
                wire = rows * dim * VALUE_BYTES
                self.network.send(
                    m,
                    host,
                    wire,
                    payload=(
                        np.arange(lo, hi, dtype=np.int64),
                        field.canonical[lo:hi].copy(),
                    ),
                )
            for _src, (ids, vals) in self.network.drain(host):
                field.arrays[host][ids] = vals
                field.bases[host][ids] = vals
        if self.checker is not None:
            self.checker.after_restore(field, host)
        return record.total_bytes

    # ------------------------------------------------------------------
    # Value-mode synchronization (classic graph analytics)
    # ------------------------------------------------------------------
    def sync_value(
        self,
        name: str,
        arrays: Sequence[np.ndarray],
        updated: Sequence[BitVector],
        reduce_op: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> ValueSyncResult:
        """Reduce updated mirror *values* into masters, broadcast changes.

        ``arrays[h]`` is host ``h``'s label array indexed by local id (1-D or
        2-D); ``updated[h]`` flags locally-written nodes.  ``reduce_op`` must
        be idempotent-safe elementwise (min, max, add-on-residue-semantics is
        the caller's responsibility).  Returns per-host local ids whose value
        changed so data-driven algorithms can refill worklists.  Bit vectors
        are cleared.
        """
        H = self.num_hosts
        width = 1 if arrays[0].ndim == 1 else int(arrays[0].shape[1])
        changed_local: list[list[int]] = [[] for _ in range(H)]

        with self.network.phase(f"reduce:{name}") as reduce_record:
            for part in self.partitions:
                h = part.host
                idx = updated[h].indices()
                if idx.size == 0:
                    continue
                gids = part.local_to_global[idx]
                owners = part.master_host_of(gids)
                for m in range(H):
                    if m == h:
                        continue
                    sel = owners == m
                    if not sel.any():
                        continue
                    ids = gids[sel]
                    vals = arrays[h][idx[sel]].copy()
                    wire = len(ids) * (ID_BYTES + width * VALUE_BYTES)
                    self.network.send(h, m, wire, payload=(ids, vals))
            master_changed: list[np.ndarray] = []
            for part in self.partitions:
                m = part.host
                changed_ids: set[int] = set()
                # The master's own local updates are already in its array but
                # still count as changes to propagate.
                own = updated[m].indices()
                if own.size:
                    own_g = part.local_to_global[own]
                    own_masters = own_g[part.master_host_of(own_g) == m]
                    changed_ids.update(int(g) for g in own_masters)
                for _src, (ids, vals) in self.network.drain(m):
                    rows = part.to_local_array(ids)
                    before = arrays[m][rows].copy()
                    arrays[m][rows] = reduce_op(arrays[m][rows], vals)
                    delta = arrays[m][rows] != before
                    if delta.ndim > 1:
                        delta = delta.any(axis=1)
                    changed_ids.update(int(g) for g in ids[delta])
                    changed_local[m].extend(int(r) for r in rows[delta])
                master_changed.append(
                    np.array(sorted(changed_ids), dtype=np.int64)
                )

        with self.network.phase(f"broadcast:{name}") as broadcast_record:
            for part in self.partitions:
                m = part.host
                changed = master_changed[m]
                if changed.size == 0:
                    continue
                local_rows = part.to_local_array(changed)
                values = arrays[m][local_rows]
                for h in range(H):
                    if h == m:
                        continue
                    on_h = self._mirror_ids[(m, h)]
                    sel = np.isin(changed, on_h, assume_unique=True)
                    if not sel.any():
                        continue
                    ids = changed[sel]
                    wire = len(ids) * (ID_BYTES + width * VALUE_BYTES)
                    self.network.send(m, h, wire, payload=(ids, values[sel].copy()))
            for part in self.partitions:
                h = part.host
                for _src, (ids, vals) in self.network.drain(h):
                    rows = part.to_local_array(ids)
                    before = arrays[h][rows].copy()
                    arrays[h][rows] = vals
                    delta = arrays[h][rows] != before
                    if delta.ndim > 1:
                        delta = delta.any(axis=1)
                    changed_local[h].extend(int(r) for r in rows[delta])

        for bv in updated:
            bv.reset()
        return ValueSyncResult(
            field=name,
            changed_local=[np.array(sorted(set(c)), dtype=np.int64) for c in changed_local],
            reduce_record=reduce_record,
            broadcast_record=broadcast_record,
        )
