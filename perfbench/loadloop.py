"""Open- and closed-loop query generators with due-time latency accounting.

The open loop models independent users: query ``i`` is due ``due[i]``
seconds after the start whatever the server is doing, and its latency is
measured from that due time, so a stall also charges the queries that
were due while it lasted.  Pending queries are flushed once the oldest
has waited the batching window (or earlier, when the engine flushes a
full batch by itself).  The loop runs on one thread and takes its clock
and sleep as arguments, so it can be driven by a fake clock in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np


class Ticket(Protocol):
    @property
    def done(self) -> bool: ...


@dataclass
class OpenLoopResult:
    """Per-query timings, in seconds from the loop's start."""

    due: np.ndarray
    submitted: np.ndarray
    flush_started: np.ndarray
    answered: np.ndarray
    tickets: list

    @property
    def latency(self) -> np.ndarray:
        """Answer time minus due time."""
        return self.answered - self.due

    @property
    def queue_wait(self) -> np.ndarray:
        """Start of the flush that answered a query, minus its due time."""
        return self.flush_started - self.due

    @property
    def late_max(self) -> float:
        """How far behind its schedule the generator submitted, at worst."""
        return float(np.max(self.submitted - self.due)) if len(self.due) else 0.0


def open_loop(
    due: np.ndarray,
    submit: Callable[[int], Ticket],
    flush: Callable[[], object],
    *,
    window_s: float,
    clock: Callable[[], float],
    sleep: Callable[[float], None],
) -> OpenLoopResult:
    """Submit query ``i`` at ``due[i]``; flush when the oldest has waited ``window_s``.

    ``submit(i)`` returns the query's ticket (which may already be done if
    the submission filled a batch); ``flush()`` answers every pending
    query.  ``due`` must be non-decreasing.
    """
    n = len(due)
    if n and np.any(np.diff(due) < 0):
        raise ValueError("due times must be non-decreasing")
    submitted = np.full(n, np.nan)
    flush_started = np.full(n, np.nan)
    answered = np.full(n, np.nan)
    tickets: list = [None] * n
    pending: list[int] = []
    origin = clock()
    nxt = 0
    while nxt < n or pending:
        now = clock() - origin
        next_due = due[nxt] if nxt < n else np.inf
        flush_due = due[pending[0]] + window_s if pending else np.inf
        if next_due <= now:
            submitted[nxt] = now
            tickets[nxt] = submit(nxt)
            pending.append(nxt)
            nxt += 1
        elif flush_due <= now:
            flush()
        else:
            sleep(min(next_due, flush_due) - now)
            continue
        if any(tickets[i].done for i in pending):
            finished = clock() - origin
            still = []
            for i in pending:
                if tickets[i].done:
                    flush_started[i] = now
                    answered[i] = finished
                else:
                    still.append(i)
            pending = still
    return OpenLoopResult(due, submitted, flush_started, answered, tickets)


def spin_wait(seconds: float, clock: Callable[[], float]) -> None:
    """Wait ``seconds`` by polling ``clock``, keeping the core busy.

    The open loop's ``sleep``.  A sleeping generator lets its core go idle,
    and on a shared virtual machine waking an idle core can take
    milliseconds when the host is busy; that wake-up would be charged to
    the query due next, so the latency would track the host's load rather
    than the program.
    """
    end = clock() + seconds
    while clock() < end:
        pass


def closed_loop(
    n: int,
    submit: Callable[[int], Ticket],
    flush: Callable[[], object],
    clock: Callable[[], float],
) -> tuple[float, list]:
    """Submit all ``n`` queries back to back (one saturating client).

    Returns the wall seconds until every query was answered, and the
    tickets in submission order.
    """
    start = clock()
    tickets = [submit(i) for i in range(n)]
    flush()
    return clock() - start, tickets
