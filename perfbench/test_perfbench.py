"""Tests of the benchmark's own arithmetic: tails, self time, open-loop timing.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import threading

import numpy as np
import pytest

from perfbench.loadloop import closed_loop, open_loop, spin_wait
from perfbench.metrics import covered_length, self_time, supported_tail
from perfbench.tracing import Tracer, patched, phase_bucket


# -- percentile helper --------------------------------------------------
def test_tail_has_exactly_ten_samples_beyond_it():
    values = np.arange(1, 1001, dtype=float)[::-1]  # order must not matter
    tail = supported_tail(values)
    assert tail.pct == pytest.approx(99.0)
    assert tail.value == 990.0
    assert tail.samples == 1000
    assert (values > tail.value).sum() == 10


def test_tail_percentile_follows_the_sample_count():
    tail = supported_tail(np.arange(40.0))
    assert tail.pct == pytest.approx(75.0)
    assert tail.value == 29.0
    assert (np.arange(40.0) > tail.value).sum() == 10


def test_tail_unsupported_below_eleven_samples():
    assert supported_tail(np.arange(10.0)) is None
    smallest = supported_tail(np.arange(11.0))
    assert smallest.value == 0.0 and smallest.pct == pytest.approx(100 / 11)


# -- self time ----------------------------------------------------------
def test_overlapping_children_count_once():
    # Two children overlap on [2, 3]; one pokes out of the parent.
    children = [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0), (9.0, 12.0)]
    assert covered_length(children, 0.0, 10.0) == pytest.approx(4.0 + 1.0 + 1.0)
    assert self_time(0.0, 10.0, children) == pytest.approx(4.0)


def test_self_time_without_children_is_the_duration():
    assert self_time(2.0, 5.5, []) == pytest.approx(3.5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_nested_spans_self_time_under_a_fake_clock():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.run("r", "root"):
        clock.advance(1.0)
        with tracer.span("sync"):
            clock.advance(0.5)
            with tracer.span("phase"):
                clock.advance(2.0)
                with tracer.span("combine"):
                    clock.advance(1.0)
            clock.advance(0.25)
        clock.advance(1.0)
    spans = tracer.of_run("r")
    assert Tracer.total(spans, "sync") == pytest.approx(3.75)
    assert Tracer.self_total(spans, "sync") == pytest.approx(0.75)
    assert Tracer.self_total(spans, "phase") == pytest.approx(2.0)
    assert Tracer.self_total(spans, "root") == pytest.approx(2.0)
    by_name = {s.name: s for s in spans}
    assert by_name["combine"].parent == by_name["phase"].id
    assert by_name["phase"].parent == by_name["sync"].id
    assert by_name["sync"].parent == by_name["root"].id


def test_worker_spans_attach_to_the_callers_open_span():
    tracer = Tracer()
    with tracer.run("r", "root"):
        with tracer.span("search") as search_id:
            worker = threading.Thread(target=_shard, args=(tracer,))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
    (shard,) = [s for s in tracer.spans if s.name == "shard"]
    assert shard.parent == search_id
    assert shard.run == "r"


def _shard(tracer):
    with tracer.span("shard"):
        pass


def test_counters_are_per_run():
    tracer = Tracer()
    with tracer.run("a", "root"):
        tracer.count("sends", 3)
    with tracer.run("b", "root"):
        tracer.count("sends")
    assert tracer.counted("a", "sends") == 3
    assert tracer.counted("b", "sends") == 1


def test_patched_restores_class_and_instance_attributes():
    class Thing:
        def hello(self):
            return "class"

    thing = Thing()
    with patched(Thing, "hello", lambda self: "patched"):
        assert thing.hello() == "patched"
    assert thing.hello() == "class"
    with patched(thing, "hello", lambda: "instance"):
        assert thing.hello() == "instance"
    assert "hello" not in vars(thing)


def test_phase_buckets():
    assert phase_bucket("reduce:embedding") == "reduce"
    assert phase_bucket("refresh-request:training") == "refresh"
    with pytest.raises(ValueError, match="recovery"):
        phase_bucket("recovery:embedding")


# -- open loop ----------------------------------------------------------
class FakeTicket:
    def __init__(self):
        self.done = False


class FakeEngine:
    """Answers on flush, or by itself once ``max_batch`` queries wait."""

    def __init__(self, clock, flush_cost, max_batch=4):
        self.clock = clock
        self.flush_cost = flush_cost
        self.max_batch = max_batch
        self.pending = []
        self.flush_starts = []

    def submit(self, i):
        ticket = FakeTicket()
        self.pending.append(ticket)
        if len(self.pending) >= self.max_batch:
            self.flush()
        return ticket

    def flush(self):
        self.flush_starts.append(self.clock())
        self.clock.advance(self.flush_cost)
        for ticket in self.pending:
            ticket.done = True
        self.pending = []


def drive(due, flush_cost, window=0.010, max_batch=4):
    clock = FakeClock()
    engine = FakeEngine(clock, flush_cost, max_batch)
    result = open_loop(
        np.asarray(due), engine.submit, engine.flush,
        window_s=window, clock=clock, sleep=clock.advance,
    )
    return result, engine


def test_latency_runs_from_the_due_time_through_the_window():
    result, engine = drive([0.0, 0.004, 0.030], flush_cost=0.002)
    # Queries 0 and 1 flush when query 0 has waited the 10 ms window.
    assert engine.flush_starts == pytest.approx([0.010, 0.040])
    assert result.latency == pytest.approx([0.012, 0.008, 0.012])
    assert result.queue_wait == pytest.approx([0.010, 0.006, 0.010])
    assert result.late_max == pytest.approx(0.0)


def test_a_stall_charges_queries_due_during_it():
    # The first flush (at 10 ms) takes 30 ms; query 2 was due at 15 ms,
    # so the generator submits it 25 ms late and its latency counts that.
    result, engine = drive([0.0, 0.001, 0.015], flush_cost=0.030)
    assert engine.flush_starts == pytest.approx([0.010, 0.040])
    assert result.submitted[2] == pytest.approx(0.040)
    assert result.late_max == pytest.approx(0.025)
    assert result.latency[2] == pytest.approx(0.040 + 0.030 - 0.015)


def test_a_full_batch_answers_before_the_window():
    result, engine = drive([0.0, 0.001, 0.002, 0.003], flush_cost=0.001)
    assert engine.flush_starts == pytest.approx([0.003])
    assert result.queue_wait == pytest.approx([0.003, 0.002, 0.001, 0.0])
    assert result.latency == pytest.approx([0.004, 0.003, 0.002, 0.001])


def test_due_times_must_be_ordered():
    with pytest.raises(ValueError, match="non-decreasing"):
        drive([0.0, 0.002, 0.001], flush_cost=0.0)


class TickingClock(FakeClock):
    """Advances by ``tick`` on every read, as a real clock does while polled."""

    def __init__(self, tick):
        super().__init__()
        self.tick = tick
        self.reads = 0

    def __call__(self):
        self.reads += 1
        self.now += self.tick
        return self.now


def test_spin_wait_polls_until_the_time_has_passed():
    clock = TickingClock(tick=0.001)
    spin_wait(0.0045, clock)
    assert clock.now == pytest.approx(0.006)  # first read 1 ms, end 5.5 ms
    assert clock.reads == 6


def test_closed_loop_times_the_whole_stream():
    clock = FakeClock()
    engine = FakeEngine(clock, flush_cost=0.5, max_batch=4)
    wall, tickets = closed_loop(10, engine.submit, engine.flush, clock)
    assert wall == pytest.approx(1.5)  # two full batches and the remainder
    assert all(t.done for t in tickets)
