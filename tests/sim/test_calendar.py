"""Calendar-queue edge cases (the two-level scheduler in the Environment).

The calendar must be *observationally invisible*: engaging it, draining
buckets, and disengaging may never change dispatch order, clock values,
or error behaviour relative to the plain heap.  These tests force the
machinery through its corners — same-timestamp priority ties, lazily
cancelled resource requests sitting in a drained bucket, and ``peek()`` /
``run(until=)`` across bucket boundaries.
"""

import math
import random

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, NORMAL, URGENT, Resource


def _engaged_env(width=1.0):
    """An environment with the calendar switched on at a known width."""
    env = Environment()
    env._engage(width=width)
    assert env._cal_width == width
    return env


def _triggered(env, order, tag):
    ev = env.event()
    ev._ok, ev._value = True, None
    ev.callbacks.append(lambda _e: order.append(tag))
    return ev


class TestSameTimestampOrdering:
    def test_urgent_beats_normal_in_far_bucket(self):
        env = _engaged_env(width=1.0)
        order = []
        # Both land in bucket int(5.5 / 1.0) = 5, far from now=0.
        env.schedule(_triggered(env, order, "normal"), priority=NORMAL,
                     delay=5.5)
        env.schedule(_triggered(env, order, "urgent"), priority=URGENT,
                     delay=5.5)
        env.run()
        assert order == ["urgent", "normal"]
        assert env.now == 5.5

    def test_fifo_within_bucket_and_priority(self):
        env = _engaged_env(width=1.0)
        order = []
        for i in range(8):
            env.schedule(_triggered(env, order, i), delay=3.25)
        env.run()
        assert order == list(range(8))

    def test_ties_across_bucket_refill_keep_eid_order(self):
        # Entries scheduled into the same far bucket before and after a
        # near-heap drain must still dispatch in sequence order.
        env = _engaged_env(width=1.0)
        order = []
        env.schedule(_triggered(env, order, "a"), delay=2.5)

        def late_scheduler(env):
            yield env.timeout(1.0)
            env.schedule(_triggered(env, order, "b"), delay=1.5)  # also 2.5

        env.process(late_scheduler(env))
        env.run()
        assert order == ["a", "b"]

    def test_dispatch_order_matches_plain_heap(self):
        rng = random.Random(0xC0FFEE)
        stamps = [round(rng.uniform(0.0, 50.0), 3) for _ in range(400)]

        def run_one(engage):
            env = Environment(calendar_threshold=None)
            if engage:
                env._engage(width=0.7)
            order = []
            for i, delay in enumerate(stamps):
                prio = URGENT if i % 7 == 0 else NORMAL
                env.schedule(_triggered(env, order, i), priority=prio,
                             delay=delay)
            env.run()
            return order, env.now, env.events_processed

        assert run_one(False) == run_one(True)


class TestLazyCancelledRequests:
    def test_cancellation_fired_from_drained_bucket(self):
        # Three waiters queue behind a held resource; a Timeout sitting in
        # a far calendar bucket cancels the middle one before any grant.
        # The tombstone must be skipped when the holder releases.
        env = _engaged_env(width=1.0)
        res = Resource(env, capacity=1)
        holder = res.request()       # granted immediately
        first = res.request()
        second = res.request()
        third = res.request()
        granted = []
        for tag, req in (("first", first), ("second", second),
                         ("third", third)):
            req.callbacks.append(lambda _e, t=tag: granted.append(t))

        def canceller(env):
            yield env.timeout(4.5)   # far bucket 4
            res.release(second)      # still queued -> lazy tombstone

        def releaser(env):
            yield env.timeout(6.5)   # far bucket 6
            res.release(holder)
            yield env.timeout(1.0)
            res.release(first)
            yield env.timeout(1.0)
            res.release(third)

        env.process(canceller(env))
        env.process(releaser(env))
        env.run()
        assert granted == ["first", "third"]
        assert second._cancelled
        assert res.queue_length == 0

    def test_queue_length_sees_tombstone_across_buckets(self):
        env = _engaged_env(width=1.0)
        res = Resource(env, capacity=1)
        res.request()
        queued = res.request()
        assert res.queue_length == 1

        def canceller(env):
            yield env.timeout(10.25)
            res.release(queued)

        env.process(canceller(env))
        env.run()
        assert res.queue_length == 0


class TestBucketBoundaries:
    def test_peek_reaches_into_far_bucket(self):
        env = _engaged_env(width=1.0)
        env.timeout(7.5)
        # The timeout went to far bucket 7; the near heap is empty.
        assert not env._queue
        assert env.peek() == 7.5

    def test_peek_empty_calendar_is_inf(self):
        env = _engaged_env(width=1.0)
        assert env.peek() == float("inf")

    def test_run_until_mid_bucket_stops_exactly(self):
        env = _engaged_env(width=1.0)
        fired = []
        for delay in (3.2, 3.4, 3.8, 4.1):
            env.schedule(_triggered(env, fired, delay), delay=delay)
        env.run(until=3.5)
        assert env.now == 3.5
        assert fired == [3.2, 3.4]
        env.run()
        assert fired == [3.2, 3.4, 3.8, 4.1]

    def test_run_until_exact_bucket_edge_includes_edge_event(self):
        env = _engaged_env(width=1.0)
        fired = []
        env.schedule(_triggered(env, fired, "edge"), delay=3.0)
        env.schedule(_triggered(env, fired, "later"), delay=3.0001)
        env.run(until=3.0)
        assert fired == ["edge"]
        assert env.now == 3.0

    def test_run_until_horizon_spanning_many_buckets(self):
        env = _engaged_env(width=0.5)
        fired = []
        for delay in (0.6, 1.6, 2.6, 3.6, 4.6):
            env.schedule(_triggered(env, fired, delay), delay=delay)
        env.run(until=3.0)
        assert fired == [0.6, 1.6, 2.6]
        assert env.now == 3.0
        env.run()
        assert fired == [0.6, 1.6, 2.6, 3.6, 4.6]
        assert env.now == 4.6

    def test_trigger_after_horizon_jump_keeps_order(self):
        # After run(until=) jumps the clock into a far bucket's range,
        # an immediately-succeeded event (scheduled at `now`, straight to
        # the near heap) must not overtake the rest of that bucket.
        env = _engaged_env(width=1.0)
        fired = []
        env.schedule(_triggered(env, fired, "deferred"), delay=5.25)
        env.run(until=5.1)
        ev = _triggered(env, fired, "triggered")
        ev._value = "x"
        env.schedule(ev)  # at now=5.1 < 5.25
        env.run()
        assert fired == ["triggered", "deferred"]

    def test_step_pulls_far_bucket(self):
        env = _engaged_env(width=1.0)
        env.timeout(9.5)
        env.step()
        assert env.now == 9.5
        with pytest.raises(SimulationError):
            env.step()

    def test_run_until_event_in_far_bucket(self):
        env = _engaged_env(width=1.0)
        timeout = env.timeout(12.5, value="deep")
        assert env.run(until=timeout) == "deep"
        assert env.now == 12.5


class TestAdaptiveEngagement:
    def test_engages_above_threshold_and_drains_identically(self):
        env = Environment(calendar_threshold=512)
        fired = []
        rng = random.Random(7)
        delays = sorted(round(rng.uniform(0.0, 100.0), 4)
                        for _ in range(4000))
        for delay in delays:
            env.schedule(_triggered(env, fired, delay), delay=delay)
        env.run()
        assert fired == delays
        # The periodic load check crossed the threshold mid-run and
        # engaged the calendar; every bucket must have drained by the end.
        assert env._cal_width > 0.0
        assert env._far_count == 0

    def test_disengages_when_load_drops(self):
        env = Environment(calendar_threshold=512)
        fired = []
        # Phase 1: a dense burst that engages the calendar.  Phase 2: a
        # long sparse tail, so by the next periodic check the pending set
        # is tiny and the calendar must fall back to the plain heap.
        for i in range(4000):
            env.schedule(_triggered(env, fired, i), delay=i * 0.01)
        for i in range(2200):
            env.schedule(_triggered(env, fired, 4000 + i),
                         delay=100.0 + i)
        env.run(until=50.0)
        assert env._cal_width > 0.0        # engaged during the burst
        env.run()
        # By the tail's periodic load check the pending set had shrunk
        # below _CAL_LO, so the calendar must have dropped back to the
        # plain heap.
        assert env._cal_width == 0.0
        assert env._far_count == 0
        assert fired == list(range(6200))

    def test_run_until_inf_with_calendar_engaged_is_run(self):
        def tickers(env, fired):
            def ticker(env, i):
                for _ in range(60):
                    yield env.timeout(1.0 + i * 0.01)
                    fired.append((env.now, i))
            for i in range(50):
                env.process(ticker(env, i))

        env = Environment(calendar_threshold=8)
        fired = []
        tickers(env, fired)
        env.run(until=math.inf)
        assert env._cal_width > 0.0        # engaged by the load check
        ref = Environment(calendar_threshold=8)
        ref_fired = []
        tickers(ref, ref_fired)
        ref.run()
        assert fired == ref_fired
        assert env.events_processed == ref.events_processed
        assert env.now == ref.now == fired[-1][0]

    def test_disabled_threshold_never_engages(self):
        env = Environment(calendar_threshold=None)
        for i in range(5000):
            env.timeout(float(i))
        env.run()
        assert env._cal_width == 0.0
