"""Unit tests for Resource / Store."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_serializes_users(self, env):
        res = Resource(env, capacity=1)
        log = []

        def user(env, name):
            with res.request() as req:
                yield req
                log.append((env.now, name, "in"))
                yield env.timeout(1)
            log.append((env.now, name, "out"))

        env.process(user(env, "a"))
        env.process(user(env, "b"))
        env.run()
        assert log == [(0, "a", "in"), (1, "a", "out"),
                       (1, "b", "in"), (2, "b", "out")]

    def test_capacity_two_allows_overlap(self, env):
        res = Resource(env, capacity=2)
        done = []

        def user(env, name):
            with res.request() as req:
                yield req
                yield env.timeout(1)
            done.append((env.now, name))

        for name in "abc":
            env.process(user(env, name))
        env.run()
        assert done == [(1, "a"), (1, "b"), (2, "c")]

    def test_priority_order(self, env):
        res = Resource(env, capacity=1)
        order = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(1)

        def user(env, name, prio):
            yield env.timeout(0.1)  # arrive while held
            with res.request(priority=prio) as req:
                yield req
                order.append(name)

        env.process(holder(env))
        env.process(user(env, "low", 5))
        env.process(user(env, "high", 1))
        env.run()
        assert order == ["high", "low"]

    def test_cancel_waiting_request(self, env):
        res = Resource(env, capacity=1)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(2)

        def impatient(env):
            req = res.request()
            yield env.timeout(1)
            req.release()  # give up while still queued
            return "gave up"

        env.process(holder(env))
        p = env.process(impatient(env))
        assert env.run(until=p) == "gave up"
        assert res.queue_length == 0

    def test_count_and_queue_length(self, env):
        res = Resource(env, capacity=1)
        res.request()
        res.request()
        assert res.count == 1
        assert res.queue_length == 1


class TestStore:
    def test_fifo_order(self, env):
        store = Store(env)
        got = []

        def producer(env):
            for i in range(3):
                yield store.put(i)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        times = []

        def consumer(env):
            item = yield store.get()
            times.append((env.now, item))

        def producer(env):
            yield env.timeout(5)
            yield store.put("x")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert times == [(5, "x")]

    def test_bounded_put_blocks(self, env):
        store = Store(env, capacity=1)
        log = []

        def producer(env):
            yield store.put("a")
            log.append(("put a", env.now))
            yield store.put("b")
            log.append(("put b", env.now))

        def consumer(env):
            yield env.timeout(2)
            item = yield store.get()
            log.append((f"got {item}", env.now))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert ("put b", 2) in log

    def test_invalid_capacity(self, env):
        with pytest.raises(SimulationError):
            Store(env, capacity=0)

    def test_deposit_makes_no_event_and_wakes_getters_in_order(self, env):
        store = Store(env)
        store.deposit("a")
        assert env._eid == 0 and env.peek() == float("inf")
        got = []

        def consumer(env, k):
            item = yield store.get()
            got.append((k, item, env.now))

        for k in range(3):
            env.process(consumer(env, k))
        env.run()
        assert got == [(0, "a", 0)] and len(store) == 0

        def producer(env):
            yield env.timeout(1)
            store.deposit("b")
            store.deposit("c")

        env.process(producer(env))
        env.run()
        assert got[1:] == [(1, "b", 1), (2, "c", 1)]

    def test_deposit_into_a_full_store_raises(self, env):
        store = Store(env, capacity=1)
        store.deposit("a")
        with pytest.raises(SimulationError):
            store.deposit("b")
        assert list(store.items) == ["a"]
