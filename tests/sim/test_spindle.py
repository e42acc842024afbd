"""``Spindle`` is a capacity-1 ``Resource``, only cheaper.

A random program of processes takes servers at mixed priorities, holds
them, withdraws waiting grants, interrupts and joins each other and
spawns children that take a server at once.  It runs once on
``Spindle`` (``acquire``/``release``) and once on
``Resource(capacity=1)`` (``request``/``release``) with the same
priorities, and the two traces — every op boundary and grant with the
time and the last event id handed out — must match entry for entry, with
the same ``events_processed`` wherever a ``run`` call returns.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Environment, Interrupt, Resource, Spindle

#: Zero delays dominate: same-time arrivals are where order is decided.
DELAYS = (0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0)
NSERVERS = 2
#: Ties at priority 0 are the common case (every disk request and bulk
#: frame); 1 and 2 jump the queue the way pulled blocks do.
PRIORITIES = (0, 0, 1, 2)
#: Marker timeouts with a plain callback, so the pending set has a time
#: span for the calendar to size its buckets.
MARKERS = (0.5, 1.0, 2.0, 3.5, 6.0)


def op_strategy(nprocs):
    server = st.integers(0, NSERVERS - 1)
    delay = st.sampled_from(DELAYS)
    priority = st.sampled_from(PRIORITIES)
    return st.one_of(
        st.tuples(st.just("use"), server, delay, priority),
        st.tuples(st.just("withdraw"), server, delay, priority),
        st.tuples(st.just("timeout"), delay),
        st.tuples(st.just("interrupt"), st.integers(0, nprocs - 1)),
        st.tuples(st.just("join"), st.integers(0, nprocs - 1)),
        st.tuples(st.just("spawn"), server, delay, priority),
    )


@st.composite
def programs(draw):
    nprocs = draw(st.integers(1, 6))
    return [draw(st.lists(op_strategy(nprocs), max_size=8))
            for _ in range(nprocs)]


class Program:
    """The program's processes on ``env``, on spindles or resources."""

    def __init__(self, env, spec, spindle):
        self.env = env
        self.spindle = spindle
        self.trace = []
        self.servers = [Spindle(env) if spindle else Resource(env, capacity=1)
                        for _ in range(NSERVERS)]
        self.started = set()
        for delay in MARKERS:
            env.timeout(delay).callbacks.append(
                lambda _e, d=delay: self.log("marker", d))
        self.procs = [env.process(self.body(f"p{i}", ops), name=f"p{i}")
                      for i, ops in enumerate(spec)]

    def log(self, name, step):
        self.trace.append((self.env.now, name, step, self.env._eid))

    def mark(self, label):
        self.trace.append(("stop", label, self.env.events_processed))

    def take(self, server, priority):
        return (server.acquire(priority) if self.spindle
                else server.request(priority))

    def body(self, name, ops):
        self.started.add(name)
        for i, op in enumerate(ops):
            self.log(name, f"{i}:{op[0]}")
            try:
                yield from self.run_op(name, i, op)
            except Interrupt as irq:
                self.log(name, f"{i}:interrupted:{irq.cause}")
        self.log(name, "exit")

    def run_op(self, name, i, op):
        env = self.env
        kind = op[0]
        if kind == "use":
            server = self.servers[op[1]]
            grant = self.take(server, op[3])
            try:
                yield grant
                self.log(name, f"{i}:granted")
                yield env.timeout(op[2])
            finally:
                server.release(grant)
        elif kind == "withdraw":
            # Give up after ``op[2]``: a grant still queued then is
            # withdrawn, one that came in time is held until then.
            server = self.servers[op[1]]
            grant = self.take(server, op[3])
            try:
                yield env.timeout(op[2])
            finally:
                server.release(grant)
        elif kind == "timeout":
            yield env.timeout(op[1])
        elif kind == "join":
            # Joiners of one process resume as callbacks of one event, so
            # a grant taken by the first is not the loop's next event.
            target = self.procs[op[1]]
            if target.name != name:
                yield target
        elif kind == "spawn":
            # The child's URGENT init lands at ``now`` before any grant.
            env.process(self.body(f"{name}.{i}", [("use", *op[1:])]),
                        name=f"{name}.{i}")
            yield env.timeout(0)
        elif kind == "interrupt":
            target = self.procs[op[1]]
            if (target.name != name and target.name in self.started
                    and target.is_alive):
                try:
                    target.interrupt(name)
                except SimulationError:  # its own wake-up is mid-dispatch
                    self.log(name, f"{i}:interrupt-refused")
            yield env.timeout(0)


def simulate(spec, spindle, threshold, until_t, until_proc):
    env = Environment(calendar_threshold=threshold)
    program = Program(env, spec, spindle)
    if threshold:
        env._maybe_adapt()  # engage the calendar before the first run
    env.run(until=until_t)
    program.mark("until_t")
    try:
        env.run(until=program.procs[until_proc % len(program.procs)])
    except SimulationError:
        pass  # that process never finishes: the queue drained first
    program.mark("until_event")
    env.run()
    program.mark("drained")
    return env, program


def assert_same(spec, threshold, until_t, until_proc):
    ref_env, ref = simulate(spec, False, threshold, until_t, until_proc)
    env, fast = simulate(spec, True, threshold, until_t, until_proc)
    assert fast.trace == ref.trace
    assert env.events_processed == ref_env.events_processed
    assert env._eid == ref_env._eid
    assert all(server.busy is None and server.queue_length == 0
               for server in fast.servers)
    return env


class TestSpindleMatchesResource:
    @given(programs(), st.sampled_from([None, 2]),
           st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_random_program(self, spec, threshold, until_t, until_proc):
        assert_same(spec, threshold, until_t, until_proc)

    @pytest.mark.parametrize("threshold", [None, 2])
    def test_corners(self, threshold):
        corners = [
            # Three arrivals at the same time on one idle server.
            [[("use", 0, 1.0, 0)], [("use", 0, 1.0, 0)],
             [("use", 0, 0.0, 0)]],
            # A waiter withdraws before its grant; the one behind it is
            # served at the holder's release.
            [[("use", 0, 2.0, 0)], [("withdraw", 0, 1.0, 0)],
             [("use", 0, 0.5, 0)]],
            # A waiter interrupted while queued.
            [[("use", 0, 2.0, 0)], [("use", 0, 1.0, 0)],
             [("timeout", 1.0), ("interrupt", 1), ("use", 0, 0.0, 0)]],
            # A later, more urgent waiter overtakes; equal ones keep
            # their arrival order.
            [[("use", 0, 1.0, 0)], [("use", 0, 1.0, 2)],
             [("use", 0, 1.0, 1)], [("use", 0, 1.0, 1)],
             [("use", 0, 0.0, 0)]],
            # The most urgent waiter withdraws; the next in priority order
            # takes the server.
            [[("use", 0, 2.0, 0)], [("use", 0, 1.0, 2)],
             [("withdraw", 0, 1.0, 0)], [("use", 0, 0.5, 1)]],
        ]
        for spec in corners:
            for until_t in (0.0, 1.0):
                for until_proc in range(len(spec)):
                    assert_same(spec, threshold, until_t, until_proc)


class TestSpindle:
    def test_wait_queue_only_while_a_grant_waits(self):
        env = Environment()
        spindle = Spindle(env)

        def user(env, hold):
            grant = spindle.acquire()
            try:
                yield grant
                yield env.timeout(hold)
            finally:
                spindle.release(grant)

        env.process(user(env, 1.0))
        env.run()
        assert spindle._waiting is None
        env.process(user(env, 1.0))
        env.process(user(env, 1.0))
        env.run(until=env.now + 0.5)
        assert spindle.queue_length == 1
        env.run()
        assert spindle.queue_length == 0 and spindle.busy is None
        assert spindle._waiting is None and env.now == 3.0

    def test_release_of_a_stale_grant_is_ignored(self):
        env = Environment()
        spindle = Spindle(env)
        grants = []

        def user(env):
            grant = spindle.acquire()
            grants.append(grant)
            try:
                yield grant
                yield env.timeout(1.0)
            finally:
                spindle.release(grant)

        env.process(user(env))
        env.process(user(env))
        env.run(until=0.5)
        holder = spindle.busy
        spindle.release(env.event())  # never acquired here
        assert spindle.busy is holder and spindle.queue_length == 1
        env.run()
        spindle.release(grants[0])  # released already
        assert spindle.busy is None and env.now == 2.0

    def test_priority_handoff_skips_a_withdrawn_waiter(self):
        env = Environment()
        spindle = Spindle(env)
        order = []

        def user(env, name, priority, hold):
            grant = spindle.acquire(priority)
            try:
                if grant.callbacks is not None:
                    yield grant
                order.append((name, env.now))
                yield env.timeout(hold)
            finally:
                spindle.release(grant)

        def quitter(env):
            # Queues ahead of everyone, then gives up while still waiting.
            grant = spindle.acquire(-1)
            try:
                yield env.timeout(0.5)
            finally:
                spindle.release(grant)

        env.process(user(env, "holder", 5, 1.0))
        env.run(until=0.1)
        for name, priority in (("bulk-a", 1), ("urgent", 0), ("bulk-b", 1)):
            env.process(user(env, name, priority, 1.0))
        env.process(quitter(env))
        env.run(until=0.2)
        assert spindle.queue_length == 4
        env.run(until=0.6)
        assert spindle.queue_length == 3
        env.run()
        assert order == [("holder", 0.0), ("urgent", 1.0), ("bulk-a", 2.0),
                         ("bulk-b", 3.0)]
        assert spindle.busy is None and spindle._waiting is None
