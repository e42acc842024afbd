"""Inline dispatch is exact: ``run()`` against the ``step()`` reference.

``Environment.run`` dispatches an event inline when it is provably the
next one off the heap (``Process._resume`` continuing into a just-yielded
event, ``Resource.acquire`` granting an idle resource); ``step()`` never
does.  A randomly generated process program is driven both ways and the
traces — ``(now, process name, step)`` at every op boundary and resume —
must match entry for entry, with the same ``events_processed`` and the
same event ids handed out.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Environment, Interrupt, Resource

DELAYS = (0.0, 0.0, 0.0, 0.25, 1.0, 2.5)
NRES = 2
NSIGNALS = 3
#: Marker timeouts with a plain (non-process) callback, pre-scheduled so
#: the pending set has a time span for the calendar to size its buckets.
MARKERS = (0.25, 1.0, 1.0, 2.5, 4.0, 7.5)


def _op(kind, rng_choice, nprocs):
    """One op tuple; ``rng_choice(seq)`` picks from a sequence."""
    delay = lambda: rng_choice(DELAYS)  # noqa: E731
    if kind in ("acquire", "request", "spawn_between", "cancel"):
        return (kind, rng_choice(range(NRES)), rng_choice((0, 0, 1, 2)),
                delay())
    if kind == "all_of":
        return (kind, tuple(delay() for _ in range(rng_choice((0, 1, 2, 3)))))
    if kind == "wait":
        return (kind, rng_choice(range(NSIGNALS)))
    if kind == "fire":
        # Then wait on the signal itself (joining the other waiters' many
        # callbacks) or on a zero-delay timeout.
        return (kind, rng_choice(range(NSIGNALS)), rng_choice((False, True)))
    if kind in ("join", "interrupt"):
        return (kind, rng_choice(range(nprocs)))
    return (kind, delay())  # timeout, spawn


KINDS = ("timeout", "acquire", "request", "spawn_between", "cancel",
         "all_of", "wait", "fire", "join", "interrupt", "spawn")


@st.composite
def programs(draw):
    nprocs = draw(st.integers(1, 6))
    pick = lambda seq: draw(st.sampled_from(tuple(seq)))  # noqa: E731
    procs = [[_op(pick(KINDS), pick, nprocs)
              for _ in range(draw(st.integers(0, 10)))]
             for _ in range(nprocs)]
    return procs


def random_program(rng, nprocs, nops):
    return [[_op(rng.choice(KINDS), rng.choice, nprocs) for _ in range(nops)]
            for _ in range(nprocs)]


class Program:
    """Builds the program's processes in ``env`` and records the trace."""

    def __init__(self, env, spec, capacities=(1, 2)):
        self.env = env
        self.trace = []
        self.resources = [Resource(env, capacity=c) for c in capacities]
        self.signals = [env.event() for _ in range(NSIGNALS)]
        self.started = set()
        #: Whether any op boundary saw the calendar engaged (not traced:
        #: ``step()`` never engages it on its own).
        self.calendar_seen = False
        for delay in MARKERS:
            env.timeout(delay).callbacks.append(
                lambda _e, d=delay: self.trace.append((env.now, "marker", d)))
        self.procs = [env.process(self.body(f"p{i}", ops), name=f"p{i}")
                      for i, ops in enumerate(spec)]

    def mark(self, label):
        """A stop entry: where a ``run`` call (or its ``step`` loop
        equivalent) returned."""
        self.trace.append(("stop", label, self.env.events_processed))

    def log(self, name, step):
        self.trace.append((self.env.now, name, step))
        self.calendar_seen |= bool(self.env._cal_width)

    def child(self, name, delay):
        self.log(name, "start")
        yield self.env.timeout(delay)
        self.log(name, "end")

    def body(self, name, ops):
        env = self.env
        self.started.add(name)
        for i, op in enumerate(ops):
            kind = op[0]
            self.log(name, f"{i}:{kind}")
            try:
                yield from self.run_op(name, i, op)
            except Interrupt as irq:
                self.log(name, f"{i}:interrupted:{irq.cause}")
            self.log(name, f"{i}:done")
        try:
            yield env.timeout(0)
        except Interrupt as irq:
            self.log(name, f"exit:interrupted:{irq.cause}")
        self.log(name, "exit")

    def run_op(self, name, i, op):
        env = self.env
        kind = op[0]
        if kind == "timeout":
            yield env.timeout(op[1])
        elif kind in ("acquire", "request", "spawn_between"):
            res, prio, hold = self.resources[op[1]], op[2], op[3]
            if kind == "acquire":
                grant = res.acquire(prio)
            else:
                grant = res.request(prio)
                if kind == "spawn_between":
                    # An URGENT init lands at ``now`` between the request
                    # and its yield.
                    env.process(self.child(f"{name}.{i}", hold))
            try:
                yield grant
                self.log(name, f"{i}:granted")
                yield env.timeout(hold)
            finally:
                res.release(grant)
        elif kind == "cancel":
            res, prio, wait = self.resources[op[1]], op[2], op[3]
            req = res.request(prio)
            try:
                yield env.timeout(wait)
            finally:
                res.release(req)  # cancels it if still queued
        elif kind == "all_of":
            yield env.all_of([env.timeout(d) for d in op[1]])
        elif kind == "wait":
            yield self.signals[op[1]]
        elif kind == "fire":
            signal = self.signals[op[1]]
            if not signal.triggered:
                signal.succeed(i)
            yield signal if op[2] else env.timeout(0)
        elif kind == "join":
            target = self.procs[op[1]]
            if target.name != name:
                yield target
        elif kind == "interrupt":
            target = self.procs[op[1]]
            if (target.name != name and target.name in self.started
                    and target.is_alive):
                try:
                    target.interrupt(name)
                except SimulationError:
                    self.log(name, f"{i}:interrupt-refused")
            yield env.timeout(0)
        elif kind == "spawn":
            env.process(self.child(f"{name}.{i}", op[1]))
            yield env.timeout(0)


def _build(spec, threshold, engage):
    env = Environment(calendar_threshold=threshold)
    program = Program(env, spec)
    if engage:
        env._maybe_adapt()  # the loops' own load check
    return env, program


def run_reference(spec, threshold, engage, until_t, until_proc):
    """``step()`` loops stopping where the three ``run`` calls stop."""
    env, program = _build(spec, threshold, engage)
    while env.peek() <= until_t:
        env.step()
    program.mark("until_t")
    target = program.procs[until_proc % len(program.procs)]
    while not target.processed and env.peek() != float("inf"):
        env.step()
    program.mark("until_event")
    while env.peek() != float("inf"):
        env.step()
    program.mark("drained")
    assert env.events_inline == 0
    return env, program


def run_fast(spec, threshold, engage, until_t, until_proc):
    env, program = _build(spec, threshold, engage)
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


def assert_same(spec, threshold, engage, until_t, until_proc):
    ref_env, ref = run_reference(spec, threshold, engage, until_t,
                                 until_proc)
    env, fast = run_fast(spec, threshold, engage, until_t, until_proc)
    assert fast.trace == ref.trace
    assert env.events_processed == ref_env.events_processed
    assert env._eid == ref_env._eid
    return env, fast


#: Hand-written corners, each run under every ``run`` setting below.
CORNERS = {
    # The firer yields the signal it fired while another process already
    # waits on it: the event is the heap head at ``now`` but has a
    # second callback, so it must not run inline.
    "fire_then_join_waiters": [[("wait", 0)],
                               [("timeout", 1.0), ("fire", 0, True)]],
    # Two processes wake at the same time and both take one resource: the
    # first one's acquire sees the second's timeout due at ``now``.
    "same_time_acquire": [[("timeout", 1.0), ("acquire", 0, 0, 1.0)],
                          [("timeout", 1.0), ("acquire", 0, 0, 1.0)]],
    # An URGENT init between the request and its yield.
    "spawn_between": [[("spawn_between", 0, 0, 0.0), ("acquire", 0, 0, 0.0)]],
    # Interrupted while queued for the resource, with a priority waiter.
    "interrupt_waiting": [[("acquire", 0, 0, 2.5)],
                          [("acquire", 0, 1, 1.0)],
                          [("timeout", 1.0), ("interrupt", 1),
                           ("acquire", 0, 2, 0.0)]],
    # A cancelled request under a zero-delay AllOf.
    "cancel_all_of": [[("cancel", 0, 1, 0.25), ("all_of", (0.0, 0.0))],
                      [("acquire", 0, 0, 1.0), ("all_of", (0.0, 1.0))]],
}


class TestRunMatchesStep:
    @given(programs(), st.sampled_from([None, 2]), st.booleans(),
           st.sampled_from([0.0, 0.25, 1.0, 3.0]), st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_random_program(self, spec, threshold, engage, until_t,
                            until_proc):
        assert_same(spec, threshold, engage, until_t, until_proc)

    @pytest.mark.parametrize("name", sorted(CORNERS))
    @pytest.mark.parametrize("until_t", [0.0, 1.0])
    @pytest.mark.parametrize("threshold,engage", [(None, False), (2, True)])
    def test_corner(self, name, until_t, threshold, engage):
        spec = CORNERS[name]
        for until_proc in range(len(spec)):
            assert_same(spec, threshold, engage, until_t, until_proc)

    @pytest.mark.parametrize("seed", range(3))
    def test_large_program_with_periodic_calendar_checks(self, seed):
        # Enough events for the loops' every-2048 load check to engage
        # the calendar on its own.
        spec = random_program(random.Random(seed), nprocs=200, nops=30)
        env, fast = assert_same(spec, 2, False, 1.0, seed)
        assert fast.calendar_seen
        assert env.events_inline > 0


class TestInlineFires:
    def test_idle_resource_grants_inline(self):
        env = Environment()
        res = Resource(env)

        def user(env):
            grant = res.acquire()
            assert grant.processed
            try:
                yield grant
                yield env.timeout(1)
            finally:
                res.release(grant)

        env.process(user(env))
        env.run()
        assert env.events_inline == 1
        assert res.count == 0 and env.now == 1

    def test_contended_acquire_is_a_request(self):
        env = Environment()
        res = Resource(env)
        grants = []

        def user(env):
            grant = res.acquire()
            grants.append(grant)
            try:
                yield grant
                yield env.timeout(1)
            finally:
                res.release(grant)

        env.process(user(env))
        env.process(user(env))
        env.run()
        # The first init's sole callback is the first user, but the second
        # init is still due at ``now``: no inline grant for either.
        assert [g.processed for g in grants] == [True, True]
        assert grants[0] is not res._granted
        assert env.now == 2

    def test_zero_delay_timeout_runs_inline(self):
        env = Environment()

        def ticker(env):
            for _ in range(3):
                yield env.timeout(0)

        env.process(ticker(env))
        env.run()
        assert env.events_processed == 5  # init, 3 timeouts, process end
        assert env.events_inline == 3

    def test_second_callback_blocks_inline(self):
        env = Environment()
        seen = []

        def waiter(env, ev):
            yield ev
            seen.append(env.now)

        def firer(env, ev):
            ev.succeed()
            yield ev

        ev = env.event()
        env.process(waiter(env, ev))
        env.process(firer(env, ev))
        env.run()
        assert seen == [0.0]
        assert env.events_inline == 0

    def test_step_never_dispatches_inline(self):
        env = Environment()
        res = Resource(env)

        def user(env):
            grant = res.acquire()
            assert not grant.processed
            yield grant
            res.release(grant)
            yield env.timeout(0)

        env.process(user(env))
        while env.peek() != float("inf"):
            env.step()
        assert env.events_processed == 4
        assert env.events_inline == 0
