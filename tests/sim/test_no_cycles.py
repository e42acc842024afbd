"""A finished simulation leaves no reference cycles behind.

Everything the engine builds per event (heap entries, grants, resumed
generators) must be freed by reference counting alone.  A cycle — a
process holding a bound method of itself, an environment holding a
partial of itself — would leave every finished run's object graph to the
cyclic collector, which shows up as peak memory on large runs.
"""

import gc

import numpy as np

from repro.net import BlockDataMsg, Channel, Compressor, ControlMsg, Link
from repro.sim import Environment, Spindle
from repro.storage import GenerationClock, PhysicalDisk
from repro.vm import Domain, GuestMemory, Host


def _simulate():
    env = Environment()
    clock = GenerationClock()
    host = Host(env, "h0", PhysicalDisk(env), clock)
    vbd = host.prepare_vbd(1_000)
    domain = Domain(env, GuestMemory(64, clock=clock), name="vm")
    host.attach_domain(domain, vbd)
    lock = Spindle(env)

    def guest(env, first):
        for i in range(20):
            io = domain.write if i % 3 else domain.read
            yield from io((first + 7 * i) % 1_000, 2)
            yield env.timeout(0.001)

    def contender(env, hold):
        for _ in range(10):
            grant = lock.acquire()
            try:
                yield grant
                yield env.timeout(hold)
            finally:
                lock.release(grant)
            # A migration-style read through the same spindle.
            yield from host.disk.io(4096, is_write=False)

    # Channel deliveries: a launch callback, then a landing timeout's.
    chan = Channel(env, Link(env, latency=0.001), compressor=Compressor())
    msgs = [BlockDataMsg(np.arange(4), np.arange(4)) if i % 2
            else ControlMsg(f"m{i}") for i in range(12)]

    def sender(env):
        for msg in msgs:
            yield from chan.send(msg, category="disk")

    def receiver(env):
        for msg in msgs:
            assert (yield chan.recv()) is msg

    procs = [env.process(guest(env, first)) for first in (0, 500)]
    procs += [env.process(contender(env, hold))
              for hold in (0.002, 0.0, 0.003)]
    procs += [env.process(sender(env)), env.process(receiver(env))]
    env.run()
    assert all(not proc.is_alive for proc in procs)
    assert vbd.nblocks == 1_000 and env.events_inline > 0
    assert chan.bytes_saved > 0 and chan.pending == 0
    # Host and Domain point at each other while attached, by design.
    host.detach_domain(domain.domain_id)


def test_finished_run_leaves_no_cycles():
    gc.collect()
    gc.disable()
    try:
        _simulate()
        assert gc.collect() == 0
    finally:
        gc.enable()
