"""A finished simulation leaves no reference cycles behind.

Everything the engine builds per event (heap entries, grants, resumed
generators) must be freed by reference counting alone.  A cycle — a
process holding a bound method of itself, an environment holding a
partial of itself — would leave every finished run's object graph to the
cyclic collector, which shows up as peak memory on large runs.
"""

import gc

from repro.sim import Environment, Resource
from repro.storage import GenerationClock, PhysicalDisk
from repro.storage.block import IOKind
from repro.vm import Domain, GuestMemory, Host


def _simulate():
    env = Environment()
    clock = GenerationClock()
    host = Host(env, "h0", PhysicalDisk(env), clock)
    vbd = host.prepare_vbd(1_000)
    domain = Domain(env, GuestMemory(64, clock=clock), name="vm")
    host.attach_domain(domain, vbd)
    lock = Resource(env, capacity=1)

    def guest(env, first):
        for i in range(20):
            kind = IOKind.WRITE if i % 3 else IOKind.READ
            yield from domain.io(kind, (first + 7 * i) % 1_000, 2)
            yield env.timeout(0.001)

    def contender(env, prio):
        for _ in range(10):
            grant = lock.acquire(prio)
            try:
                yield grant
                yield env.timeout(0.002)
            finally:
                lock.release(grant)
            # A migration-style read through the same spindle.
            yield from host.disk.io(4096, is_write=False, priority=1)

    procs = [env.process(guest(env, first)) for first in (0, 500)]
    procs += [env.process(contender(env, prio)) for prio in (0, 1, 2)]
    env.run()
    assert all(not proc.is_alive for proc in procs)
    assert vbd.nblocks == 1_000 and env.events_inline > 0
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
