"""Shared fixtures: miniature two-machine testbeds that run in milliseconds."""

import numpy as np
import pytest

from repro.core import MigrationConfig, Migrator
from repro.net import Channel, Link
from repro.sim import Environment
from repro.storage import GenerationClock, PhysicalDisk
from repro.units import MB, MiB
from repro.vm import Domain, GuestMemory, Host


SMALL_NBLOCKS = 2_000     # ~8 MiB disk
SMALL_NPAGES = 512        # 2 MiB memory


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def small_config():
    """Config tuned so small testbeds converge in a handful of iterations."""
    return MigrationConfig(
        chunk_blocks=128,
        disk_dirty_threshold_blocks=16,
        mem_dirty_threshold_pages=16,
        mem_chunk_pages=128,
    )


class MiniBed:
    """A tiny source/destination pair with one domain, for unit tests."""

    def __init__(self, env, nblocks=SMALL_NBLOCKS, npages=SMALL_NPAGES,
                 config=None, data=False, prefill=True,
                 disk_bw=100 * MiB, link_bw=125 * MB, latency=50e-6):
        self.env = env
        self.clock = GenerationClock()
        # Zero freeze overhead: at this tiny scale the fixed hypervisor
        # costs would dominate every duration assertion.
        self.config = config if config is not None else MigrationConfig(
            chunk_blocks=128, disk_dirty_threshold_blocks=16,
            mem_dirty_threshold_pages=16, mem_chunk_pages=128,
            suspend_overhead=0.0, resume_overhead=0.0)
        self.source = Host(env, "source",
                           PhysicalDisk(env, disk_bw, disk_bw, 0.1e-3),
                           self.clock)
        self.destination = Host(env, "destination",
                                PhysicalDisk(env, disk_bw, disk_bw, 0.1e-3),
                                self.clock)
        self.vbd = self.source.prepare_vbd(nblocks, data=data)
        if prefill:
            self.vbd.write(0, nblocks)
        self.domain = Domain(env, GuestMemory(npages, clock=self.clock),
                             name="vm")
        self.source.attach_domain(self.domain, self.vbd)
        self.migrator = Migrator(env, self.config)
        self.migrator.connect(self.source, self.destination,
                              bandwidth=link_bw, latency=latency)

    def channels(self, name="test"):
        """A fresh (fwd, rev) channel pair over the configured link."""
        fwd_link, rev_link = self.migrator.link_between(self.source,
                                                        self.destination)
        return (Channel(self.env, fwd_link, name=f"{name}:fwd"),
                Channel(self.env, rev_link, name=f"{name}:rev"))

    def random_writer(self, region=(0, 500), interval=0.005, nblocks=2,
                      seed=1, touch_pages=4):
        """A background guest process writing random blocks forever."""
        rng = np.random.default_rng(seed)
        domain = self.domain

        def proc(env):
            while True:
                yield from domain.ensure_running()
                block = int(rng.integers(region[0], region[0] + region[1]))
                yield from domain.write(block, nblocks)
                if touch_pages:
                    yield from domain.ensure_running()
                    domain.touch_memory(
                        rng.integers(0, domain.memory.npages,
                                     size=touch_pages))
                yield env.timeout(interval)

        return self.env.process(proc(self.env), name="writer")

    def migrate(self, config=None):
        proc = self.migrator.migrate_process(
            self.domain,
            self.destination if self.domain.host is self.source
            else self.source,
            config)
        return self.env.run(until=proc)


@pytest.fixture
def bed(env):
    return MiniBed(env)


@pytest.fixture
def make_bed():
    """Factory producing independent mini testbeds (fresh Environment each)."""

    def factory(**kwargs):
        return MiniBed(Environment(), **kwargs)

    return factory


@pytest.fixture
def byte_bed(env):
    """Byte-backed mini testbed for end-to-end content integrity checks."""
    return MiniBed(env, nblocks=256, npages=64, data=True)
