"""Unit tests for the iterative memory pre-copier."""

import numpy as np
import pytest

from repro.core import MemoryPreCopier, MigrationConfig, PageStreamer
from repro.core.memcopy import MAX_MEM_ROUNDS
from repro.net import Channel, Link
from repro.sim import Environment
from repro.storage import GenerationClock
from repro.units import MB
from repro.vm import GuestMemory


@pytest.fixture
def env():
    return Environment()


def run_memcopy(env, npages=512, dirty_proc=None, config=None):
    clock = GenerationClock()
    src = GuestMemory(npages, clock=clock)
    dst = GuestMemory(npages, clock=clock)
    src.touch(np.arange(npages))
    chan = Channel(env, Link(env, 125 * MB, 0))
    cfg = config if config is not None else MigrationConfig(
        mem_chunk_pages=64, mem_dirty_threshold_pages=8)
    copier = MemoryPreCopier(env, src, PageStreamer(env, src, dst, chan, cfg),
                             cfg)
    if dirty_proc is not None:
        env.process(dirty_proc(env, src))

    def proc(env):
        return (yield from copier.run())

    rounds = env.run(until=env.process(proc(env)))
    return rounds, src, dst


class TestQuietMemory:
    def test_one_round_when_idle(self, env):
        rounds, src, dst = run_memcopy(env)
        assert len(rounds) == 1
        assert rounds[0].units_sent == 512
        assert rounds[0].dirty_at_end == 0
        assert dst.identical_to(src)

    def test_logging_left_enabled(self, env):
        _, src, _ = run_memcopy(env)
        assert src.logging  # harvested later by freeze-and-copy


class TestDirtyMemory:
    def test_rounds_shrink_with_bounded_wss(self, env):
        rng = np.random.default_rng(0)

        def dirtier(env, mem):
            while True:
                mem.touch(rng.integers(0, 64, size=4))  # small hot set
                yield env.timeout(0.001)

        rounds, src, dst = run_memcopy(env, dirty_proc=dirtier)
        assert len(rounds) >= 2
        assert rounds[-1].units_sent <= rounds[0].units_sent
        # Residual dirty set stays near the WSS, handed to freeze-and-copy.
        assert src.dirty_count() <= 64 + 8

    def test_round_cap(self, env):
        """A dirtier just slower than the link shrinks every round a
        little, so neither the threshold nor the convergence check ever
        fires: the 30-round cap is what ends the pre-copy."""
        def dirtier(env, mem):
            page = 0
            while True:
                mem.touch(np.array([page % 512]))  # a fresh page each tick
                page += 1
                yield env.timeout(3.5e-5)

        cfg = MigrationConfig(mem_chunk_pages=64, mem_dirty_threshold_pages=1)
        rounds, _, _ = run_memcopy(env, dirty_proc=dirtier, config=cfg)
        assert MAX_MEM_ROUNDS == 30
        assert len(rounds) == MAX_MEM_ROUNDS
        last = rounds[-1]
        assert cfg.mem_dirty_threshold_pages < last.dirty_at_end < last.units_sent

    def test_nonconvergence_stops_early(self, env):
        rng = np.random.default_rng(0)

        def dirtier(env, mem):
            while True:
                mem.touch(rng.integers(0, 512, size=128))
                yield env.timeout(0.0002)

        cfg = MigrationConfig(mem_chunk_pages=64, mem_dirty_threshold_pages=1)
        rounds, _, _ = run_memcopy(env, dirty_proc=dirtier, config=cfg)
        # Dirtying outruns sending: must bail long before the cap.
        assert len(rounds) < MAX_MEM_ROUNDS
