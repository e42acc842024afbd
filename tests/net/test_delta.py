"""Unit and integration tests for the XBZRLE-style delta cache."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net import BlockDataMsg, DeltaCache
from repro.net.delta import UNIT_LOCATOR_NBYTES
from repro.sim import Environment
from repro.units import KiB, MiB

BLOCK = 4 * KiB


@pytest.fixture
def env():
    return Environment()


def encode(env, cache, indices, stamps=None):
    """Run one encode() to completion; returns the stamped message."""
    indices = np.asarray(indices, dtype=np.int64)
    if stamps is None:
        stamps = np.ones_like(indices)
    msg = BlockDataMsg(indices, np.asarray(stamps), block_size=BLOCK)

    def proc(env):
        yield from cache.encode(env, msg)

    env.run(until=env.process(proc(env)))
    return msg


class TestDeltaCache:
    def test_capacity_from_bytes(self):
        cache = DeltaCache(1 * MiB, BLOCK)
        assert cache.capacity_units == 256
        # Degenerate budgets still hold at least one entry.
        assert DeltaCache(1, BLOCK).capacity_units == 1

    def test_invalid_parameters(self):
        with pytest.raises(NetworkError):
            DeltaCache(0, BLOCK)
        with pytest.raises(NetworkError):
            DeltaCache(1 * MiB, 0)
        with pytest.raises(NetworkError):
            DeltaCache(1 * MiB, BLOCK, delta_ratio=0.5)
        with pytest.raises(NetworkError):
            DeltaCache(1 * MiB, BLOCK, encode_throughput=0)

    def test_first_send_is_all_misses_at_full_size(self, env):
        cache = DeltaCache(1 * MiB, BLOCK)
        msg = encode(env, cache, np.arange(10))
        assert cache.misses == 10 and cache.hits == 0
        assert msg.encoded_nbytes == 10 * (BLOCK + UNIT_LOCATOR_NBYTES)
        assert msg.payload_nbytes == msg.encoded_nbytes
        assert cache.bytes_saved == 0
        # No hits -> the encoder scanned nothing -> no simulated time.
        assert env.now == 0.0

    def test_resend_hits_and_shrinks(self, env):
        cache = DeltaCache(1 * MiB, BLOCK, delta_ratio=8.0)
        encode(env, cache, np.arange(10))
        msg = encode(env, cache, np.arange(10), stamps=np.full(10, 2))
        assert cache.hits == 10
        delta_unit = BLOCK // 8
        assert msg.encoded_nbytes == 10 * (delta_unit + UNIT_LOCATOR_NBYTES)
        assert cache.bytes_saved == 10 * (BLOCK - delta_unit)
        assert env.now > 0.0  # hit units charge encoder CPU

    def test_lru_eviction_falls_back_to_full_send(self, env):
        # Capacity of 4 units; a working set of 8 thrashes it completely.
        cache = DeltaCache(4 * BLOCK, BLOCK)
        encode(env, cache, np.arange(8))
        assert cache.evictions == 4
        assert len(cache) == 4
        # Blocks 0..3 were evicted: re-sending them misses (full size)...
        msg = encode(env, cache, np.arange(4))
        assert cache.hits == 0
        assert msg.encoded_nbytes == 4 * (BLOCK + UNIT_LOCATOR_NBYTES)

    def test_lru_recency_order(self, env):
        cache = DeltaCache(2 * BLOCK, BLOCK)
        encode(env, cache, [1])
        encode(env, cache, [2])
        encode(env, cache, [1])  # refresh 1: now 2 is the coldest
        encode(env, cache, [3])  # evicts 2
        assert cache.hits == 1
        msg = encode(env, cache, [1])
        assert msg.encoded_nbytes < BLOCK  # 1 survived
        msg = encode(env, cache, [2])
        assert msg.encoded_nbytes > BLOCK  # 2 did not

    def test_summary_is_json_friendly(self, env):
        import json

        cache = DeltaCache(1 * MiB, BLOCK)
        encode(env, cache, np.arange(4))
        encode(env, cache, np.arange(4))
        doc = json.loads(json.dumps(cache.summary()))
        assert doc["hits"] == 4 and doc["misses"] == 4
        assert doc["bytes_saved"] > 0


class ReferenceLRU:
    """The cache as a plain ``OrderedDict`` LRU, one unit at a time: the
    behaviour the array-backed :class:`DeltaCache` must reproduce."""

    def __init__(self, capacity_nbytes, unit_nbytes):
        self.unit_nbytes = unit_nbytes
        self.capacity_units = max(int(capacity_nbytes) // unit_nbytes, 1)
        self.delta_unit_nbytes = max(int(unit_nbytes / 8.0), 1)
        self.encode_throughput = 800 * MiB
        self.lru = OrderedDict()
        self.hits = self.misses = self.evictions = self.bytes_saved = 0

    def __len__(self):
        return len(self.lru)

    def encode(self, env, msg):
        hits = 0
        for index in np.asarray(msg.indices).tolist():
            if index in self.lru:
                hits += 1
                self.lru.move_to_end(index)
            else:
                self.lru[index] = None
                if len(self.lru) > self.capacity_units:
                    self.lru.popitem(last=False)
                    self.evictions += 1
        misses = len(msg.indices) - hits
        encoded = (hits * (self.delta_unit_nbytes + UNIT_LOCATOR_NBYTES)
                   + misses * (self.unit_nbytes + UNIT_LOCATOR_NBYTES))
        self.bytes_saved += msg.payload_nbytes - encoded
        msg.encoded_nbytes = encoded
        self.hits += hits
        self.misses += misses
        if hits:
            yield env.timeout(
                hits * self.unit_nbytes / self.encode_throughput)


def message_stream(universe, max_len):
    """Messages of unit indices below ``universe``: duplicates allowed,
    each message sorted or left in drawn order."""
    message = st.tuples(
        st.lists(st.integers(0, universe - 1), max_size=max_len),
        st.booleans()).map(lambda drawn: sorted(drawn[0]) if drawn[1]
                           else drawn[0])
    return st.lists(message, min_size=1, max_size=40)


@st.composite
def cache_and_stream(draw):
    capacity = draw(st.integers(1, 24))
    # A universe far above capacity makes the working set thrash; a
    # large sparse one makes the recency arrays grow mid-stream.
    universe = draw(st.sampled_from((1, 4, capacity + 1, 4 * capacity,
                                     64, 5000)))
    return capacity, draw(message_stream(universe, 3 * capacity + 4))


def assert_matches_reference(capacity, stream):
    cache = DeltaCache(capacity * BLOCK, BLOCK)
    ref = ReferenceLRU(capacity * BLOCK, BLOCK)
    env, ref_env = Environment(), Environment()
    for step, indices in enumerate(stream):
        msg = encode(env, cache, indices)
        ref_msg = encode(ref_env, ref, indices)
        got = (msg.encoded_nbytes, cache.hits, cache.misses,
               cache.evictions, cache.bytes_saved, len(cache), env.now)
        want = (ref_msg.encoded_nbytes, ref.hits, ref.misses,
                ref.evictions, ref.bytes_saved, len(ref), ref_env.now)
        assert got == want, f"message {step} {indices}: {got} != {want}"


class TestAgainstReferenceLRU:
    @settings(max_examples=300, deadline=None)
    @given(cache_and_stream())
    # Capacity 1: every miss evicts the previous unit.
    @example((1, [[0, 1, 0], [1], [1, 1, 2]]))
    # Unit 0 is evicted by 2 and re-sent later in the same message.
    @example((2, [[0, 1], [2, 0, 1]]))
    @example((2, [[0, 1, 2, 0, 3, 0]]))
    # Duplicates within one message hit on their second occurrence.
    @example((4, [[5, 5, 5], [5, 6, 6, 7]]))
    def test_matches_ordered_dict_lru(self, case):
        assert_matches_reference(*case)

    def test_thrashing_sorted_stream(self):
        rng = np.random.default_rng(7)
        stream = [np.sort(rng.choice(400, 48, replace=False)).tolist()
                  for _ in range(200)]
        assert_matches_reference(32, stream)

    def test_fits_then_overflows(self):
        # Bulk all-fits sends, then messages whose misses overflow the
        # free room, then a message larger than the cache itself.
        stream = [list(range(0, 8)), list(range(8, 12)), list(range(4, 20)),
                  list(range(100, 140)), list(range(130, 90, -1))]
        assert_matches_reference(16, stream)


class TestDeltaMigration:
    def test_rewrite_heavy_migration_ships_fewer_bytes(self, make_bed):
        """A guest re-dirtying a small region makes later iterations all
        cache hits, so the delta run moves measurably less wire data."""
        reports = {}
        for label, mb in (("plain", 0.0), ("delta", 8.0)):
            bed = make_bed()
            bed.random_writer(region=(0, 200), interval=5e-4, nblocks=4)
            report = bed.migrate(bed.config.replace(delta_cache_mb=mb))
            assert report.consistency_verified
            reports[label] = report
        assert (reports["delta"].migrated_bytes
                < reports["plain"].migrated_bytes)
        stats = reports["delta"].extra["delta_disk"]
        assert stats["hits"] > 0 and stats["bytes_saved"] > 0
        assert "delta_disk" not in reports["plain"].extra

    def test_byte_mode_content_survives_delta(self, make_bed):
        """Delta encoding changes charged wire bytes only — the simulated
        content still lands whole at the destination."""
        bed = make_bed(nblocks=256, npages=64, data=True)
        report = bed.migrate(bed.config.replace(delta_cache_mb=4.0))
        assert report.consistency_verified

    def test_off_by_default(self, make_bed):
        report = make_bed().migrate()
        assert "delta_disk" not in report.extra
        assert "delta_mem" not in report.extra
