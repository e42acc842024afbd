"""MetricsRegistry unit tests: instruments, sample columns, and the null
path."""

import pytest

from repro.obs import MetricsRegistry, NULL_METRICS
from repro.sim import Environment


@pytest.fixture
def registry(env):
    return MetricsRegistry(env)


def advance(env, dt):
    def proc(env):
        yield env.timeout(dt)

    env.run(until=env.process(proc(env)))


class TestCounter:
    def test_accumulates_and_samples(self, env, registry):
        c = registry.counter("bytes")
        c.inc(100)
        advance(env, 1.0)
        c.inc(50)
        assert c.total == 150
        assert c.samples == [(0.0, 100.0), (1.0, 150.0)]
        assert c.times.tolist() == [0.0, 1.0]
        assert c.values.tolist() == [100.0, 150.0]

    def test_same_name_same_instrument(self, env, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_rejects_decrease(self, env, registry):
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)


class TestGauge:
    def test_last_write_wins(self, env, registry):
        g = registry.gauge("dirty")
        g.set(10)
        g.set(3)
        assert g.value == 3.0

    def test_kind_collision_raises(self, env, registry):
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")


class TestHistogram:
    def test_stats(self, env, registry):
        h = registry.histogram("stall")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3 and h.sum == 6.0
        assert h.min == 1.0 and h.max == 3.0 and h.mean == 2.0
        assert h.percentile(0.0) == 1.0
        assert h.percentile(1.0) == 3.0

    def test_empty_percentile_and_summary(self, env, registry):
        h = registry.histogram("stall")
        assert h.percentile(0.5) == 0.0
        assert h.summary()["min"] == 0.0 and h.summary()["max"] == 0.0

    def test_percentile_domain(self, env, registry):
        h = registry.histogram("stall")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(1.5)


class TestRegistry:
    def test_names_prefix_sorted(self, env, registry):
        registry.counter("chan.disk.bytes")
        registry.counter("chan.memory.bytes")
        registry.gauge("precopy.dirty_blocks")
        assert registry.names("chan.") == ["chan.disk.bytes",
                                           "chan.memory.bytes"]
        assert len(registry) == 3
        assert "chan.disk.bytes" in registry
        assert registry.get("nope") is None

    def test_snapshot(self, env, registry):
        registry.counter("c").inc(5)
        registry.gauge("g").set(2)
        snap = registry.snapshot()
        assert snap["c"] == {"kind": "counter", "samples": 1, "total": 5.0}
        assert snap["g"]["value"] == 2.0


class TestNullMetrics:
    def test_records_nothing(self):
        m = NULL_METRICS
        m.counter("x").inc(10)
        m.gauge("y").set(5)
        m.histogram("z").observe(1.0)
        assert len(m) == 0
        assert m.names() == [] and m.snapshot() == {}
        assert m.get("x") is None and "x" not in m
        assert not m.enabled

    def test_null_instrument_is_inert(self):
        inst = NULL_METRICS.counter("x")
        assert inst.total == 0.0 and inst.samples == []
        assert inst.percentile(0.5) == 0.0
        assert inst.summary() == {}

    def test_fresh_environment_uses_null_metrics(self):
        env = Environment()
        env.metrics.counter("free").inc(1)
        assert len(env.metrics) == 0
