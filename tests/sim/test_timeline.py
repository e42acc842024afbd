"""Unit tests for the Timeline recorder."""

import numpy as np
import pytest

from repro.sim import Environment, Timeline


@pytest.fixture
def env():
    return Environment()


class TestTimeline:
    def test_record_and_series(self, env):
        tl = Timeline(env)

        def proc(env):
            tl.record("x", 1.0)
            yield env.timeout(2)
            tl.record("x", 3.0)

        env.process(proc(env))
        env.run()
        times, values = tl.series("x")
        assert times.tolist() == [0.0, 2.0]
        assert values.tolist() == [1.0, 3.0]

    def test_unknown_series_is_empty(self, env):
        tl = Timeline(env)
        times, values = tl.series("nope")
        assert times.size == 0 and values.size == 0

    def test_total(self, env):
        tl = Timeline(env)
        tl.record_at("x", 0.0, 5.0)
        tl.record_at("x", 1.0, 7.0)
        assert tl.total("x") == 12.0
        assert tl.total("missing") == 0.0

    def test_windowed_rate(self, env):
        tl = Timeline(env)
        # 10 bytes at t=0.5, 30 bytes at t=1.5 -> rates 10/s then 30/s
        tl.record_at("bytes", 0.5, 10)
        tl.record_at("bytes", 1.5, 30)
        centres, rate = tl.windowed_rate("bytes", window=1.0, t_end=2.0)
        assert np.allclose(centres, [0.5, 1.5])
        assert np.allclose(rate, [10.0, 30.0])

    def test_windowed_rate_rejects_bad_window(self, env):
        tl = Timeline(env)
        with pytest.raises(ValueError):
            tl.windowed_rate("x", window=0)

    def test_series_names_sorted(self, env):
        tl = Timeline(env)
        tl.record_at("zebra", 0, 1)
        tl.record_at("apple", 0, 1)
        assert tl.series_names == ["apple", "zebra"]
