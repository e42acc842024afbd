"""ShardedEngine: conservative windows, messaging, the fast path."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, ShardedEngine


def make_engine(nshards=2, lookahead=0.1):
    engine = ShardedEngine(lookahead=lookahead)
    shards = [engine.add_shard(f"rack{i}") for i in range(nshards)]
    return engine, shards


class TestConstruction:
    def test_lookahead_must_be_positive(self):
        with pytest.raises(SimulationError):
            ShardedEngine(lookahead=0.0)
        with pytest.raises(SimulationError):
            ShardedEngine(lookahead=-1.0)

    def test_duplicate_shard_name_rejected(self):
        engine, _ = make_engine()
        with pytest.raises(SimulationError):
            engine.add_shard("rack0")

    def test_unknown_shard_lookup_raises(self):
        engine, _ = make_engine()
        with pytest.raises(SimulationError):
            engine.shard("rack9")

    def test_run_without_shards_raises(self):
        with pytest.raises(SimulationError):
            ShardedEngine(lookahead=0.1).step_window()


class TestSendContract:
    def test_send_requires_registered_source(self):
        engine, _ = make_engine()
        with pytest.raises(SimulationError):
            engine.send("rack1", 0.5, lambda env: None)

    def test_remove_source_underflow_raises(self):
        engine, _ = make_engine()
        with pytest.raises(SimulationError):
            engine.remove_source()

    def test_quiescent_tracks_sources_and_inboxes(self):
        engine, _ = make_engine()
        assert engine.quiescent
        engine.add_source()
        assert not engine.quiescent
        engine.send("rack1", 0.5, lambda env: None)
        engine.remove_source()
        # A queued message still pins the engine out of the fast path.
        assert not engine.quiescent
        engine.run(until=1.0)
        assert engine.quiescent


class TestWindows:
    def test_all_clocks_meet_at_until(self):
        engine, shards = make_engine(3)

        def ticker(env):
            while True:
                yield env.timeout(0.03)

        for shard in shards:
            shard.env.process(ticker(shard.env), name="tick")
        engine.run(until=1.0)
        assert all(shard.env.now == 1.0 for shard in shards)
        assert engine.now == 1.0

    def test_message_delivered_at_boundary_after_visibility(self):
        engine, shards = make_engine(lookahead=0.1)
        landed = []

        def sender(env):
            yield env.timeout(0.5)
            engine.send("rack1", env.now,
                        lambda dst: landed.append(dst.now))
            engine.remove_source()

        engine.add_source()
        shards[0].env.process(sender(shards[0].env), name="sender")
        engine.run(until=2.0)
        assert engine.messages_delivered == 1
        # Applied at a window boundary at or after visibility, never early.
        assert len(landed) == 1 and 0.5 <= landed[0] <= 2.0

    def test_messages_apply_in_visibility_then_send_order(self):
        engine, shards = make_engine()
        order = []
        engine.add_source()
        engine.send("rack1", 0.7, lambda env: order.append("late"))
        engine.send("rack1", 0.2, lambda env: order.append("early-a"))
        engine.send("rack1", 0.2, lambda env: order.append("early-b"))
        engine.remove_source()
        engine.run(until=1.0)
        assert order == ["early-a", "early-b", "late"]

    def test_quiescent_fast_path_runs_whole_span_in_one_window(self):
        engine, shards = make_engine()

        def ticker(env):
            while True:
                yield env.timeout(0.001)

        shards[0].env.process(ticker(shards[0].env), name="tick")
        engine.run(until=10.0)
        # 10,000 events, but no cross-shard sources: one wide window.
        assert shards[0].env.events_processed >= 10_000
        assert engine.windows == 1

    def test_conservative_windows_while_source_live(self):
        engine, shards = make_engine(lookahead=0.1)

        def ticker(env):
            while True:
                yield env.timeout(0.05)

        shards[0].env.process(ticker(shards[0].env), name="tick")
        engine.add_source()
        engine.run(until=1.0)
        engine.remove_source()
        # With a live source the engine must step in lookahead-bounded
        # windows instead of one wide pass.
        assert engine.windows > 1

    def test_step_window_returns_false_when_idle(self):
        engine, _ = make_engine()
        assert engine.step_window() is False

    def test_step_window_respects_until(self):
        engine, shards = make_engine()

        def once(env):
            yield env.timeout(5.0)

        shards[0].env.process(once(shards[0].env), name="once")
        engine.run(until=0.1)  # absorb the process-start event at t=0
        assert engine.step_window(until=1.0) is False
        assert engine.step_window(until=6.0) is True

    def test_stats_and_events_processed(self):
        engine, shards = make_engine()

        def once(env):
            yield env.timeout(0.1)

        shards[0].env.process(once(shards[0].env), name="once")
        engine.run(until=1.0)
        rack0, rack1 = engine.shards
        assert (rack0.name, rack1.name) == ("rack0", "rack1")
        assert rack0.env.events_processed == engine.events_processed
        assert rack1.env.events_processed == 0
        assert rack1.inbox == []


class TestExternalEnvironments:
    def test_accepts_prebuilt_environments(self):
        engine = ShardedEngine(lookahead=0.1)
        env = Environment()
        shard = engine.add_shard("rack0", env)
        assert shard.env is env
        assert engine.shards[0].index == 0
