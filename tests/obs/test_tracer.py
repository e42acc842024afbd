"""Tracer unit tests: span nesting, lifecycle, and the null path."""

import pytest

from repro.obs import NULL_TRACER, Tracer, install
from repro.sim import Environment


@pytest.fixture
def tracer(env):
    return Tracer(env)


class TestSpanNesting:
    def test_parent_is_innermost_open_span(self, env, tracer):
        root = tracer.begin("migration:vm", category="migration")
        phase = tracer.begin("phase:precopy-disk", category="phase")
        chunk = tracer.begin("chunk", category="transfer")
        assert root.parent is None
        assert phase.parent == root.sid
        assert chunk.parent == phase.sid

    def test_sibling_after_close(self, env, tracer):
        root = tracer.begin("migration:vm")
        first = tracer.begin("phase:init", category="phase")
        tracer.end(first)
        second = tracer.begin("phase:precopy-disk", category="phase")
        assert second.parent == root.sid  # not `first`

    def test_walk_depths(self, env, tracer):
        tracer.begin("a")
        tracer.begin("b")
        tracer.end(tracer.begin("c"))
        depths = {s.name: d for d, s in tracer.walk()}
        assert depths == {"a": 0, "b": 1, "c": 2}

    def test_sids_unique_and_ordered(self, env, tracer):
        spans = [tracer.begin(f"s{i}") for i in range(5)]
        sids = [s.sid for s in spans]
        assert sids == sorted(sids) and len(set(sids)) == 5


class TestSpanLifecycle:
    def test_duration_uses_simulated_clock(self, env, tracer):
        span = tracer.begin("work")

        def proc(env):
            yield env.timeout(2.5)

        env.run(until=env.process(proc(env)))
        tracer.end(span)
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration == 2.5

    def test_open_span_duration_zero(self, env, tracer):
        span = tracer.begin("open")
        assert span.open and span.duration == 0.0

    def test_end_is_idempotent(self, env, tracer):
        span = tracer.begin("once")
        tracer.end(span)
        first_end = span.end
        tracer.end(span)
        assert span.end == first_end

    def test_end_at_override(self, env, tracer):
        span = tracer.begin("postcopy")

        def proc(env):
            yield env.timeout(4.0)

        env.run(until=env.process(proc(env)))
        tracer.end(span, at=3.0)
        assert span.end == 3.0 and env.now == 4.0

    def test_end_attaches_args(self, env, tracer):
        span = tracer.begin("phase:freeze", category="phase")
        tracer.end(span, final_dirty_pages=7)
        assert span.args["final_dirty_pages"] == 7

    def test_context_manager_closes_and_annotates_errors(self, env, tracer):
        with tracer.span("ok") as s:
            pass
        assert not s.open and "error" not in s.args

        with pytest.raises(RuntimeError):
            with tracer.span("boom") as s:
                raise RuntimeError("kaput")
        assert not s.open and s.args["error"] == "kaput"

    def test_close_open_innermost_first(self, env, tracer):
        a = tracer.begin("a")
        b = tracer.begin("b")
        tracer.close_open(aborted=True)
        assert not tracer.open_spans
        assert a.args["aborted"] and b.args["aborted"]

    def test_find_by_name_and_category(self, env, tracer):
        tracer.begin("phase:init", category="phase")
        tracer.begin("phase:freeze", category="phase")
        tracer.begin("chunk", category="transfer")
        assert len(tracer.find(category="phase")) == 2
        assert len(tracer.find(name="phase:freeze")) == 1
        assert tracer.find(name="nope") == []


class TestInstants:
    def test_instant_records_time_and_args(self, env, tracer):
        def proc(env):
            yield env.timeout(1.25)
            tracer.instant("suspend", category="freeze", note=1)

        env.run(until=env.process(proc(env)))
        (inst,) = tracer.instants
        assert inst.at == 1.25
        assert inst.category == "freeze"
        assert inst.args == {"note": 1}

    def test_len_counts_spans_and_instants(self, env, tracer):
        tracer.begin("a")
        tracer.instant("x")
        assert len(tracer) == 2


class TestNullTracer:
    def test_records_nothing(self, env):
        t = NULL_TRACER
        span = t.begin("migration:vm", category="migration", key="v")
        t.end(span, more="args")
        t.instant("suspend", category="freeze")
        with t.span("ctx") as s:
            s.note(ignored=True)
        t.close_open()
        assert len(t) == 0
        assert t.spans == [] and t.instants == []
        assert t.find() == [] and list(t.walk()) == []
        assert t.open_spans == []
        assert not t.enabled

    def test_null_span_is_inert(self):
        span = NULL_TRACER.begin("x")
        assert span.duration == 0.0 and not span.open
        assert span.note(a=1) is span and span.args == {}

    def test_environment_defaults_to_null(self):
        env = Environment()
        assert not env.tracer.enabled
        assert not env.metrics.enabled

    def test_install_is_idempotent(self):
        env = Environment()
        tracer, metrics = install(env)
        assert tracer.enabled and metrics.enabled
        again_t, again_m = install(env)
        assert again_t is tracer and again_m is metrics
