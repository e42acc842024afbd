"""One activation rule for every link fault: an ``at=t`` spec and the
same spec triggered by a phase mark at ``t`` leave identical windows on
every link, whenever the link is attached; a partition without a
topology is an error under either trigger; the log holds one entry per
activated fault.  Fault state appears with a link's first window, and
traffic over links left without it runs exactly as over links carrying
an empty state."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Migrator
from repro.errors import FaultError, NetworkError
from repro.faults import FaultInjector, FaultPlan
from repro.net import DuplexLink
from repro.sim import Environment
from repro.units import MB

#: Three racks of two hosts under one core switch.
RACKS = ("rack0", "rack1", "rack2")
HOSTS = tuple(f"h{i}" for i in range(6))
EDGES = ([(host, RACKS[i // 2]) for i, host in enumerate(HOSTS)]
         + [(rack, "core") for rack in RACKS])
PHASE = "precopy-disk"


def racked_migrator(env, edges):
    migrator = Migrator(env)
    topo = migrator.topology
    for host in HOSTS:
        topo.tag(host, "host")
    for rack in RACKS:
        topo.tag(rack, "rack")
    topo.tag("core", "core")
    for a, b in edges:
        topo.connect(a, b, bandwidth=1 * MB, latency=1e-3)
    return migrator


def windows(duplex):
    """Each direction's windows; a link without fault state has none."""
    return [([], []) if link.faults is None
            else (link.faults._blackouts, link.faults._degradations)
            for link in (duplex.forward, duplex.backward)]


directions = st.sampled_from(("forward", "backward", "both"))
durations = st.floats(0.1, 5.0)

#: ``(kind, kwargs)`` for one link fault, trigger left out.
link_specs = st.one_of(
    st.tuples(st.just("blackout"), st.fixed_dictionaries(
        {"duration": durations, "direction": directions})),
    st.tuples(st.just("degrade"), st.fixed_dictionaries(
        {"duration": durations, "direction": directions,
         "bandwidth_factor": st.floats(0.1, 1.0),
         "extra_latency": st.floats(0.0, 0.01)})),
    st.tuples(st.just("partition"), st.fixed_dictionaries(
        {"isolate": st.lists(st.sampled_from(RACKS + HOSTS), min_size=1,
                             max_size=2),
         "duration": durations})),
    st.tuples(st.just("flap"), st.fixed_dictionaries(
        {"down_time": st.floats(0.1, 1.0), "up_time": st.floats(0.1, 1.0),
         "count": st.integers(1, 3),
         "link": st.none() | st.sampled_from(EDGES),
         "direction": directions})),
)


def build_plan(specs, send_timeout=0.25, **trigger):
    plan = FaultPlan(send_timeout=send_timeout)
    for kind, kwargs in specs:
        getattr(plan, kind)(**kwargs, **trigger)
    return plan


def run(specs, t, order, nearly, phase):
    """Inject with the first ``nearly`` edges of ``order`` connected,
    activate, then connect and attach the rest one by one.  Returns the
    windows of every link and the injector's log."""
    env = Environment()
    early, late = order[:nearly], order[nearly:]
    migrator = racked_migrator(env, early)
    plan = (build_plan(specs, phase=PHASE) if phase
            else build_plan(specs, at=t))
    injector = FaultInjector(env, plan).inject(migrator)
    if phase:
        injector.on_phase(PHASE, at=t)
    for a, b in late:
        duplex = migrator.topology.connect(a, b, bandwidth=1 * MB,
                                           latency=1e-3)
        injector.attach(duplex, hosts=(a, b))
    links = {key: windows(duplex)
             for key, duplex in migrator.topology.links.items()}
    return links, injector.log


@settings(max_examples=100, deadline=None)
@given(specs=st.lists(link_specs, min_size=1, max_size=4),
       t=st.floats(0.0, 10.0),
       order=st.permutations(EDGES),
       nearly=st.integers(1, len(EDGES)))
def test_at_and_phase_triggers_leave_the_same_windows(specs, t, order,
                                                      nearly):
    timed = run(specs, t, order, nearly, phase=False)
    phased = run(specs, t, order, nearly, phase=True)
    assert timed == phased


def send_traffic(specs, t, phase, send_timeout, messages, eager):
    """Send ``messages`` as ``(src, dst, at, nbytes)`` over a fully wired
    bed with ``specs`` injected.  ``eager`` also installs an empty fault
    state on every link the injector left without one.  Returns each
    message's ``(index, completion time, error)``, every link's
    ``bytes_sent`` and the event count."""
    env = Environment()
    migrator = racked_migrator(env, EDGES)
    topo = migrator.topology
    plan = (build_plan(specs, send_timeout, phase=PHASE) if phase
            else build_plan(specs, send_timeout, at=t))
    injector = FaultInjector(env, plan).inject(migrator)
    if eager:
        for duplex in topo.links.values():
            injector._state_for(duplex.forward)
            injector._state_for(duplex.backward)
        assert all(link.faults is not None for duplex in topo.links.values()
                   for link in (duplex.forward, duplex.backward))

    def mark():
        yield env.timeout(t)
        injector.on_phase(PHASE)

    outcomes = []

    def send(index, src, dst, at, nbytes):
        yield env.timeout(at)
        path, _reverse = topo.endpoints(src, dst)
        try:
            yield from path.transmit(nbytes)
            yield env.timeout(path.effective_latency)
        except NetworkError as exc:
            outcomes.append((index, env.now, str(exc)))
        else:
            outcomes.append((index, env.now, None))

    if phase:
        env.process(mark())
    for index, message in enumerate(messages):
        env.process(send(index, *message))
    env.run()
    sent = {key: (duplex.forward.bytes_sent, duplex.backward.bytes_sent)
            for key, duplex in topo.links.items()}
    return sorted(outcomes), sent, env.events_processed


#: ``(src, dst, at, nbytes)`` per message.
messages = st.lists(
    st.tuples(st.sampled_from(HOSTS), st.sampled_from(HOSTS),
              st.floats(0.0, 15.0), st.integers(1, 2 * MB)).filter(
        lambda message: message[0] != message[1]),
    min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(specs=st.lists(link_specs, min_size=1, max_size=4),
       t=st.floats(0.0, 10.0), phase=st.booleans(),
       send_timeout=st.floats(0.25, 3.0), traffic=messages)
def test_lazy_fault_state_sends_like_eager(specs, t, phase, send_timeout,
                                           traffic):
    lazy = send_traffic(specs, t, phase, send_timeout, traffic, eager=False)
    eager = send_traffic(specs, t, phase, send_timeout, traffic, eager=True)
    assert lazy == eager


def test_untouched_links_keep_no_fault_state():
    env = Environment()
    migrator = racked_migrator(env, EDGES)
    plan = (FaultPlan().flap(down_time=0.1, link=("h0", "rack0"), at=1.0)
            .degrade(duration=1.0, at=1.0, direction="forward"))
    FaultInjector(env, plan).inject(migrator)
    hooked = {(key, tag) for key, duplex in migrator.topology.links.items()
              for link, tag in ((duplex.forward, "fwd"),
                                (duplex.backward, "rev"))
              if link.faults is not None}
    assert hooked == ({(edge, "fwd") for edge in EDGES}
                      | {(("h0", "rack0"), "rev")})


def test_partition_offset_delays_the_cut():
    env = Environment()
    migrator = racked_migrator(env, EDGES)
    plan = FaultPlan().partition(["rack2"], duration=1.0, phase=PHASE,
                                 offset=2.0)
    FaultInjector(env, plan).inject(migrator).on_phase(PHASE, at=0.0)
    cut = migrator.topology.links[("rack2", "core")]
    assert cut.forward.faults.blackout_until(1.0) is None
    assert cut.forward.faults.blackout_until(2.5) == pytest.approx(3.0)


class TestPartitionNeedsTopology:
    @pytest.mark.parametrize("trigger", [{"at": 1.0}, {"phase": PHASE}])
    def test_bare_attach_partition_raises(self, trigger):
        env = Environment()
        plan = FaultPlan().partition(["rack1"], duration=1.0, **trigger)
        with pytest.raises(FaultError, match="need a topology"):
            injector = FaultInjector(env, plan)
            injector.attach(DuplexLink(env, 1 * MB, 0.0))
            injector.on_phase(PHASE)


class TestLog:
    @pytest.mark.parametrize("phase", [False, True])
    def test_one_entry_per_activated_fault(self, phase):
        env = Environment()
        migrator = racked_migrator(env, EDGES[:4])
        trigger = {"phase": PHASE} if phase else {"at": 0.5}
        plan = (FaultPlan()
                .blackout(duration=1.0, **trigger)
                .degrade(duration=1.0, **trigger)
                .partition(["rack1"], duration=1.0, **trigger)
                .flap(down_time=0.1, link=("rack0", "core"), **trigger))
        injector = FaultInjector(env, plan).inject(migrator)
        injector.on_phase(PHASE)
        injector.on_phase(PHASE)
        for a, b in EDGES[4:]:
            injector.attach(migrator.topology.connect(a, b), hosts=(a, b))
        assert [entry.split()[0] for _at, entry in injector.log] == [
            "blackout[both]", "degrade[both]", "partition", "flap"]
