"""Event-engine microbenchmark: 10,000 tickers on one Environment.

Each ticker is a process that sleeps a fixed period (a ``Timeout``) and
ticks again until the horizon.  Six variants:

* ``plain``: every tick is one timeout; no event is dispatched inline.
* ``spindle``: every 10 tickers share a ``Spindle`` (a capacity-1
  server, here FIFO: every tick at one priority); a tick takes it with
  ``acquire``, holds it for a short service time and releases it, the
  shape of a guest write on a disk.  An idle spindle is granted inline,
  without a heap round trip.  On a checkout that predates ``Spindle``
  the variant times the same ticks on a capacity-1 ``Resource`` (with
  ``acquire`` where it has one, else ``request()``).
* ``guest``: the same ticks as real guest writes.  Every 10 tickers are
  domains attached to one ``Host``, whose ``PhysicalDisk`` takes exactly
  the ``spindle`` service time per write; a tick is
  ``yield from domain.write(block, 2)`` through the domain's
  ``BackendDriver``.  It dispatches the same events as ``spindle``, so
  the difference between the two is the guest write path: ``Domain``,
  ``IORequest``, ``BackendDriver.submit`` and ``VirtualBlockDevice.write``.
* ``channel``: every tick sends one control message on a ``Channel``;
  every 10 tickers share one channel over its own link, drained by one
  receiver process.  A tick is ``yield from chan.send(msg)``, so this
  leg times the send path and the message's delivery into the mailbox.
* ``routed``: the ``channel`` leg over a two-hop ``RoutedPath`` (host →
  switch → host, each hop a link like the ``channel`` leg's), so every
  message takes two link wires in turn; every other tick sends at
  priority 1, so frames of two priorities share the wires.
* ``routed+faults``: the ``routed`` leg with every hop attached to a
  ``FaultInjector`` whose one flap has ended before the first tick (the
  leg first runs the empty clock past the flap).  It dispatches the same
  events as ``routed``, and the benchmark exits 1 if it does not; the
  difference between the two is what fault state costs a message once
  its windows are over.

each with the calendar queue engaged (the default threshold; 10,000
pending timeouts cross it) and with it off (``calendar_threshold=None``).
``plain`` is timed under each form of ``Environment.run``:

* ``run()``: until no events remain;
* ``until=t``: ``run(until=t)`` for a ``t`` past every ticker's last tick;
* ``until=event``: ``run(until=<AllOf of the tickers>)``.

Every ``plain`` pass builds that ``AllOf``, so the three forms dispatch
the same events; the benchmark exits 1 if they do not.  The other legs
are timed under ``run()``.  For
each leg the benchmark prints the events dispatched, the share of them
dispatched inline, and the median wall time per event over ``REPEAT``
passes with its quartiles.  The passes of the eight legs alternate;
each ``guest`` pass is paired with the ``spindle`` pass just before it,
and the benchmark prints the median and quartiles of their difference
per write: what the guest write path costs above the engine.  For
``channel`` and ``routed`` it prints the messages delivered, the events
dispatched per message and the median wall time per message with its
quartiles, and ``routed+faults`` likewise; for ``routed`` also the wire
grants per message (frames that crossed a hop, from the hops' byte
counters).  The leg's line above it
carries its inline share.

Run standalone::

    python benchmarks/bench_engine.py                  # this checkout
    python benchmarks/bench_engine.py --src OTHER/src  # another checkout
    python benchmarks/bench_engine.py --smoke          # 3,000 tickers, 1 pass

and alternate the first two commands to compare versions on one machine.
The event counts of ``plain``, ``spindle`` and ``guest`` must match
between versions: inline dispatch changes how an event is dispatched,
never which events there are.  ``channel`` counts the events a delivery
costs, and ``routed`` (and ``routed+faults``) those of a delivery and
its wire grants, so they move when delivery changes shape.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

TICKERS = 10_000
#: Tickers per shared server in the ``spindle`` and ``guest`` variants.
PER_SERVER = 10
HORIZON = 10.0
SERVICE = 1e-4
REPEAT = 5
#: Blocks per VBD in the ``guest`` variant; each write covers two.
NBLOCKS = 16
#: Link latency of the ``channel`` variant: every delivery waits it out.
LATENCY = 1e-3
#: The ways ``Environment.run`` is called; ``plain`` runs under each.
FORMS = ("run()", "until=t", "until=event")
#: Hops of the ``routed`` variant's path (host -> switch -> host).
HOPS = 2
#: The ``routed+faults`` flap: down from t=0 for this long, once ...
FLAP_DOWN = 0.25
#: ... and the clock runs empty to here before that leg's first tick.
FLAP_LEAD = 1.0
#: (variant, run form) legs; ``guest`` directly follows ``spindle``.
LEGS = tuple(("plain", form) for form in FORMS) + (
    ("spindle", "run()"), ("guest", "run()"), ("channel", "run()"),
    ("routed", "run()"), ("routed+faults", "run()"))
#: Legs that send messages over links.
SENDERS = ("channel", "routed", "routed+faults")


def guest_domains(env, tickers: int) -> list:
    """``tickers`` domains, each on one of ``tickers // PER_SERVER`` hosts
    whose disk serves any write in exactly :data:`SERVICE` seconds."""
    from repro.storage import PhysicalDisk
    from repro.vm import Domain, GuestMemory, Host

    domains = []
    for k in range(tickers // PER_SERVER):
        disk = PhysicalDisk(env, float("inf"), float("inf"),
                            seek_time=SERVICE)
        host = Host(env, f"h{k}", disk)
        for j in range(PER_SERVER):
            domain = Domain(env, GuestMemory(1), name=f"vm{k}-{j}")
            host.attach_domain(domain, host.prepare_vbd(NBLOCKS))
            domains.append(domain)
    return domains


def one_pass(tickers: int, horizon: float, variant: str, form: str,
             calendar: bool):
    """Run one variant under one run form on a fresh environment;
    (seconds, events, inline, ticks, wire grants)."""
    from repro import sim

    env = (sim.Environment() if calendar
           else sim.Environment(calendar_threshold=None))
    server = getattr(sim, "Spindle", None)
    if server is not None:
        acquire = server.acquire
    else:
        # Older versions: a capacity-1 Resource, granted inline by
        # Resource.acquire where it exists, else by request().
        server = sim.Resource
        acquire = getattr(server, "acquire", server.request)
    servers = ([server(env) for _ in range(tickers // PER_SERVER)]
               if variant == "spindle" else None)
    domains = guest_domains(env, tickers) if variant == "guest" else None
    delivered = [0]
    links = []
    if variant in SENDERS:
        from repro.net import Channel, ControlMsg, DuplexLink, Link
        from repro.net.topology import RoutedPath

        injector = None
        if variant == "routed+faults":
            from repro.faults import FaultInjector, FaultPlan

            injector = FaultInjector(
                env, FaultPlan().flap(down_time=FLAP_DOWN, at=0.0))

        def hop(k, j):
            if injector is None:
                return Link(env, latency=LATENCY, name=f"h{k}:{j}")
            duplex = DuplexLink(env, latency=LATENCY, name=f"h{k}:{j}")
            injector.attach(duplex)
            return duplex.forward

        def path(k):
            hops = [hop(k, j) for j in range(1 if variant == "channel"
                                             else HOPS)]
            links.extend(hops)
            return hops[0] if variant == "channel" else RoutedPath(hops)

        chans = [Channel(env, path(k)) for k in range(tickers // PER_SERVER)]
        if injector is not None:
            env.run(until=FLAP_LEAD)  # no events: a flap is only windows
        message = ControlMsg("tick")

        def receiver(env, chan):
            while True:
                yield chan.recv()
                delivered[0] += 1

        for chan in chans:
            env.process(receiver(env, chan))

    def ticker(env, i):
        # Irrational phases keep tick times distinct, so a tick usually
        # finds its server idle and nothing else due at the same time.
        period = 1.0 + (i % 97) * 1e-3
        end = env.now + horizon
        ticks = 0
        yield env.timeout(i * 0.6180339887 % 1.0)
        if variant == "plain":
            while env.now < end:
                yield env.timeout(period)
                ticks += 1
        elif variant == "spindle":
            spindle = servers[i // PER_SERVER]
            while env.now < end:
                grant = acquire(spindle)
                try:
                    yield grant
                    yield env.timeout(SERVICE)
                finally:
                    spindle.release(grant)
                yield env.timeout(period)
                ticks += 1
        elif variant in SENDERS:
            chan = chans[i // PER_SERVER]
            urgent = variant != "channel"
            while env.now < end:
                yield from chan.send(message,
                                     priority=ticks & 1 if urgent else 0)
                yield env.timeout(period)
                ticks += 1
        else:
            domain = domains[i]
            block = i % (NBLOCKS - 1)
            while env.now < end:
                yield from domain.write(block, 2)
                yield env.timeout(period)
                ticks += 1
        return ticks

    procs = [env.process(ticker(env, i)) for i in range(tickers)]
    until = None
    if variant == "plain":
        done = env.all_of(procs)
        if form == "until=t":
            # Past every last tick: a ticker's period is under 1.1 s.
            until = horizon + 2.0
        elif form == "until=event":
            until = done
    started = time.perf_counter()
    env.run(until=until)
    elapsed = time.perf_counter() - started
    ticks = sum(proc.value for proc in procs)
    if links and delivered[0] != ticks:
        raise RuntimeError(f"{ticks} messages sent, {delivered[0]} delivered")
    # Every frame a wire carried was one grant of that wire.
    grants = (sum(link.bytes_sent for link in links) // message.wire_nbytes
              if links else 0)
    return (elapsed, env.events_processed, getattr(env, "events_inline", 0),
            ticks, grants)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(
        os.path.dirname(__file__), "..", "src"),
        help="directory holding the repro package (default: %(default)s)")
    parser.add_argument("--smoke", action="store_true",
                        help="3,000 tickers (enough to engage the "
                             "calendar), a short horizon, one pass")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    tickers, horizon, repeat = ((3_000, 3.0, 1) if args.smoke
                                else (TICKERS, HORIZON, REPEAT))
    print(f"{tickers} tickers to t={horizon:g} s, "
          f"median [quartiles] of {repeat}")
    for calendar in (True, False):
        queue = "calendar" if calendar else "heap"
        for leg in LEGS:
            one_pass(tickers, horizon, *leg, calendar)  # warm-up
        runs = {leg: [] for leg in LEGS}
        for _ in range(repeat):
            for leg in LEGS:
                runs[leg].append(one_pass(tickers, horizon, *leg, calendar))
        counts = {(events, ticks) for leg in LEGS if leg[0] == "plain"
                  for _, events, _, ticks, _ in runs[leg]}
        if len(counts) != 1:
            print(f"the run forms dispatch different events: {counts}")
            return 1
        counts = {(events, ticks)
                  for leg in (("routed", "run()"), ("routed+faults", "run()"))
                  for _, events, _, ticks, _ in runs[leg]}
        if len(counts) != 1:
            print(f"routed and routed+faults dispatch different events: "
                  f"{counts}")
            return 1
        for leg in LEGS:
            _, events, inline, *_ = runs[leg][0]
            us = [seconds / events * 1e6 for seconds, *_ in runs[leg]]
            q1, median, q3 = np.percentile(us, [25, 50, 75])
            print(f"{leg[0]:<13} {leg[1]:<11} {queue:<8} {events:>9,} events  "
                  f"{inline / events:6.1%} inline  "
                  f"{median:.3f} us/event [{q1:.3f}, {q3:.3f}]")
        spindle, guest = runs[("spindle", "run()")], runs[("guest", "run()")]
        writes = guest[0][3]
        above = [(after[0] - before[0]) / writes * 1e6
                 for before, after in zip(spindle, guest)]
        q1, median, q3 = np.percentile(above, [25, 50, 75])
        print(f"{'guest':<13} {'':<11} {queue:<8} {writes:>9,} writes  "
              f"{median:.3f} us/write above spindle [{q1:.3f}, {q3:.3f}]")
        for variant in SENDERS:
            leg = runs[(variant, "run()")]
            _, events, _, messages, grants = leg[0]
            us = [seconds / messages * 1e6 for seconds, *_ in leg]
            q1, median, q3 = np.percentile(us, [25, 50, 75])
            wires = (f"{grants / messages:.3f} grants/message  "
                     if variant == "routed" else "")
            print(f"{variant:<13} {'':<11} {queue:<8} "
                  f"{messages:>9,} messages  "
                  f"{events / messages:.3f} events/message  {wires}"
                  f"{median:.3f} us/message [{q1:.3f}, {q3:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
