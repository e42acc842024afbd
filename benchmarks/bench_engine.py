"""Event-engine microbenchmark: 10,000 tickers on one Environment.

Each ticker is a process that sleeps a fixed period (a ``Timeout``) and
ticks again until the horizon.  Four variants:

* ``plain``: every tick is one timeout; no event is dispatched inline.
* ``resource``: every 10 tickers share a capacity-1 ``Resource``; a tick
  takes it with ``acquire``, holds it for a short service time and
  releases it, the shape of a guest write on a disk spindle.  An idle
  resource is granted inline, without a heap round trip.

each with the calendar queue engaged (the default threshold; 10,000
pending timeouts cross it) and with it off (``calendar_threshold=None``).
For each variant the benchmark prints the events dispatched, the share of
them dispatched inline, and the median wall time per event over
``REPEAT`` passes with its quartiles.

Run standalone::

    python benchmarks/bench_engine.py                  # this checkout
    python benchmarks/bench_engine.py --src OTHER/src  # another checkout
    python benchmarks/bench_engine.py --smoke          # 3,000 tickers, 1 pass

and alternate the first two commands to compare versions on one machine.
The event counts must match between versions: inline dispatch changes
how an event is dispatched, never which events there are.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

TICKERS = 10_000
#: Tickers per shared resource in the ``resource`` variants.
PER_RESOURCE = 10
HORIZON = 10.0
SERVICE = 1e-4
REPEAT = 5


def one_pass(tickers: int, horizon: float, shared: bool, calendar: bool):
    """Run one variant on a fresh environment; (seconds, events, inline)."""
    from repro.sim import Environment, Resource

    env = Environment() if calendar else Environment(calendar_threshold=None)
    resources = [Resource(env) for _ in range(tickers // PER_RESOURCE)]
    # Versions before Resource.acquire time the same ticks with request().
    acquire = getattr(Resource, "acquire", Resource.request)

    def ticker(env, i):
        # Irrational phases keep tick times distinct, so a tick usually
        # finds its resource idle and nothing else due at the same time.
        period = 1.0 + (i % 97) * 1e-3
        yield env.timeout(i * 0.6180339887 % 1.0)
        if not shared:
            while env.now < horizon:
                yield env.timeout(period)
            return
        resource = resources[i // PER_RESOURCE]
        while env.now < horizon:
            grant = acquire(resource)
            try:
                yield grant
                yield env.timeout(SERVICE)
            finally:
                resource.release(grant)
            yield env.timeout(period)

    for i in range(tickers):
        env.process(ticker(env, i))
    started = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - started
    return elapsed, env.events_processed, getattr(env, "events_inline", 0)


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
    for shared in (False, True):
        for calendar in (True, False):
            one_pass(tickers, horizon, shared, calendar)  # warm-up
            runs = [one_pass(tickers, horizon, shared, calendar)
                    for _ in range(repeat)]
            events, inline = runs[0][1], runs[0][2]
            us = [seconds / events * 1e6 for seconds, _, _ in runs]
            q1, median, q3 = np.percentile(us, [25, 50, 75])
            name = "resource" if shared else "plain"
            queue = "calendar" if calendar else "heap"
            print(f"{name:<8} {queue:<8} {events:>9,} events  "
                  f"{inline / events:6.1%} inline  "
                  f"{median:.3f} us/event [{q1:.3f}, {q3:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
