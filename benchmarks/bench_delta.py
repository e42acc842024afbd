"""Delta-cache eviction microbenchmark: a thrashing re-send stream.

Times :meth:`repro.net.delta.DeltaCache.encode` on the input that keeps
its eviction path busiest: 2,000 sorted 256-unit messages, each drawn
uniformly from 20,000 units, into a 1,024-unit cache.  Nearly every unit
misses and every miss evicts, so the cache walks its recency order unit
by unit instead of taking the all-fits bulk update that migrations with a
device-sized cache hit (``perfbench``'s ``durable_stack``).

Run standalone::

    python benchmarks/bench_delta.py                  # this checkout
    python benchmarks/bench_delta.py --src OTHER/src  # another checkout

and alternate the two commands to compare versions on one machine.  The
last line is the median wall time of ``REPEAT`` passes with its
quartiles; the hit/miss/eviction counts above it must match between
versions (the stream is drawn from seed ``SEED``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

UNITS = 20_000
CACHE_UNITS = 1_024
MESSAGES = 2_000
MESSAGE_UNITS = 256
BLOCK = 4096
REPEAT = 7
SEED = 0


def thrash_stream() -> list:
    rng = np.random.default_rng(SEED)
    return [np.sort(rng.choice(UNITS, MESSAGE_UNITS, replace=False))
            for _ in range(MESSAGES)]


def one_pass(stream: list):
    """Encode the whole stream through a fresh cache; (seconds, summary)."""
    from repro.net import BlockDataMsg, DeltaCache
    from repro.sim import Environment

    env = Environment()
    cache = DeltaCache(CACHE_UNITS * BLOCK, BLOCK)
    stamps = np.ones(MESSAGE_UNITS, dtype=np.int64)
    msgs = [BlockDataMsg(indices, stamps, block_size=BLOCK)
            for indices in stream]

    def sender(env):
        for msg in msgs:
            yield from cache.encode(env, msg)

    started = time.perf_counter()
    env.run(until=env.process(sender(env)))
    return time.perf_counter() - started, cache.summary()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(
        os.path.dirname(__file__), "..", "src"),
        help="directory holding the repro package (default: %(default)s)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    stream = thrash_stream()
    one_pass(stream)  # warm-up: imports, allocator
    seconds = []
    for _ in range(REPEAT):
        elapsed, summary = one_pass(stream)
        seconds.append(elapsed)
    print(f"{MESSAGES} x {MESSAGE_UNITS}-unit sorted messages over "
          f"{UNITS} units, {CACHE_UNITS}-unit cache: hits={summary['hits']} "
          f"misses={summary['misses']} evictions={summary['evictions']}")
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    print(f"encode {median:.3f} s [{q1:.3f}, {q3:.3f}] "
          f"(median [quartiles] of {REPEAT})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
