#!/usr/bin/env python3
"""Chaos gate: seeded fault schedules against the recovery invariants.

Runs randomized-but-reproducible chaos schedules (partitions, link
flaps, host crashes — all drawn from ``numpy.random.default_rng(seed)``)
over a migration wave on both the monolithic and sharded cluster
engines, with retry + health tracking enabled, and checks the six
invariant families that must survive any schedule:

1. per-link byte conservation (channel ledgers + aborted in-flight
   sends == wire counters);
2. every domain ends attached to exactly one host, nothing stays in
   flight, every terminal failure is dead-lettered;
3. recovered tracking bitmaps cover every still-pending block
   (an incremental retry would lose nothing);
4. no domain is stranded on a sharded surrogate host;
5. every job's attempts match its failure records (plus one for a
   success), and every dead-lettered job has a failure record;
6. every finished job's report is consistency-verified, and no job
   ended on a ``ConsistencyError``.

Usage::

    PYTHONPATH=src python tools/check_chaos.py            # fixed CI seeds
    PYTHONPATH=src python tools/check_chaos.py --smoke    # 2 seeds, fast
    PYTHONPATH=src python tools/check_chaos.py --seeds 0-31

On any violation the offending seed and mode are printed so the failure
replays exactly: ``repro-sim chaos --seed N --mode M``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

#: The fixed seeds CI runs on every push (both modes each).
CI_SEEDS = (0, 1, 2, 3)
SMOKE_SEEDS = (0, 1)


def _parse_seeds(spec: str) -> list[int]:
    """``"0-31"`` or ``"0,3,7"`` or a single ``"5"``."""
    if "-" in spec and "," not in spec:
        lo, hi = spec.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",") if s]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=None, metavar="SPEC",
                        help="seeds to run: '0-31', '0,3,7' or '5' "
                             "(default: the fixed CI set "
                             f"{','.join(map(str, CI_SEEDS))})")
    parser.add_argument("--smoke", action="store_true",
                        help=f"fast pass: seeds "
                             f"{','.join(map(str, SMOKE_SEEDS))} only")
    parser.add_argument("--mode", choices=("monolithic", "sharded", "both"),
                        default="both", help="engine(s) (default: both)")
    args = parser.parse_args(argv)

    from repro.cluster.chaos import ChaosConfig, run_chaos

    if args.seeds is not None:
        seeds = _parse_seeds(args.seeds)
    elif args.smoke:
        seeds = list(SMOKE_SEEDS)
    else:
        seeds = list(CI_SEEDS)
    modes = (("monolithic", "sharded") if args.mode == "both"
             else (args.mode,))

    started = time.time()
    failures: list[tuple[str, int]] = []
    runs = 0
    for mode in modes:
        for seed in seeds:
            report = run_chaos(ChaosConfig(seed=seed, mode=mode))
            runs += 1
            print(("PASS " if report.ok else "FAIL ") + report.summary())
            if not report.ok:
                failures.append((mode, seed))
    elapsed = time.time() - started
    if failures:
        print(f"\n{len(failures)}/{runs} chaos runs violated invariants:")
        for mode, seed in failures:
            print(f"  replay: PYTHONPATH=src python -m repro.cli chaos "
                  f"--seed {seed} --mode {mode}")
        return 1
    print(f"\nAll {runs} chaos runs green ({elapsed:.1f}s).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
