#!/usr/bin/env python3
"""The repository benchmark: host time, memory and simulated fidelity.

Run from the repository root::

    python3 perfbench/run.py --seed 0                # every workload, untraced
    python3 perfbench/run.py --seed 0 --trace 1      # per-layer pass
    python3 perfbench/run.py --workload chaos --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke --check         # CI gate
    python3 perfbench/run.py --ab HEAD~1             # interleaved A/B

With one ``--workload`` the workload is measured in this process and the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  Otherwise every workload runs
in a fresh child process, one after another, and the exit status is
non-zero if any of them produced a wrong output.

The benchmark imports ``repro`` from ``--src`` (default: ``src`` next to
this directory), so one copy of the benchmark measures any version of
the simulator.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import speed
from sampler import StackSampler

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RECORDS_PATH = os.path.join(BENCH_DIR, "records.json")
DEFAULT_SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("paper_roundtrip", "durable_stack", "scale_1k_host",
                  "place_1k_mono", "chaos")
SMOKE_SECONDS = 2
#: Prefix of the stdout line carrying a run's per-sample record.
RECORD_PREFIX = "record: "
TIMINGS = ("setup_s", "run_s", "traced_run_s")
#: The exact counts that are the simulator's product: the paper's
#: downtime and IM numbers, data moved, engine agreement, jobs lost and
#: the share of failed operations.  ``--check`` and ``--ab`` fail when
#: one of them changes for an input.
FIDELITY_METRICS = ("core.downtime_err_pct", "core.im_copy_frac",
                    "net.migrated_mb", "cluster.engine_mismatch_frac",
                    "cluster.dead_letters", "fail_frac")
#: The environment every benchmark process runs in.  Python randomises
#: string hashing per process, and the dict and set layouts that gives
#: moved paper_roundtrip's peak RSS between 77.1 and 78.7 MiB from run to
#: run.  numpy asks the kernel for transparent huge pages on large
#: arrays, which makes the peak depend on the host's memory
#: fragmentation.
STEADY_ENV = {"PYTHONHASHSEED": "0", "NUMPY_MADVISE_HUGEPAGE": "0"}


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def high_percentile(values: list[float]) -> tuple[int, float]:
    """The highest of p50/p75/p90/p99 with at least ten samples beyond
    it, as ``(percentile, value)``; ``(50, median)`` below 20 samples."""
    for pct in (99, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100)
            return pct, cuts[pct - 1]
    return 50, statistics.median(values)


# -- measuring one workload in this process -----------------------------------


def import_repro(src: str):
    """Put ``src`` first on the path; import ``repro`` and the workloads."""
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"error: no repro package under {src!r}")
    sys.path.insert(0, os.path.abspath(src))
    import repro
    import workloads

    return repro, workloads


def take_sample(workload, index: int, timer, sampler) -> tuple:
    """One sample: ``(setup timing, run timing, observation)``, each
    timing as :meth:`speed.ScaledTimer.stop` gives it; the sampler, if
    given, is armed for the run only."""
    timer.start()
    state = workload.setup(index)
    setup = timer.stop()
    workload.snapshot(state)
    if sampler is not None:
        sampler.start()
    timer.start()
    try:
        workload.run(state)
    finally:
        run = timer.stop()
        if sampler is not None:
            sampler.stop()
    return setup, run, workload.observe(state)


def measure(name: str, seed: int, seconds: float, trace: bool,
            src: str) -> dict:
    """Warm up once, then take samples for ``seconds`` (at least the
    workload's ``min_samples`` per pass).  With ``trace`` the samples
    alternate untraced and traced, so ``trace_overhead`` compares like
    with like.

    Every timing is kept raw and scaled to the reference machine speed
    (see :mod:`speed`); the metrics use the scaled values."""
    repro, workloads_mod = import_repro(src)
    workload = workloads_mod.WORKLOADS[name](seed)
    timer = speed.ScaledTimer()
    sampler = None
    if trace:
        sampler = StackSampler(os.path.dirname(repro.__file__),
                               (workloads_mod.__file__,), speed.__file__)
    raw: dict[str, list[float]] = {key: [] for key in TIMINGS}
    scaled: dict[str, list[float]] = {key: [] for key in TIMINGS}
    #: Mean probe seconds during each timed run.
    probe_s: list[float] = []
    us_per_event: list[float] = []
    references: dict = {}
    #: str(input key) -> the input's exact counts (plus ``fail_frac``)
    #: and the scaled timings of its samples.
    inputs: dict[str, dict] = {}
    problems: list[str] = []
    attempted = failed = 0
    index = 0
    while True:
        warm = index == 0
        traced = trace and not warm and (len(raw["traced_run_s"])
                                         < len(raw["run_s"]))
        began = perf_counter()
        gc.collect()
        try:
            setup, run, obs = take_sample(workload, index, timer,
                                          sampler if traced else None)
        except Exception:  # noqa: BLE001 - report any simulator failure
            problems.append(f"sample {index} raised:\n"
                            + traceback.format_exc())
            failed += 1
            attempted += 1
            break
        attempted += obs.attempted
        failed += obs.failed
        problems += [f"sample {index}: {p}" for p in obs.problems]
        key = workload.input_key(index)
        if key not in references:
            references[key] = obs.outputs
            inputs[str(key)] = dict(
                counts=dict(obs.counts, fail_frac=obs.failed / obs.attempted),
                **{timing: [] for timing in TIMINGS})
            # Peak memory until every distinct input has run once, each
            # as a fresh experiment; repeats only add allocator
            # fragmentation, which varies from run to run.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        elif references[key] != obs.outputs:
            problems.append(f"sample {index}: simulated outputs differ from "
                            f"an earlier sample of the same input {key!r}")
        if warm:
            started = perf_counter()
        else:
            run_key = "traced_run_s" if traced else "run_s"
            for timing, (raw_s, scaled_s, _) in (("setup_s", setup),
                                                 (run_key, run)):
                raw[timing].append(raw_s)
                scaled[timing].append(scaled_s)
                inputs[str(key)][timing].append(scaled_s)
            probe_s.append(run[2])
            events = obs.counts.get("sim.events", 0)
            if events and not traced:
                us_per_event.append(run[1] / events * 1e6)
        index += 1
        enough = len(raw["run_s"]) >= workload.min_samples and (
            not trace or len(raw["traced_run_s"]) >= workload.min_samples)
        now = perf_counter()
        if enough and now - started + (now - began) > seconds:
            break
    # Per input, the median of its samples' scaled seconds (None for an
    # input whose only sample was the warm-up).
    for entry in inputs.values():
        for timing in TIMINGS:
            entry[timing] = (statistics.median(entry[timing])
                             if entry[timing] else None)
    metrics = {}
    if scaled["run_s"]:
        metrics.update({timing: median_over(
            {key: entry[timing] for key, entry in inputs.items()})
            for timing in ("run_s", "setup_s")})
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics.update(layer_metrics(
            [entry["counts"] for entry in inputs.values()], us_per_event,
            sampler, scaled["traced_run_s"], metrics["run_s"],
            workloads_mod.COUNT_METRICS))
    return dict(workload=name, seed=seed,
                correct=not problems and bool(scaled["run_s"]),
                attempted=attempted, failed=failed, problems=problems,
                metrics=metrics, inputs=inputs, samples=dict(
                    scaled, probe_s=probe_s,
                    **{f"raw_{key}": values for key, values in raw.items()}))


def median_over(per_input: dict, keys=None) -> float:
    """The median over inputs (all, or ``keys``) of each input's median.

    This is how ``run_s`` and ``setup_s`` are reported: on ``chaos``, how
    often a run got round to repeating a seed must not change the mix of
    seeds the value reflects."""
    keys = per_input.keys() if keys is None else keys
    return statistics.median(per_input[key] for key in keys
                             if per_input[key] is not None)


def layer_metrics(counts: list[dict], us_per_event: list[float], sampler,
                  traced_s: list[float], run_s: float,
                  count_names: tuple) -> dict:
    """Exact counters (averaged over the distinct inputs a run saw) plus,
    when traced, the sampled per-layer self and inclusive times."""
    out = {name: statistics.fmean(c.get(name, 0) for c in counts)
           for name in count_names}
    out["sim.us_per_event"] = (statistics.median(us_per_event)
                               if us_per_event else 0.0)
    if sampler is not None and traced_s:
        traced = statistics.median(traced_s)
        for layer, share in sampler.shares().items():
            out[f"{layer}.share"] = share
            out[f"{layer}.self_s"] = share * traced
        for metric, share in sampler.inclusive_shares().items():
            out[metric] = share * traced
        out["trace_overhead"] = traced / run_s
        out["trace_samples"] = sampler.samples
    return out


def result_json(result: dict, trace: bool, spec: dict) -> str:
    """The contract's last line: the declared metrics of this pass."""
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and result["correct"]:
        raise RuntimeError(f"metrics not produced: {missing}")
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    })


def print_result(result: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    samples = result["samples"]["run_s"]
    print(f"== {result['workload']} (seed {result['seed']}): "
          f"{len(samples)} untraced samples, "
          f"{len(result['samples']['traced_run_s'])} traced")
    if samples:
        q1, med, q3 = quartiles(samples)
        pct, value = high_percentile(samples)
        print(f"  run_s p25/p50/p75 = {q1:.4f} / {med:.4f} / {q3:.4f} s; "
              f"p{pct} = {value:.4f} s over n = {len(samples)}")
        raw = {key: statistics.median(values)
               for key, values in result["samples"].items() if values}
        print(f"  raw host seconds p50: run {raw['raw_run_s']:.4f}, "
              f"setup {raw['raw_setup_s']:.4f}; speed probe p50 "
              f"{raw['probe_s'] * 1e3:.2f} ms (reference "
              f"{speed.REFERENCE_S * 1e3:.2f} ms)")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {units.get(name, '')}")
    print(f"  operations: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    print("  correct" if result["correct"] else "  INCORRECT")


# -- every workload, each in its own child ------------------------------------


def run_child(name: str, seed: int, seconds: float, trace: bool,
              src: str, echo: bool = True) -> dict:
    """Measure one workload in a fresh interpreter; returns its record
    (``correct`` is False if the child crashed or printed no result)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--src", src]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if echo:
        print("\n".join(line for line in lines[:-1]
                        if not line.startswith(RECORD_PREFIX)), flush=True)
    record = None
    for line in lines:
        if line.startswith(RECORD_PREFIX):
            record = json.loads(line[len(RECORD_PREFIX):])
    if record is None:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-20:]
        return dict(workload=name, seed=seed, correct=False, attempted=1,
                    failed=1, metrics={}, samples={},
                    problems=[f"child exited {proc.returncode}: "
                              + "\n".join(tail)])
    if proc.returncode != 0:
        record["correct"] = False
    return record


def machine_tag() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return dict(cpu=model, nproc=os.cpu_count(),
                python=platform.python_version())


def git_rev() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def fidelity_changes(base: dict, current: dict) -> list[str]:
    """Fidelity values that differ between two runs, compared per input
    on the inputs both ran (each argument: input key -> counts)."""
    changes = []
    for key in sorted(base.keys() & current.keys()):
        for metric in FIDELITY_METRICS:
            was, now = base[key].get(metric, 0), current[key].get(metric, 0)
            if not math.isclose(was, now, rel_tol=1e-9, abs_tol=1e-12):
                changes.append(f"input {key} {metric}: {was:.6g} -> "
                               f"{now:.6g}")
    return changes


def load_records() -> dict:
    if not os.path.exists(RECORDS_PATH):
        return {"rows": [], "fidelity": {}}
    with open(RECORDS_PATH) as fh:
        return json.load(fh)


def summary_row(results: list[dict]) -> dict:
    """Per workload: each timing's reported median, the quartiles of its
    samples, and each input's median (what the gate compares); the peak
    RSS."""
    row = {}
    for res in results:
        if not res["metrics"]:
            continue
        entry = {}
        for timing in ("run_s", "setup_s"):
            q1, _, q3 = quartiles(res["samples"][timing])
            entry[timing] = dict(
                median=res["metrics"][timing], q1=q1, q3=q3,
                n=len(res["samples"][timing]),
                inputs={key: values[timing]
                        for key, values in res["inputs"].items()
                        if values[timing] is not None})
        entry["peak_rss_mb"] = dict(median=res["metrics"]["peak_rss_mb"])
        row[res["workload"]] = entry
    return row


def check_against_record(results: list[dict], spec: dict) -> int:
    """Fidelity gate against the recorded counts of the same inputs, and
    timing gate against the recorded row of *this* machine only."""
    records = load_records()
    status = 0
    for res in results:
        base = records["fidelity"].get(res["workload"], {})
        current = {key: entry["counts"]
                   for key, entry in res.get("inputs", {}).items()}
        if not base.keys() & current.keys():
            print(f"check {res['workload']:>16} fidelity: no recorded "
                  "counts for these inputs; not compared")
            continue
        changes = fidelity_changes(base, current)
        print(f"check {res['workload']:>16} fidelity: "
              + ("FIDELITY CHANGED: " + "; ".join(changes) if changes
                 else "identical to the record"))
        status |= 1 if changes else 0
    tag = machine_tag()
    ref = next((row for row in records["rows"] if row["machine"] == tag),
               None)
    if ref is None:
        print(f"check: no same-machine reference for {tag}; "
              "timings not compared")
        return status
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, entry in summary_row(results).items():
        for metric, stats in entry.items():
            base = ref["workloads"].get(workload, {}).get(metric)
            if base is None:
                continue
            if "inputs" in stats:
                keys = stats["inputs"].keys() & base["inputs"].keys()
                if not keys:
                    print(f"check {workload:>16} {metric:<11}: no recorded "
                          "input in common; not compared")
                    continue
                now = median_over(stats["inputs"], keys)
                was = median_over(base["inputs"], keys)
                over = f"{len(keys)} common input(s)"
            else:
                now, was, over = stats["median"], base["median"], "the run"
            limit = was * (1 + bounds[metric])
            ok = now <= limit
            print(f"check {workload:>16} {metric:<11}: median {now:.4f} vs "
                  f"recorded {was:.4f} over {over} (limit {limit:.4f}) "
                  f"[{'ok' if ok else 'REGRESSION'}]")
            status |= 0 if ok else 1
    return status


def record_row(results: list[dict], seed: int, seconds: float) -> None:
    """Store this run as the recorded row for this machine, and its
    inputs' fidelity counts (machine-independent) beside the others."""
    records = load_records()
    tag = machine_tag()
    records["rows"] = [row for row in records["rows"]
                       if row["machine"] != tag]
    records["rows"].append(dict(machine=tag, rev=git_rev(), seed=seed,
                                seconds=seconds,
                                workloads=summary_row(results)))
    for res in results:
        records["fidelity"].setdefault(res["workload"], {}).update({
            key: {metric: entry["counts"].get(metric, 0)
                  for metric in FIDELITY_METRICS}
            for key, entry in res.get("inputs", {}).items()})
    with open(RECORDS_PATH, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded this machine's row in {RECORDS_PATH}")


def run_all(args, spec: dict) -> int:
    names = args.workload or list(WORKLOAD_NAMES)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    started = perf_counter()
    results = []
    for name in names:
        t0 = perf_counter()
        res = run_child(name, args.seed, seconds, bool(args.trace), args.src)
        print(f"   ({name}: {perf_counter() - t0:.1f} s wall)", flush=True)
        results.append(res)
    print(f"benchmark wall time: {perf_counter() - started:.1f} s")
    status = 0 if all(res["correct"] for res in results) else 1
    for res in results:
        if not res["correct"]:
            print(f"FAIL {res['workload']}: " + "; ".join(res["problems"]))
    if args.check:
        status |= check_against_record(results, spec)
    if args.record:
        record_row(results, args.seed, seconds)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(dict(rev=git_rev(), seed=args.seed, seconds=seconds,
                           trace=bool(args.trace), machine=machine_tag(),
                           results=results), fh, indent=1)
        print(f"wrote run record {args.json}")
    print("benchmark: " + ("all outputs correct" if status == 0
                           else "FAILED"))
    return status


def main(argv=None) -> int:
    if any(os.environ.get(key) != value for key, value in STEADY_ENV.items()):
        # Both settings are read at interpreter or numpy start-up, so the
        # process starts over in the steady environment (same pid).
        os.environ.update(STEADY_ENV)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__),
                                  *(sys.argv[1:] if argv is None else argv)])
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer pass with the stack sampler")
    parser.add_argument("--src", default=DEFAULT_SRC,
                        help="the src/ directory whose repro to measure")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s per workload")
    parser.add_argument("--check", action="store_true",
                        help="compare fidelity counts with the recorded "
                             "ones and timings with this machine's "
                             "recorded row; exit non-zero on a change or "
                             "regression")
    parser.add_argument("--record", action="store_true",
                        help="store this run as this machine's row in "
                             "perfbench/records.json")
    parser.add_argument("--json", metavar="PATH",
                        help="write a run record (git rev, seed, machine, "
                             "per-sample seconds, metrics)")
    parser.add_argument("--ab", metavar="REF",
                        help="interleaved A/B of --src against git REF")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    args.src = os.path.abspath(args.src)

    if args.ab:
        import ab

        return ab.run_ab(args, spec)
    if (args.workload and len(args.workload) == 1 and not
            (args.smoke or args.check or args.record or args.json)):
        result = measure(args.workload[0], args.seed, args.seconds,
                         bool(args.trace), args.src)
        print_result(result, spec)
        print(RECORD_PREFIX + json.dumps(result))
        print(result_json(result, bool(args.trace), spec))
        return 0 if result["correct"] else 1
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
