"""Interleaved A/B: this benchmark against a git reference's ``src``.

``run.py --ab REF`` exports ``src/`` of ``REF`` with ``git archive`` into
``.bench_ab/`` at the repository root and runs this same benchmark code
against both trees through ``--src``: :data:`PAIRS` untraced pairs,
then :data:`TRACE_PAIRS` traced pairs for layer attribution.  Each pair
runs both sides back to back in fresh processes with the same seed, and
the side that goes first alternates from pair to pair.

A metric's verdict follows the gain rule for small sandboxes: a side
"wins" a pair when it reads better; the candidate is ``better`` when it
wins at least nine tenths of the pairs and the medians differ by more
than the reference's own interquartile distance.  ``worse`` is the
mirror image.  ``REGRESSION`` means the candidate's median is worse by
more than the metric's bound in ``BENCHMARK.json`` and the pairs
resolve it; ``unresolved`` means the reference's spread is wider than
the bound and neither side wins clearly; otherwise ``same``.

The traced pairs name the layer whose self time grew most.  The A/B
fails on a ``REGRESSION``, on any wrong output, and on any change to a
fidelity count (see ``FIDELITY_METRICS`` in :mod:`run`) for an input
both sides ran.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import tarfile

from run import ROOT, WORKLOAD_NAMES, fidelity_changes, quartiles, run_child
from sampler import LAYERS

AB_DIR = os.path.join(ROOT, ".bench_ab")
WIN_FRACTION = 0.9
#: Untraced pairs per workload (the gain rule needs at least ten).
PAIRS = 10
#: Traced pairs per workload, for layer attribution only.
TRACE_PAIRS = 3


def export_src(ref: str) -> tuple[str, str]:
    """``git archive`` the ``src`` tree of ``ref``; returns
    ``(directory to delete afterwards, its src path)``."""
    sha = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", f"{ref}^{{commit}}"],
        capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", sha, "src"],
        capture_output=True, check=True).stdout
    dest = os.path.join(AB_DIR, sha[:12])
    shutil.rmtree(dest, ignore_errors=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest, os.path.join(dest, "src")


def verdict(ref: list[float], cand: list[float], better: str,
            bound: float) -> dict:
    """Compare paired values of one metric (``ref[i]`` with ``cand[i]``)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (cand - ref) > 0: worse
    pairs = list(zip(ref, cand))
    cand_wins = sum(1 for r, c in pairs if sign * (c - r) < 0)
    ref_wins = sum(1 for r, c in pairs if sign * (c - r) > 0)
    rq1, rmed, rq3 = quartiles(ref)
    cq1, cmed, cq3 = quartiles(cand)
    spread = rq3 - rq1
    resolved = abs(cmed - rmed) > spread
    change = sign * (cmed - rmed) / rmed if rmed else 0.0
    need = WIN_FRACTION * len(pairs)
    wide = bool(rmed) and spread / abs(rmed) > bound
    every_run_better = all(sign * (c - r) < 0 for c in cand for r in ref)
    if cand_wins >= need and resolved:
        label = "better"
    elif change > bound and (ref_wins >= need or not wide):
        label = "REGRESSION"
    elif ref_wins >= need and resolved:
        label = "worse"
    elif wide and not every_run_better:
        label = "unresolved"
    else:
        label = "same"
    return dict(ref=dict(median=rmed, q1=rq1, q3=rq3),
                cand=dict(median=cmed, q1=cq1, q3=cq3),
                change=change, cand_win_frac=cand_wins / len(pairs),
                ref_win_frac=ref_wins / len(pairs), verdict=label)


def run_pairs(name: str, args, sources: dict, trace: bool, npairs: int
              ) -> dict[str, list]:
    results = {"ref": [], "cand": []}
    for i in range(npairs):
        order = ("ref", "cand") if i % 2 == 0 else ("cand", "ref")
        for side in order:
            results[side].append(run_child(name, args.seed, args.seconds,
                                           trace, sources[side], echo=False))
        print(f"  {name} {'traced' if trace else 'untraced'} pair "
              f"{i + 1}/{npairs}: first={order[0]}", flush=True)
    return results


def paired_values(results: dict, metric: str) -> tuple[list, list]:
    ref, cand = [], []
    for r, c in zip(results["ref"], results["cand"]):
        if metric in r["metrics"] and metric in c["metrics"]:
            ref.append(r["metrics"][metric])
            cand.append(c["metrics"][metric])
    return ref, cand


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare_workload(name: str, args, spec: dict, sources: dict) -> dict:
    untraced = run_pairs(name, args, sources, False, PAIRS)
    traced = run_pairs(name, args, sources, True, TRACE_PAIRS)
    runs = {side: untraced[side] + traced[side] for side in ("ref", "cand")}
    counts = {side: {key: entry["counts"] for run in runs[side]
                     for key, entry in run.get("inputs", {}).items()}
              for side in runs}
    out = {"metrics": {}, "layers": {}, "grew_most": None,
           "failed_share": {side: failed_share(runs[side]) for side in runs},
           "incorrect_runs": {side: sum(1 for run in runs[side]
                                        if not run["correct"])
                              for side in runs},
           "fidelity_changes": fidelity_changes(counts["ref"],
                                                counts["cand"])}
    print(f"== {name}: {PAIRS} untraced + {TRACE_PAIRS} traced pairs, "
          f"seed {args.seed}, {args.seconds:g} s per run")
    for metric in spec["end_to_end"]:
        ref, cand = paired_values(untraced, metric["name"])
        if not ref:
            continue
        result = verdict(ref, cand, metric["better"], metric["bound"])
        out["metrics"][metric["name"]] = result
        print(f"  {metric['name']:<12} ref {result['ref']['median']:.4f} "
              f"[{result['ref']['q1']:.4f}, {result['ref']['q3']:.4f}]  "
              f"cand {result['cand']['median']:.4f} "
              f"[{result['cand']['q1']:.4f}, {result['cand']['q3']:.4f}]  "
              f"{result['change']:+.1%} worse, cand wins "
              f"{result['cand_win_frac']:.0%}  -> {result['verdict']}")
    # Self time per sample = the layer's sampled share (traced pairs) x
    # the side's median run_s (untraced pairs).  Taking the time from the
    # untraced pairs keeps a slow traced run from inflating every layer
    # in proportion to its share.
    run_ref, run_cand = paired_values(untraced, "run_s")
    for layer in LAYERS:
        ref, cand = paired_values(traced, f"{layer}.share")
        if ref and run_ref:
            out["layers"][layer] = (
                statistics.median(cand) * statistics.median(run_cand)
                - statistics.median(ref) * statistics.median(run_ref))
    if out["layers"]:
        out["grew_most"] = max(out["layers"], key=out["layers"].get)
        growth = sorted(out["layers"].items(), key=lambda kv: -kv[1])
        print("  self-time change per sample (cand - ref): " + ", ".join(
            f"{layer} {delta * 1e3:+.1f} ms" for layer, delta in growth[:5]))
        print(f"  layer whose self time grew most: {out['grew_most']}")
    print(f"  failed-op share: ref {out['failed_share']['ref']:.3f}, "
          f"cand {out['failed_share']['cand']:.3f}")
    print("  fidelity: " + ("FIDELITY CHANGED: "
                            + "; ".join(out["fidelity_changes"])
                            if out["fidelity_changes"] else "identical"))
    return out


def run_ab(args, spec: dict) -> int:
    names = args.workload or list(WORKLOAD_NAMES)
    export_dir, ref_src = export_src(args.ab)
    sources = {"ref": ref_src, "cand": args.src}
    print(f"A/B: ref = {args.ab} ({ref_src}), cand = {args.src}")
    try:
        report = {name: compare_workload(name, args, spec, sources)
                  for name in names}
    finally:
        shutil.rmtree(export_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(AB_DIR)  # only if no other export is in it
    passed = not any(
        r["incorrect_runs"]["cand"] or r["incorrect_runs"]["ref"]
        or r["fidelity_changes"]
        or any(m["verdict"] == "REGRESSION" for m in r["metrics"].values())
        for r in report.values())
    print("A/B: " + ("no regression, fidelity unchanged, every run correct"
                     if passed else "FAILED (regression, fidelity change "
                                    "or incorrect run)"))
    print(json.dumps({"ab": report, "ref": args.ab, "passed": passed}))
    return 0 if passed else 1
