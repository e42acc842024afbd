"""Tests of the benchmark itself.  Run from the repository root with
``python -m pytest perfbench`` (about ten minutes: every test runs the
benchmark in child processes)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ("sim", "vm", "storage", "bitmap", "core", "net", "cluster",
          "persist", "faults", "workloads", "obs", "other", "bench", "ext")


def bench(*args: str, timeout: float = 900) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def record(proc: subprocess.CompletedProcess) -> dict:
    prefix = "record: "
    return next(json.loads(line[len(prefix):])
                for line in proc.stdout.splitlines()
                if line.startswith(prefix))


def copy_src(tmp_path) -> str:
    dest = os.path.join(str(tmp_path), "src")
    shutil.copytree(os.path.join(ROOT, "src"), dest,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def loop_iteration_seconds(length: int = 150) -> float:
    """Cost of one iteration of a ``length``-long empty ``for`` loop in a
    resumed generator, as the patched ``BackendDriver.submit`` runs it,
    in reference-speed seconds (measured back to back with the speed
    probe)."""
    sys.path.insert(0, BENCH_DIR)
    import speed

    def body():
        while True:
            for _ in range(length):
                pass
            yield

    resumes = 2_000
    costs = []
    for _repeat in range(25):
        gen = body()
        probe = speed.probe_seconds()
        started = time.perf_counter()
        for _resume in range(resumes):
            next(gen)
        costs.append((time.perf_counter() - started) / (resumes * length)
                     * speed.REFERENCE_S / probe)
    return sorted(costs)[len(costs) // 2]


def patch(path: str, old: str, new: str) -> None:
    with open(path) as fh:
        text = fh.read()
    assert text.count(old) == 1, f"patch anchor not unique in {path}"
    with open(path, "w") as fh:
        fh.write(text.replace(old, new))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_declared_metrics(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if trace:
        shares = [result["metrics"][f"{layer}.share"]["value"]
                  for layer in LAYERS]
        assert sum(shares) == pytest.approx(1.0)
        assert result["metrics"]["trace_samples"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_chaos_split_matches_run_chaos():
    # The chaos workload splits run_chaos into set-up and run; the split
    # must leave every seed's outcome as run_chaos gives it.
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    from repro.cluster import run_chaos
    import workloads

    def outcome(report):
        return (report.succeeded, report.failed, report.dead_lettered,
                report.faults, report.violations,
                sorted((job.domain.name, job.status, job.attempts)
                       for job in report.jobs))

    chaos = workloads.Chaos(0)
    for index in range(8):
        state = chaos.setup(index)
        chaos.run(state)
        assert [outcome(r) for r in state.reports] == [
            outcome(run_chaos(chaos.chaos_config(state.seed, mode)))
            for mode in ("monolithic", "sharded")]


def test_no_src_fails_without_result(tmp_path):
    bare = os.path.join(str(tmp_path), "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chaos",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_simulated_output_fails_the_run(tmp_path):
    src = copy_src(tmp_path)
    # Every migration now reports two extra seconds of downtime, past
    # the benchmark's one-second TPM limit.
    patch(os.path.join(src, "repro", "core", "metrics.py"),
          "return self.resumed_at - self.suspended_at",
          "return self.resumed_at - self.suspended_at + 2.0")
    proc = bench("--workload", "paper_roundtrip", "--seed", "0",
                 "--seconds", "0", "--trace", "0", "--src", src)
    assert proc.returncode != 0
    result = last_json(proc)
    assert result["correct"] is False
    assert "downtime" in proc.stdout


def test_nondeterministic_output_fails_the_run(tmp_path):
    src = copy_src(tmp_path)
    # Wire bytes that change on every call break sample-to-sample identity.
    patch(os.path.join(src, "repro", "core", "metrics.py"),
          "return sum(self.bytes_by_category.values())",
          "return sum(self.bytes_by_category.values()) "
          "+ __import__('time').perf_counter_ns()")
    proc = bench("--workload", "scale_1k_host", "--seed", "0",
                 "--seconds", "0", "--trace", "0", "--src", src)
    assert proc.returncode != 0
    assert "simulated outputs differ" in proc.stdout


def test_check_fails_on_fidelity_change(tmp_path):
    src = copy_src(tmp_path)
    # Ten more milliseconds of downtime per migration stays well inside
    # the in-run limit but moves the paper-fidelity downtime error.
    patch(os.path.join(src, "repro", "core", "metrics.py"),
          "return self.resumed_at - self.suspended_at",
          "return self.resumed_at - self.suspended_at + 0.01")
    proc = bench("--smoke", "--check", "--workload", "paper_roundtrip",
                 "--seed", "0", "--src", src)
    assert proc.returncode != 0
    assert "FIDELITY CHANGED" in proc.stdout
    assert "core.downtime_err_pct" in proc.stdout
    assert "benchmark: FAILED" in proc.stdout


@pytest.mark.skipif(shutil.which("git") is None
                    or not os.path.isdir(os.path.join(ROOT, ".git")),
                    reason="needs a git checkout for the A/B reference")
def test_ab_flags_submit_slowdown_and_blames_storage(tmp_path):
    base = record(bench("--workload", "scale_1k_host", "--seed", "0",
                        "--seconds", "6", "--trace", "0"))
    # Size a busy loop in BackendDriver.submit so that it adds about 10 %
    # to the workload's run time, spread over every guest I/O it serves.
    # A loop of fixed length, unlike a wait on the clock, slows down with
    # the machine the way real code does; its cost is taken at the
    # benchmark's reference speed, like run_s.
    per_call = 0.10 * base["metrics"]["run_s"] / base["metrics"][
        "storage.guest_ios"]
    iterations = max(1, round(per_call / loop_iteration_seconds()))
    src = copy_src(tmp_path)
    patch(os.path.join(src, "repro", "storage", "blkback.py"),
          "        env = self.env\n        request.issue_time",
          f"        for _ in range({iterations}):\n"
          "            pass\n"
          "        env = self.env\n        request.issue_time")
    proc = bench("--ab", "HEAD", "--src", src, "--workload", "scale_1k_host",
                 "--seed", "0", "--seconds", "15", timeout=1800)
    report = last_json(proc)["ab"]["scale_1k_host"]
    assert report["metrics"]["run_s"]["verdict"] in ("worse", "REGRESSION"), \
        proc.stdout[-4000:]
    assert report["grew_most"] == "storage", proc.stdout[-4000:]
