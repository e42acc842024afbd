"""Canned experiment setups reproducing the paper's evaluation (§VI).

The full-scale testbed mirrors the paper's environment: two machines with
SATA2-class disks on a Gigabit LAN, one unprivileged VM with 512 MiB of
memory and a 39 070 MiB VBD.  ``scale`` shrinks everything proportionally
so unit/integration tests run in milliseconds while benchmarks run the
real geometry.

Every function here is deterministic given ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster.testbed import cluster_host
from ..core import SCHEMES, MigrationConfig, MigrationReport, Migrator
from ..errors import MigrationError, ReproError
from ..obs import MetricsRegistry, Tracer
from ..sim import Environment
from ..units import Gbps, KiB, MiB
from ..vm import Domain, GuestMemory, Host
from ..storage.vbd import GenerationClock
from ..workloads import (
    BonniePlusPlus,
    IdleWorkload,
    KernelBuild,
    MemoryDirtier,
    SpecWebBanking,
    VideoStreamServer,
    Workload,
)

#: Paper geometry.
FULL_DISK_MIB = 39_070
FULL_MEM_PAGES = 131_072  # 512 MiB of 4 KiB pages
FULL_DISK_BLOCKS = FULL_DISK_MIB * MiB // (4 * KiB)

#: Paper's Table I, for paper-vs-measured reporting.
PAPER_TABLE1 = {
    "specweb": {"total_s": 796, "downtime_ms": 60, "data_mb": 39097},
    "video": {"total_s": 798, "downtime_ms": 62, "data_mb": 39072},
    "bonnie": {"total_s": 957, "downtime_ms": 110, "data_mb": 40934},
}

#: Paper's Table II (IM back-migration).
PAPER_TABLE2 = {
    "specweb": {"time_s": 1.0, "data_mb": 52.5},
    "video": {"time_s": 0.6, "data_mb": 5.5},
    "bonnie": {"time_s": 17.0, "data_mb": 911.4},
}

#: Paper's §IV-A-2 write-locality measurements.
PAPER_LOCALITY = {"kernelbuild": 0.11, "specweb": 0.252, "bonnie": 0.356}


@dataclass
class Testbed:
    """A ready-to-run two-machine experiment."""

    env: Environment
    source: Host
    destination: Host
    domain: Domain
    workload: Workload
    migrator: Migrator
    config: MigrationConfig
    scale: float = 1.0

    def start_workload(self) -> None:
        self.workload.start(self.env)

    @property
    def tracer(self):
        """The environment's tracer (a no-op unless built with observe)."""
        return self.env.tracer

    @property
    def metrics(self):
        """The environment's metrics registry: every workload series, and
        the migration's own instruments."""
        return self.env.metrics

    def run_for(self, seconds: float) -> None:
        """Advance the simulation by ``seconds``."""
        self.env.run(until=self.env.now + seconds)

    def migrate(self, destination: Optional[Host] = None,
                config: Optional[MigrationConfig] = None) -> MigrationReport:
        """Migrate the domain (default: away from its current host)."""
        if destination is None:
            destination = (self.destination
                           if self.domain.host is self.source
                           else self.source)
        proc = self.migrator.migrate_process(
            self.domain, destination, config,
            workload_name=self.workload.name)
        return self.env.run(until=proc)


def _scaled_memory_dirtier(npages: int, wss: int, rate: float,
                           hot_prob: float = 0.9) -> MemoryDirtier:
    wss = max(min(wss, npages // 4), 1)
    return MemoryDirtier(npages, wss_pages=wss, pages_per_second=max(rate, 1.0),
                         hot_prob=hot_prob)


def make_workload(name: str, nblocks: int, npages: int, seed: int,
                  mem_scale: float = 1.0) -> Workload:
    """Build one of the paper's workloads with regions scaled to the disk."""
    n = nblocks
    if name == "specweb":
        return SpecWebBanking(
            seed=seed,
            data_region=(0, max(int(n * 0.20), 64)),
            log_region=(int(n * 0.20), max(int(n * 0.012), 64)),
            memory_dirtier=_scaled_memory_dirtier(
                npages, 6_000, 2_500.0 * mem_scale),
        )
    if name == "video":
        video_blocks = min(max(int(n * 0.01), 32), 53_760)
        return VideoStreamServer(
            seed=seed,
            video_region=(max(int(n * 0.02), 0), video_blocks),
            log_region=(int(n * 0.40), max(int(n * 0.001), 16)),
            memory_dirtier=_scaled_memory_dirtier(
                npages, 1_500, 400.0 * mem_scale, hot_prob=0.95),
        )
    if name == "bonnie":
        file_blocks = min(max(int(n * 0.026), 64), 262_144)
        return BonniePlusPlus(
            seed=seed,
            file_region=(max(int(n * 0.05), 0), file_blocks),
            # Seek count proportional to the file keeps the per-pass op mix
            # (and hence the rewrite-locality fraction) scale-invariant.
            seeks_per_pass=max(file_blocks // 11, 16),
            memory_dirtier=_scaled_memory_dirtier(
                npages, 4_000, 1_500.0 * mem_scale),
        )
    if name == "kernelbuild":
        # The output region must comfortably exceed what one build writes,
        # or the append frontier wraps and every write looks like a rewrite
        # (the real build tree is far larger than its object output).
        out_start = max(int(n * 0.02), 64)
        out_blocks = min(max(int(n * 0.01), 24_000), max(int(n * 0.3), 64))
        return KernelBuild(
            seed=seed,
            source_region=(0, max(int(n * 0.02), 64)),
            output_region=(out_start, out_blocks),
            memory_dirtier=_scaled_memory_dirtier(
                npages, 8_000, 4_000.0 * mem_scale, hot_prob=0.85),
        )
    if name == "idle":
        return IdleWorkload(seed=seed)
    raise ReproError(f"unknown workload {name!r}")


def build_testbed(
    workload: str = "specweb",
    scale: float = 1.0,
    seed: int = 0,
    config: Optional[MigrationConfig] = None,
    link_bandwidth: float = 1 * Gbps,
    link_latency: float = 100e-6,
    prefill: "bool | float" = True,
    service_nic: Optional[str] = None,
    observe: bool = False,
) -> Testbed:
    """Assemble the two-machine testbed of §VI-A at the given scale.

    ``prefill`` may be a fraction in [0, 1]: how much of the VBD has ever
    been written (``True`` = 1.0).  Partially-filled disks are what the
    guest-aware migration extension exploits.

    ``service_nic`` selects how client-facing traffic is modelled
    (paper §IV-A-4): ``None`` — not modelled (service bytes are free, the
    default used by the main calibration); ``"shared"`` — responses ride
    the same link the migration uses; ``"secondary"`` — responses get
    their own dedicated NIC at ``link_bandwidth``.

    The environment always carries a live
    :class:`~repro.obs.MetricsRegistry`: the workload's series live there,
    for :mod:`repro.analysis.throughput` to read.  ``observe=True`` adds a
    live :class:`~repro.obs.Tracer` (see ``docs/OBSERVABILITY.md``);
    recording never advances the simulated clock, so results are
    numerically identical either way.
    """
    if not 0 < scale <= 1:
        raise ReproError(f"scale must be in (0, 1], got {scale}")
    env = Environment()
    env.metrics = MetricsRegistry(env)
    if observe:
        env.tracer = Tracer(env)
    clock = GenerationClock()
    source = cluster_host(env, "source", clock)
    destination = cluster_host(env, "destination", clock)

    nblocks = max(int(FULL_DISK_BLOCKS * scale), 256)
    npages = max(int(FULL_MEM_PAGES * scale), 64)
    vbd = source.prepare_vbd(nblocks)
    fill = 1.0 if prefill is True else (0.0 if prefill is False
                                        else float(prefill))
    if not 0.0 <= fill <= 1.0:
        raise ReproError(f"prefill fraction must be in [0, 1], got {fill}")
    filled_blocks = int(nblocks * fill)
    if filled_blocks:
        vbd.write(0, filled_blocks)

    domain = Domain(env, GuestMemory(npages, clock=clock), name="domU")
    source.attach_domain(domain, vbd)

    wl = make_workload(workload, nblocks, npages, seed, mem_scale=scale)

    cfg = config if config is not None else MigrationConfig()
    migrator = Migrator(env, cfg)
    duplex = migrator.connect(source, destination, link_bandwidth,
                              link_latency)

    service_link = None
    if service_nic == "shared":
        service_link = duplex.forward  # responses contend with migration
    elif service_nic == "secondary":
        from ..net.link import Link

        service_link = Link(env, link_bandwidth, link_latency,
                            name="service-nic")
    elif service_nic is not None:
        raise ReproError(f"unknown service_nic mode {service_nic!r}")
    wl.bind(domain, service_link=service_link)

    return Testbed(env, source, destination, domain, wl, migrator, cfg, scale)


# ---------------------------------------------------------------------------
# Experiment runners (one per table / figure)
# ---------------------------------------------------------------------------


def run_table1_experiment(workload: str, scale: float = 1.0, seed: int = 0,
                          config: Optional[MigrationConfig] = None,
                          warmup: float = 20.0,
                          observe: bool = False) -> tuple[MigrationReport, Testbed]:
    """Table I: one primary TPM migration under the given workload."""
    bed = build_testbed(workload, scale=scale, seed=seed, config=config,
                        observe=observe)
    bed.start_workload()
    bed.run_for(warmup)
    report = bed.migrate()
    return report, bed


def run_table2_experiment(workload: str, scale: float = 1.0, seed: int = 0,
                          warmup: float = 20.0, dwell: float = 30.0,
                          observe: bool = False,
                          ) -> tuple[MigrationReport, MigrationReport, Testbed]:
    """Table II: primary TPM, dwell on the destination, IM back."""
    bed = build_testbed(workload, scale=scale, seed=seed, observe=observe)
    bed.start_workload()
    bed.run_for(warmup)
    primary = bed.migrate()
    bed.run_for(dwell)
    back = bed.migrate()
    if not back.incremental:
        raise ReproError("back-migration unexpectedly ran as a full TPM")
    return primary, back, bed


def run_figure_experiment(workload: str, scale: float = 1.0,
                          config: Optional[MigrationConfig] = None,
                          migration_start: float = 60.0,
                          tail: float = 120.0,
                          observe: bool = False,
                          ) -> tuple[MigrationReport, Testbed]:
    """Figures 5/6: throughput time series around one migration."""
    bed = build_testbed(workload, scale=scale, config=config,
                        observe=observe)
    bed.start_workload()
    bed.run_for(migration_start)
    report = bed.migrate()
    bed.run_for(tail)
    bed.workload.stop()
    bed.env.run()
    return report, bed


def run_locality_experiment(workload: str, duration: float = 120.0,
                            scale: float = 0.05, seed: int = 0,
                            warmup: float = 30.0, observe: bool = False):
    """§IV-A-2: measure a workload's rewrite locality (no migration).

    For steady-flow workloads the counters are reset after ``warmup``
    (keeping the seen-block history) so the startup all-fresh transient
    does not dilute the steady-state fraction.  For phased Bonnie++ the
    paper's number describes one benchmark *run*: the file is created
    fresh (putc) and then rewritten by the later phases, so the window is
    aligned to exactly one full pass via the pass-start hook.
    """
    from .locality import attach_tracker

    bed = build_testbed(workload, scale=scale, seed=seed, observe=observe)
    tracker = attach_tracker(bed.source.driver_of(bed.domain.domain_id))
    bed.start_workload()

    if workload == "bonnie":
        captured: dict = {}

        def on_pass(index: int) -> None:
            if index == 1:
                tracker.reset()  # fresh file, fresh history: pass 2 starts
            elif index == 2 and "stats" not in captured:
                captured["stats"] = tracker.stats()

        bed.workload.pass_observers.append(on_pass)
        deadline = bed.env.now + warmup + duration * 20
        while "stats" not in captured and bed.env.now < deadline:
            bed.run_for(5.0)
        bed.workload.stop()
        bed.env.run(until=bed.env.now + 0.1)
        if "stats" not in captured:
            raise ReproError(
                "Bonnie++ never completed a full pass; raise duration/scale")
        return captured["stats"], bed

    bed.run_for(warmup)
    tracker.reset(counters_only=True)
    bed.run_for(duration)
    bed.workload.stop()
    bed.env.run(until=bed.env.now + 0.1)
    return tracker.stats(), bed


def run_baseline_experiment(scheme: str, workload: str = "specweb",
                            scale: float = 0.01, seed: int = 0,
                            config: Optional[MigrationConfig] = None,
                            warmup: float = 10.0, tail: float = 20.0,
                            observe: bool = False):
    """Run one migration scheme (TPM or a baseline) on the shared testbed.

    Every scheme — TPM included — goes through
    :meth:`~repro.core.manager.Migrator.migrate`, so they all share the
    same harness: channel wiring, rate limiting, history recording, fault
    injection, and tracing.

    Returns ``(report, bed, migration)``; the migration object exposes
    scheme-specific state such as the on-demand baseline's residual
    dependency.  ``tail`` seconds of post-migration run time let the
    on-demand baseline accumulate that behaviour before the experiment
    ends.  An unknown ``scheme`` raises
    :class:`~repro.errors.MigrationError` before any testbed is built.
    """
    if scheme not in SCHEMES:
        raise MigrationError(
            f"unknown migration scheme {scheme!r}; choose one of: "
            f"{', '.join(SCHEMES)}")
    bed = build_testbed(workload, scale=scale, seed=seed, config=config,
                        observe=observe)
    bed.start_workload()
    bed.run_for(warmup)

    proc = bed.migrator.migrate_process(
        bed.domain, bed.destination, config, workload_name=workload,
        scheme=scheme)
    report = bed.env.run(until=proc)
    bed.run_for(tail)
    return report, bed, bed.migrator.migrations[-1]


def run_tracking_overhead_experiment(
    workload: str = "bonnie", duration: float = 60.0, scale: float = 0.02,
    tracking_op_overhead: float = 5e-6,
) -> tuple[float, float]:
    """Table III (simulated side): guest throughput with vs without the
    block-bitmap marking cost on the write path.

    Returns ``(normal_rate, tracked_rate)`` in bytes/second.  The *real*
    cost of our bitmap implementation is measured separately by
    ``benchmarks/bench_table3_overhead.py`` with pytest-benchmark.
    """
    from ..bitmap import make_bitmap

    rates = []
    for tracked in (False, True):
        bed = build_testbed(workload, scale=scale)
        driver = bed.source.driver_of(bed.domain.domain_id)
        driver.tracking_op_overhead = tracking_op_overhead
        if tracked:
            driver.start_tracking(
                "im", make_bitmap(driver.vbd.nblocks, "flat"))
        bed.start_workload()
        bed.run_for(duration)
        bed.workload.stop()
        bed.env.run()
        rates.append(bed.workload.bytes_processed / duration)
    return rates[0], rates[1]
