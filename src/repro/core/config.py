"""Migration configuration knobs.

Defaults correspond to the paper's setup: 4 KiB bit granularity, a handful
of pre-copy iterations with a proactive stop when the dirty rate outruns
the transfer rate, unthrottled migration bandwidth, and IM tracking enabled
after the primary migration.  The policy values no caller varies (the
proactive-stop fraction, the memory round cap, the auto-converge steps,
the pipeline depth) are module constants next to the code that reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import MigrationError


@dataclass
class MigrationConfig:
    """Tunable parameters of a TPM/IM migration run."""

    # -- block-bitmap --------------------------------------------------------
    #: ``"flat"`` or ``"layered"`` (paper §IV-A-2).
    bitmap_layout: str = "flat"
    #: Part size for the layered layout, in bits.  Only tests set it:
    #: ``test_stress::test_im_with_layered_bitmaps`` is the one
    #: migration-level run of a layered bitmap with many leaves.
    leaf_bits: int = 4096

    # -- disk pre-copy ---------------------------------------------------
    #: Blocks per transfer chunk (1 MiB at 4 KiB blocks).  Chunks are the
    #: granularity at which migration I/O interleaves with guest I/O at the
    #: disk: much larger chunks starve the guest's small reads (visible as
    #: service-throughput dips the paper does not see on SPECweb), much
    #: smaller ones waste seeks.  Only tests vary it: the migration
    #: property test draws it, which reaches guest/transfer interleavings
    #: the fixed default never produces (one such draw found a post-copy
    #: block counted twice).
    chunk_blocks: int = 256
    #: Hard cap on pre-copy iterations ("we limit the maximum number of
    #: iterations to avoid endless migration", §IV-A-1).  Four matches the
    #: paper's observed behaviour: Bonnie++ runs exactly 4 iterations while
    #: the calmer workloads converge in 2-3.
    max_disk_iterations: int = 4
    #: Stop iterating once the dirty set is at most this many blocks; the
    #: remainder is synchronized by post-copy.
    disk_dirty_threshold_blocks: int = 128

    # -- memory pre-copy ---------------------------------------------------
    #: Include memory + CPU in the migration (False = storage-only, used for
    #: Table II-style accounting; see EXPERIMENTS.md).  Only tests set it:
    #: with no memory send, a crash before the harvest reaches the
    #: harvest-time crash check
    #: (``test_sharded_faults::test_crash_and_restart_before_harvest_fails_the_attempt``).
    include_memory: bool = True
    #: Pages per memory transfer chunk.
    mem_chunk_pages: int = 1024
    #: Enter freeze-and-copy once the dirty page set is at most this size.
    mem_dirty_threshold_pages: int = 256

    # -- bandwidth -------------------------------------------------------
    #: Migration rate limit in bytes/s for the *pre-copy* phase only
    #: (§VI-C-3); None = unthrottled.  The token bucket holds one second
    #: of budget.
    rate_limit: Optional[float] = None
    #: Compress bulk migration payloads before sending (paper §III-A:
    #: "compress the transferred data ... will show a reduction in total
    #: migration time").  Helps when the network is the bottleneck (WAN,
    #: rate-limited); on a fast LAN the disk is the limit and compression
    #: only adds CPU latency.
    compress: bool = False
    #: Compression ratio assumed for guest data (2:1 is typical for
    #: lz4/lzo-class codecs on mixed OS images).
    compression_ratio: float = 2.0

    # -- adaptive transfer stack (docs/TRANSFER.md; all default OFF so the
    # -- default simulation stays bit-identical) ---------------------------
    #: XBZRLE-style delta compression: size in MiB of the bounded LRU
    #: cache of previously-sent block/page contents kept on the source.
    #: A re-send whose previous contents are still cached ships only the
    #: changed bytes; a miss or an entry evicted on overflow falls back to
    #: a full send.  ``0`` disables the cache entirely (the default).
    delta_cache_mb: float = 0.0
    #: Number of parallel lanes the bulk streamers stripe chunks across
    #: (QEMU multifd).  All lanes share the migration link, rate limiter,
    #: and compressor; ``1`` (the default) keeps the single pipelined
    #: channel.  See docs/TRANSFER.md for ordering guarantees.
    multifd_channels: int = 1
    #: Auto-converge: when a disk pre-copy iteration trips the proactive
    #: stop, throttle the guest's writes in steps (scaling each write's
    #: in-guest duration) instead of giving up, until the pre-copy
    #: converges or the throttle maxes out (see ``core/converge.py``).
    auto_converge: bool = False

    # -- post-copy -------------------------------------------------------
    #: Blocks per push batch.  Small batches keep pulled blocks from
    #: queueing behind long pushes.
    push_chunk_blocks: int = 64
    #: Enable the source's continuous push stream.  Disabling it leaves a
    #: pure pull-on-read post-copy — the on-demand behaviour whose
    #: unbounded source dependency the paper's push exists to avoid.  Used
    #: by the post-copy ablation; with it off, the phase ends only once the
    #: guest has touched every dirty block.
    postcopy_push: bool = True

    # -- durable bitmaps (repro.persist) -----------------------------------
    #: Persist the pre-copy tracking bitmap to the source host's stable
    #: storage so a host crash mid-migration still allows an *incremental*
    #: retry after restart.  Off by default: persistence must not perturb
    #: the simulated timeline (the store itself charges zero simulated
    #: time, but this keeps the feature strictly opt-in).
    persist_bitmap: bool = False
    #: Store write-back policy: ``"wal"`` (flush every record; exact
    #: recovery), ``"batch"`` (flush every 64 records), or ``"snapshot"``
    #: (journal never flushed between snapshots; recovery over-marks up to
    #: guard-region granularity).
    persist_sync_policy: str = "wal"

    # -- guest-aware migration (paper §VII future work, implemented) --------
    #: Skip blocks the guest never wrote: a never-written block is all
    #: zeroes on both the source and a freshly prepared destination VBD, so
    #: the first pre-copy iteration can transfer only the allocated set.
    #: "If the Guest OS ... can tell the migration process which part is
    #: not used, the amount of migrated data can be reduced further."
    guest_aware: bool = False

    # -- freeze costs ------------------------------------------------------
    #: Fixed hypervisor cost of suspending the domain (device quiesce,
    #: ring teardown).  Xen-era measurements put suspend+resume in the
    #: tens of milliseconds; these are charged inside the downtime window.
    suspend_overhead: float = 0.020
    #: Fixed hypervisor cost of resuming on the destination (device
    #: reattach, network fail-over ARP).
    resume_overhead: float = 0.030

    def __post_init__(self) -> None:
        if self.bitmap_layout not in ("flat", "layered"):
            raise MigrationError(f"unknown bitmap layout {self.bitmap_layout!r}")
        # Written as ``not x >= bound`` so a NaN fails the check too.
        for name in ("chunk_blocks", "max_disk_iterations", "mem_chunk_pages",
                     "leaf_bits", "multifd_channels", "push_chunk_blocks"):
            if not getattr(self, name) >= 1:
                raise MigrationError(f"{name} must be >= 1")
        for name in ("disk_dirty_threshold_blocks", "mem_dirty_threshold_pages",
                     "delta_cache_mb", "suspend_overhead", "resume_overhead"):
            if not getattr(self, name) >= 0:
                raise MigrationError(f"{name} cannot be negative")
        if self.rate_limit is not None and not self.rate_limit > 0:
            raise MigrationError("rate_limit must be positive when set")
        if not self.compression_ratio >= 1.0:
            raise MigrationError("compression_ratio must be >= 1")
        from ..persist.store import SYNC_POLICIES

        if self.persist_sync_policy not in SYNC_POLICIES:
            raise MigrationError(
                f"unknown persist sync policy {self.persist_sync_policy!r};"
                f" valid: {SYNC_POLICIES}")

    def replace(self, **overrides) -> "MigrationConfig":
        """A copy of this config with the given fields changed."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **overrides)
