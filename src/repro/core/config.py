"""Migration configuration knobs.

Defaults correspond to the paper's setup: 4 KiB bit granularity, a handful
of pre-copy iterations with a proactive stop when the dirty rate outruns
the transfer rate, unthrottled migration bandwidth, and IM tracking enabled
after the primary migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import MigrationError
from ..units import BLOCK_SIZE, MiB


@dataclass
class MigrationConfig:
    """Tunable parameters of a TPM/IM migration run."""

    # -- block-bitmap --------------------------------------------------------
    #: ``"flat"`` or ``"layered"`` (paper §IV-A-2).
    bitmap_layout: str = "flat"
    #: Part size for the layered layout, in bits.
    leaf_bits: int = 4096

    # -- disk pre-copy ---------------------------------------------------
    #: Blocks per transfer chunk (1 MiB at 4 KiB blocks).  Chunks are the
    #: granularity at which migration I/O interleaves with guest I/O at the
    #: disk: much larger chunks starve the guest's small reads (visible as
    #: service-throughput dips the paper does not see on SPECweb), much
    #: smaller ones waste seeks.
    chunk_blocks: int = 256
    #: Hard cap on pre-copy iterations ("we limit the maximum number of
    #: iterations to avoid endless migration", §IV-A-1).  Four matches the
    #: paper's observed behaviour: Bonnie++ runs exactly 4 iterations while
    #: the calmer workloads converge in 2-3.
    max_disk_iterations: int = 4
    #: Stop iterating once the dirty set is at most this many blocks; the
    #: remainder is synchronized by post-copy.
    disk_dirty_threshold_blocks: int = 128
    #: Proactive stop: end pre-copy if the storage dirty rate exceeds this
    #: fraction of the achieved transfer rate (§IV-A-1).
    dirty_rate_stop_fraction: float = 0.9
    #: Disk-queue priority of migration I/O.  Guest I/O uses 0; the default
    #: of 0 means FIFO interleaving with guest requests (a real spindle does
    #: not privilege either side), which is what produces the paper's
    #: Figure 6 contention.  Raise it to favour guest I/O.
    migration_disk_priority: int = 0
    #: Chunks the bulk-transfer pipeline may hold read-but-unsent (the
    #: reader→sender buffer depth).  1 serialises read and send; larger
    #: values let the source disk run ahead of a slow network at the cost
    #: of buffering that many chunks in memory.
    pipeline_depth: int = 2

    # -- memory pre-copy ---------------------------------------------------
    #: Include memory + CPU in the migration (False = storage-only, used for
    #: Table II-style accounting; see EXPERIMENTS.md).
    include_memory: bool = True
    #: Pages per memory transfer chunk.
    mem_chunk_pages: int = 1024
    #: Maximum iterative memory pre-copy rounds (Xen uses a similar cap).
    max_mem_rounds: int = 30
    #: Enter freeze-and-copy once the dirty page set is at most this size.
    mem_dirty_threshold_pages: int = 256

    # -- bandwidth -------------------------------------------------------
    #: Migration rate limit in bytes/s for the *pre-copy* phase only
    #: (§VI-C-3); None = unthrottled.
    rate_limit: Optional[float] = None
    #: Token-bucket burst for the rate limiter (defaults to one second of
    #: budget when left None).
    rate_limit_burst: Optional[float] = None
    #: Compress bulk migration payloads before sending (paper §III-A:
    #: "compress the transferred data ... will show a reduction in total
    #: migration time").  Helps when the network is the bottleneck (WAN,
    #: rate-limited); on a fast LAN the disk is the limit and compression
    #: only adds CPU latency.
    compress: bool = False
    #: Compression ratio assumed for guest data (2:1 is typical for
    #: lz4/lzo-class codecs on mixed OS images).
    compression_ratio: float = 2.0
    #: Per-payload-kind compression ratios, keyed by the channel send
    #: category (``"disk"``, ``"memory"``, ...).  Kinds not listed fall
    #: back to :attr:`compression_ratio`.  Memory pages (zero-heavy) and
    #: delta-encoded disk chunks (already dense) compress very differently
    #: from raw disk blocks; None keeps the single-ratio behaviour.
    compression_ratios: Optional[dict] = None

    # -- adaptive transfer stack (ROADMAP item 2; all default OFF so the
    # -- default simulation stays bit-identical) ---------------------------
    #: XBZRLE-style delta compression: size in MiB of the bounded LRU
    #: cache of previously-sent block/page contents kept on the source.
    #: A re-send whose previous contents are still cached ships only the
    #: changed bytes (``1/delta_ratio`` of the unit); a miss or an entry
    #: evicted on overflow falls back to a full send.  ``0`` disables the
    #: cache entirely (the default).  See docs/TRANSFER.md.
    delta_cache_mb: float = 0.0
    #: Achieved delta-encoding ratio on a cache hit (full unit bytes over
    #: encoded bytes).  XBZRLE on sparsely-rewritten pages routinely
    #: reaches high single digits.
    delta_ratio: float = 8.0
    #: Sender CPU throughput of the delta encoder in bytes/s (the encoder
    #: scans old+new contents of every *hit* unit).
    delta_throughput: float = 800 * MiB
    #: Number of parallel lanes the bulk streamers stripe chunks across
    #: (QEMU multifd).  All lanes share the migration link, rate limiter,
    #: and compressor; ``1`` (the default) keeps the single pipelined
    #: channel.  See docs/TRANSFER.md for ordering guarantees.
    multifd_channels: int = 1
    #: Auto-converge: when a disk pre-copy iteration's dirty rate exceeds
    #: ``dirty_rate_stop_fraction`` of its transfer rate, throttle the
    #: guest's writes in steps (scaling each write's in-guest duration)
    #: instead of proactively giving up, until the pre-copy converges or
    #: the throttle maxes out.  Off by default.
    auto_converge: bool = False
    #: First write-throttle factor applied (1.0 = unthrottled; 2.0 makes
    #: every guest write take twice as long end-to-end).
    auto_converge_start: float = 2.0
    #: Additive factor increment per further escalation step.
    auto_converge_step: float = 2.0
    #: Ceiling on the throttle factor (QEMU caps its CPU throttle at 99%;
    #: a factor of 16 is a comparable ~94% write-rate reduction).
    auto_converge_max_factor: float = 16.0
    #: Iteration cap replacing ``max_disk_iterations`` while auto-converge
    #: is active — throttling needs room to bite, but the pre-copy must
    #: still terminate in bounded rounds.
    auto_converge_max_iterations: int = 30

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

    # -- incremental migration ---------------------------------------------
    #: Keep tracking writes on the destination after migration so a later
    #: migration back can be incremental (§V).
    track_incremental: bool = True

    # -- durable bitmaps (repro.persist) -----------------------------------
    #: Persist the pre-copy tracking bitmap to the source host's stable
    #: storage so a host crash mid-migration still allows an *incremental*
    #: retry after restart.  Off by default: persistence must not perturb
    #: the simulated timeline (the store itself charges zero simulated
    #: time, but this keeps the feature strictly opt-in).
    persist_bitmap: bool = False
    #: Store write-back policy: ``"wal"`` (flush every record; exact
    #: recovery), ``"batch"`` (flush every ``persist_flush_every``
    #: records), or ``"snapshot"`` (journal never flushed between
    #: snapshots; recovery over-marks up to guard-region granularity).
    persist_sync_policy: str = "wal"
    #: Records per journal flush under the ``"batch"`` policy.
    persist_flush_every: int = 64
    #: Blocks per eagerly-durable guard region (lazy policies over-mark at
    #: most this granularity per staged set batch).
    persist_region_bits: int = 4096
    #: Journal records accumulated before the store auto-compacts into a
    #: fresh snapshot.
    persist_snapshot_every: int = 4096

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

    block_size: int = BLOCK_SIZE

    def __post_init__(self) -> None:
        if self.bitmap_layout not in ("flat", "layered"):
            raise MigrationError(f"unknown bitmap layout {self.bitmap_layout!r}")
        if self.chunk_blocks < 1:
            raise MigrationError("chunk_blocks must be >= 1")
        if self.max_disk_iterations < 1:
            raise MigrationError("need at least one disk pre-copy iteration")
        if self.pipeline_depth < 1:
            raise MigrationError("pipeline_depth must be >= 1")
        if not 0 < self.dirty_rate_stop_fraction:
            raise MigrationError("dirty_rate_stop_fraction must be positive")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise MigrationError("rate_limit must be positive when set")
        if self.compression_ratio < 1.0:
            raise MigrationError("compression_ratio must be >= 1")
        if self.compression_ratios is not None:
            for kind, ratio in self.compression_ratios.items():
                if ratio < 1.0:
                    raise MigrationError(
                        f"compression ratio for {kind!r} must be >= 1")
        if self.delta_cache_mb < 0:
            raise MigrationError("delta_cache_mb cannot be negative")
        if self.delta_ratio < 1.0:
            raise MigrationError("delta_ratio must be >= 1")
        if self.delta_throughput <= 0:
            raise MigrationError("delta_throughput must be positive")
        if self.multifd_channels < 1:
            raise MigrationError("multifd_channels must be >= 1")
        if self.auto_converge_start <= 1.0:
            raise MigrationError("auto_converge_start must exceed 1.0")
        if self.auto_converge_step <= 0:
            raise MigrationError("auto_converge_step must be positive")
        if self.auto_converge_max_factor < self.auto_converge_start:
            raise MigrationError(
                "auto_converge_max_factor must be >= auto_converge_start")
        if self.auto_converge_max_iterations < 1:
            raise MigrationError("auto_converge_max_iterations must be >= 1")
        if self.push_chunk_blocks < 1:
            raise MigrationError("push_chunk_blocks must be >= 1")
        if self.max_mem_rounds < 1:
            raise MigrationError("need at least one memory round")
        from ..persist.store import SYNC_POLICIES

        if self.persist_sync_policy not in SYNC_POLICIES:
            raise MigrationError(
                f"unknown persist sync policy {self.persist_sync_policy!r};"
                f" valid: {SYNC_POLICIES}")
        if self.persist_flush_every < 1:
            raise MigrationError("persist_flush_every must be >= 1")
        if self.persist_region_bits < 1:
            raise MigrationError("persist_region_bits must be >= 1")
        if self.persist_snapshot_every < 1:
            raise MigrationError("persist_snapshot_every must be >= 1")

    def replace(self, **overrides) -> "MigrationConfig":
        """A copy of this config with the given fields changed."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **overrides)
