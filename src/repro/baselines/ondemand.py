"""On-demand fetching migration (paper §II-B, after Kozuch et al.).

Memory and CPU state migrate live; the VM resumes on the destination
immediately and disk blocks are fetched from the source only when first
accessed.  Downtime matches shared-storage migration, but the source can
never be shut down: any block the guest has not yet touched still lives
only there — the *irremovable residual dependency* the paper criticises.
With machine availability ``p``, the migrated system's availability is
``p**2`` (both machines must be up), worse than not migrating at all.

TPM's post-copy is this scheme's *pull* path plus a *push* stream that
ends the dependency in finite time, so the storage side here *is* TPM's
:class:`~repro.core.postcopy.PostCopySynchronizer` with every block dirty
and the push turned off (``postcopy_push=False``).
"""

from __future__ import annotations

from typing import Generator, Optional

from ..bitmap import FlatBitmap
from ..core.postcopy import PostCopySynchronizer
from ..core.scheme import MigrationScheme


def availability(p: float, machines: int = 2) -> float:
    """System availability when ``machines`` must all be up (paper §II-B)."""
    if not 0 <= p <= 1:
        raise ValueError(f"availability must be in [0, 1], got {p}")
    return p ** machines


class OnDemandMigration(MigrationScheme):
    """Live memory migration with delayed, access-driven storage fetching."""

    name = "on-demand"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: The pull-only post-copy that fetches blocks on first read; it
        #: runs in the background from the switch-over on.
        self.synchronizer: Optional[PostCopySynchronizer] = None

    # -- residual dependency -------------------------------------------------

    @property
    def residual_blocks(self) -> int:
        """Blocks still living only on the source machine."""
        if self.synchronizer is None:
            return 0
        return self.synchronizer.transferred_bitmap.count()

    @property
    def fetched_blocks(self) -> int:
        """Blocks fetched from the source on a guest read so far."""
        if self.synchronizer is None:
            return 0
        return self.synchronizer.stats.pulled_blocks

    @property
    def stalled_reads(self) -> int:
        """Guest reads that waited on a fetch so far."""
        if self.synchronizer is None:
            return 0
        return self.synchronizer.stats.stalled_reads

    @property
    def dependency_alive(self) -> bool:
        """True while the source machine cannot be shut down."""
        return self.residual_blocks > 0

    def stop(self) -> None:
        """Tear down the fetch service (end of the experiment)."""
        if self.synchronizer is not None:
            self.synchronizer.stop()

    # -- migration -------------------------------------------------------

    def _end_attrs(self) -> dict:
        attrs = super()._end_attrs()
        attrs["residual_blocks"] = self.residual_blocks
        return attrs

    def _execute(self) -> Generator:
        """Execute the live phase; returns a :class:`MigrationReport`.

        On return the VM runs on the destination but the fetch service
        keeps running in the background for as long as blocks are absent.
        """
        env = self.env
        report = self.report
        src_vbd = self.source.vbd_of(self.domain.domain_id)
        dest_vbd = self.destination.prepare_vbd(
            src_vbd.nblocks, src_vbd.block_size, data=src_vbd.has_data)

        # Live memory migration (identical to the shared-storage scheme).
        streamer = self._page_streamer()
        yield from self._precopy_memory(streamer)
        freeze_span = yield from self._freeze()
        cpu = yield from self._ship_memory(streamer)
        dst_driver = self._switch_over(dest_vbd, streamer, cpu)

        # Storage: nothing was transferred; everything is fetched on access.
        source_bitmap = FlatBitmap(src_vbd.nblocks)
        source_bitmap.set_all()
        transferred_bitmap = FlatBitmap(src_vbd.nblocks)
        transferred_bitmap.set_all()
        self.synchronizer = PostCopySynchronizer(
            env, self.source.disk, src_vbd, self.destination.disk, dest_vbd,
            dst_driver, self.fwd, self.rev,
            source_bitmap=source_bitmap,
            transferred_bitmap=transferred_bitmap,
            config=self.config.replace(postcopy_push=False))
        env.process(self.synchronizer.run(), name="ondemand:fetch")

        yield from self._resume(freeze_span)
        self._notify_phase("fetch")
        report.ended_at = env.now  # the *live* migration is over...
        report.extra["residual_blocks_at_resume"] = self.residual_blocks
        self._verify(src_vbd, dest_vbd, self.synchronizer.transferred_bitmap)
        return report
