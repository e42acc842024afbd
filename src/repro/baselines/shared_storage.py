"""Shared-storage live migration (Xen live migration / VMware VMotion).

The paper's Related Work §II-A: migrate memory and CPU state only,
assuming both machines mount the same disk.  This is the downtime target
TPM aims to match ("downtime ... close to shared-storage migration") —
and the scheme TPM generalises by adding local-storage migration.
"""

from __future__ import annotations

from typing import Generator

from ..core.scheme import MigrationScheme


class SharedStorageMigration(MigrationScheme):
    """Memory+CPU live migration over shared disk storage."""

    name = "shared-storage"

    def _execute(self) -> Generator:
        report = self.report
        # The disk is shared: the destination attaches the *same* VBD.
        shared_vbd = self.source.vbd_of(self.domain.domain_id)

        streamer = self._page_streamer()
        yield from self._precopy_memory(streamer)
        freeze_span = yield from self._freeze()
        cpu = yield from self._ship_memory(streamer)
        self._switch_over(shared_vbd, streamer, cpu)
        yield from self._resume(freeze_span)
        report.ended_at = self.env.now
        self._verify(shared_vbd, shared_vbd)  # holds by construction
        return report
