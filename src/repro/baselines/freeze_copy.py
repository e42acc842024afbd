"""Freeze-and-copy whole-system migration (Internet Suspend/Resume).

The paper's Related Work §II-B: suspend the VM, copy *all* of its state —
disk, memory, CPU — to the destination, then restart it there.  Exactly
one copy of the run-time state crosses the wire (no retransfers, no
protocol redundancy beyond headers), but the service is down for the
entire transfer: minutes to hours for tens of GB.  This is the downtime
baseline TPM's three phases exist to destroy.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..core.scheme import MigrationScheme
from ..core.transfer import BlockStreamer


class FreezeAndCopyMigration(MigrationScheme):
    """Suspend → copy everything → resume."""

    name = "freeze-and-copy"

    def _execute(self) -> Generator:
        env = self.env
        domain = self.domain
        cfg = self.config
        report = self.report
        tracer = env.tracer

        src_vbd = self.source.vbd_of(domain.domain_id)
        dest_vbd = self.destination.prepare_vbd(
            src_vbd.nblocks, src_vbd.block_size, data=src_vbd.has_data)

        # Freeze first: everything below happens with the VM down.
        freeze_span = yield from self._freeze()

        disk_span = tracer.begin("phase:copy-disk", category="phase",
                                 blocks=int(src_vbd.nblocks))
        report.precopy_disk_started_at = env.now
        streamer = BlockStreamer(env, self.source.disk, src_vbd,
                                 self.destination.disk, dest_vbd,
                                 self.fwd, cfg)
        yield from streamer.stream(
            np.arange(src_vbd.nblocks, dtype=np.int64),
            category="disk", limited=False)
        report.precopy_disk_ended_at = env.now
        tracer.end(disk_span)

        pages = self._page_streamer()
        cpu = yield from self._ship_memory(
            pages, np.arange(domain.memory.npages, dtype=np.int64))
        self._switch_over(dest_vbd, pages, cpu)
        yield from self._resume(freeze_span)
        report.ended_at = env.now
        self._verify(src_vbd, dest_vbd)
        return report
