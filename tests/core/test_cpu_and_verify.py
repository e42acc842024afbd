"""Regression tests for the freeze-and-copy CPU transfer and the verify step.

1. CPU state must be captured on the *source* before the domain moves and
   restored on the destination — a self-round-trip after detach/attach
   silently resumed from whatever the in-memory object held at that point.
2. Every scheme checks its destination through the one verify step, and a
   failure names the offending blocks.
"""

import numpy as np
import pytest

from repro.core import SCHEMES
from repro.core.scheme import MigrationScheme
from repro.errors import ConsistencyError, MigrationError
from repro.storage import VirtualBlockDevice


class TestCPUStateTransfer:
    def test_cpu_context_survives_host_side_corruption(self, bed):
        """The destination resumes from the snapshot shipped at freeze,
        not from whatever the CPU object holds after detach."""
        bed.domain.cpu.context["pc"] = 0x1234
        original_detach = bed.source.detach_domain

        def corrupting_detach(domain_id):
            result = original_detach(domain_id)
            # Host-side teardown scribbles on the live CPU object between
            # detach and attach; the shipped snapshot must win.
            bed.domain.cpu.context["pc"] = 0xDEAD
            return result

        bed.source.detach_domain = corrupting_detach
        report = bed.migrate()
        assert report.consistency_verified
        assert bed.domain.host is bed.destination
        assert bed.domain.cpu.context["pc"] == 0x1234

    def test_cpu_version_bumped_exactly_once(self, bed):
        before = bed.domain.cpu.version
        bed.migrate()
        # One capture (at freeze, when the CPUStateMsg ships) and the
        # restore adopts that snapshot's version.
        assert bed.domain.cpu.version == before + 1

    def test_writes_after_capture_would_be_lost_loudly(self, bed):
        """Sanity: mutating after the freeze capture does NOT survive —
        the snapshot semantics are capture-at-freeze, not capture-latest."""
        bed.domain.cpu.context["pc"] = 1

        def mutate_late(domain_id):
            result = original(domain_id)
            bed.domain.cpu.context["scratch"] = True
            return result

        original = bed.source.detach_domain
        bed.source.detach_domain = mutate_late
        bed.migrate()
        assert "scratch" not in bed.domain.cpu.context


class TestVerifyStep:
    """Every scheme ends in the one verify step; a destination that missed
    an update fails it with the blocks named."""

    def run_missing(self, bed, monkeypatch, blocks, scheme="tpm"):
        real = MigrationScheme._verify

        def missed_update(self, src_vbd, dest_vbd, pending=None):
            # The source as it would be after writes to ``blocks`` that
            # never reached the destination.
            ahead = VirtualBlockDevice(src_vbd.nblocks, src_vbd.block_size,
                                       clock=src_vbd.clock)
            every = np.arange(src_vbd.nblocks)
            ahead.import_blocks(every, src_vbd.export_blocks(every)[0])
            for block in blocks:
                ahead.write(block)
            if pending is not None:
                pending.clear_many(np.asarray(blocks))  # count as delivered
            real(self, ahead, dest_vbd, pending)

        monkeypatch.setattr(MigrationScheme, "_verify", missed_update)
        proc = bed.migrator.migrate_process(bed.domain, bed.destination,
                                            scheme=scheme)
        with pytest.raises(MigrationError) as excinfo:
            bed.env.run(until=proc)
        assert isinstance(excinfo.value, ConsistencyError)
        return str(excinfo.value)

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_missed_update_names_blocks(self, bed, monkeypatch, scheme):
        message = self.run_missing(bed, monkeypatch, [7], scheme)
        assert "1 blocks inconsistent after migration" in message
        assert "offending blocks: [7]" in message

    def test_long_block_list_is_truncated(self, bed, monkeypatch):
        message = self.run_missing(bed, monkeypatch, list(range(20)))
        assert "20 blocks" in message
        assert ", ..." in message
        assert "19" not in message.split("offending")[1]
