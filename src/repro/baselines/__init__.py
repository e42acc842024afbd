"""Baseline migration schemes the paper compares TPM against (§II).

* :class:`SharedStorageMigration` — Xen live migration / VMotion: memory +
  CPU only, disk assumed shared.  TPM's downtime target.
* :class:`FreezeAndCopyMigration` — Internet Suspend/Resume: stop the VM,
  copy everything, restart.  Minimal data, catastrophic downtime.
* :class:`OnDemandMigration` — resume immediately, fetch disk blocks on
  first access.  Short downtime, *irremovable* source dependency and
  availability p².
* :class:`DeltaQueueMigration` — Bradford et al. forward-and-replay:
  pre-copy once, forward every write as a delta, replay at the
  destination while blocking guest I/O.  Redundant under write locality.

All four run on exactly the same testbed substrate as TPM, so their
reports are directly comparable (see ``benchmarks/bench_ablation_baselines.py``).
"""

# The scheme table in repro.core.manager imports this package's modules;
# loading repro.core first lets it do so however the import began.
from .. import core  # noqa: F401
from .delta import DeltaQueueMigration
from .freeze_copy import FreezeAndCopyMigration
from .ondemand import OnDemandMigration, availability
from .shared_storage import SharedStorageMigration

__all__ = [
    "DeltaQueueMigration",
    "FreezeAndCopyMigration",
    "OnDemandMigration",
    "SharedStorageMigration",
    "availability",
]
