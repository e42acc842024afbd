"""The paper's contribution: Three-Phase Migration and Incremental Migration.

Typical use::

    from repro.cluster.testbed import cluster_host
    from repro.sim import Environment
    from repro.storage import GenerationClock
    from repro.vm import Domain, GuestMemory
    from repro.core import Migrator, MigrationConfig

    env = Environment()
    clock = GenerationClock()
    src = cluster_host(env, "source", clock)
    dst = cluster_host(env, "destination", clock)
    dom = Domain(env, GuestMemory(131072, clock=clock))
    src.attach_domain(dom, src.prepare_vbd(nblocks))

    migrator = Migrator(env)
    migrator.connect(src, dst)
    proc = migrator.migrate_process(dom, dst)
    report = env.run(until=proc)
    print(report.summary())
"""

from .config import MigrationConfig
from .converge import AutoConvergeController
from .manager import SCHEMES, MigrationRetrier, Migrator, RetryPolicy
from .memcopy import MemoryPreCopier
from .metrics import IterationStats, MigrationReport, PostCopyStats
from .postcopy import PostCopySynchronizer
from .precopy import DiskPreCopier, TRACKING_NAME
from .scheme import MigrationScheme
from .tpm import IM_TRACKING_NAME, ThreePhaseMigration
from .transfer import BlockStreamer, PageStreamer, StreamStats

__all__ = [
    "AutoConvergeController",
    "BlockStreamer",
    "DiskPreCopier",
    "IM_TRACKING_NAME",
    "IterationStats",
    "MemoryPreCopier",
    "MigrationConfig",
    "MigrationReport",
    "MigrationRetrier",
    "MigrationScheme",
    "Migrator",
    "PageStreamer",
    "RetryPolicy",
    "SCHEMES",
    "PostCopyStats",
    "PostCopySynchronizer",
    "StreamStats",
    "ThreePhaseMigration",
    "TRACKING_NAME",
]
