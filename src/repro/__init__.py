"""repro — reproduction of "Live and Incremental Whole-System Migration of
Virtual Machines Using Block-Bitmap" (Luo et al., CLUSTER 2008).

The package implements the paper's Three-Phase Migration (TPM) and
Incremental Migration (IM) algorithms on a discrete-event simulation of
the paper's two-machine testbed, plus the baselines it compares against.

Quickstart::

    from repro.analysis import run_table1_experiment

    report, bed = run_table1_experiment("specweb", scale=0.01)
    print(report.summary())

Subpackages
-----------
``repro.sim``
    Discrete-event engine (environment, processes, resources, shards).
``repro.bitmap``
    Flat and layered block-bitmaps, granularity arithmetic.
``repro.storage``
    VBDs, the physical-disk model, and the intercepting backend driver.
``repro.net``
    Links, token-bucket rate limiting, typed migration channels.
``repro.vm``
    CPU state, guest memory with dirty logging, domains, hosts.
``repro.workloads``
    SPECweb banking, video streaming, Bonnie++, kernel build, idle.
``repro.core``
    TPM, IM, pre-copy/post-copy engines, the ``Migrator`` façade.
``repro.baselines``
    Freeze-and-copy, on-demand fetching, Bradford delta-queue, and
    shared-storage (memory-only) migration.
``repro.faults``
    Deterministic fault injection (link blackouts, degradation windows,
    host crashes) and bitmap-preserving failure recovery.
``repro.obs``
    Observability: hierarchical span tracer, metrics registry, and
    JSON / Chrome-trace exporters (see ``docs/OBSERVABILITY.md``).
``repro.analysis``
    Metrics, write-locality, tables, canned experiments.
"""

from .errors import (
    BitmapError,
    ConsistencyError,
    FaultError,
    MigrationError,
    MigrationFailed,
    NetworkError,
    ReproError,
    SimulationError,
    StorageError,
)
from .units import BLOCK_SIZE, GiB, Gbps, KiB, MiB, PAGE_SIZE, SECTOR_SIZE

__version__ = "1.0.0"

__all__ = [
    "BLOCK_SIZE",
    "BitmapError",
    "ConsistencyError",
    "FaultError",
    "GiB",
    "Gbps",
    "KiB",
    "MiB",
    "MigrationError",
    "MigrationFailed",
    "NetworkError",
    "PAGE_SIZE",
    "ReproError",
    "SECTOR_SIZE",
    "SimulationError",
    "StorageError",
    "__version__",
]
