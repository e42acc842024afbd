"""Exception hierarchy for the :mod:`repro` package.

Every error raised by library code derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation engine."""


class StaleSchedulingError(SimulationError):
    """Raised when an event is scheduled into the simulated past."""


class BitmapError(ReproError):
    """Raised for invalid block-bitmap operations (bad index, size mismatch)."""


class StorageError(ReproError):
    """Raised for invalid virtual-block-device operations."""


class NetworkError(ReproError):
    """Raised for invalid network-channel operations."""


class MigrationError(ReproError):
    """Raised when a migration cannot proceed (bad configuration, source and
    destination disagree about geometry, VM in the wrong lifecycle state)."""


class ConsistencyError(StorageError, MigrationError):
    """An import over a running guest's write, or a delivered block older on
    the destination: always a bug, so as a MigrationError never retried."""


class NoValidHost(MigrationError):
    """Raised when placement runs out of candidates: every host in the
    cluster was eliminated by the placement filters (crashed, in a
    maintenance window, over capacity, uplink saturated, breaker open).

    Carries a per-filter elimination breakdown so callers can report
    *why* the cluster had no room, nova-style.
    """

    def __init__(self, message: str, eliminated: dict | None = None) -> None:
        super().__init__(message)
        #: filter name -> number of candidates that filter rejected.
        self.eliminated = dict(eliminated or {})


class AdmissionRejected(MigrationError):
    """Raised when the cluster scheduler sheds new work at submission:
    too large a fraction of the fleet's circuit breakers are open, so
    piling more migrations on the survivors would only deepen the
    incident.  Carries the open fraction that tripped the rejection."""

    def __init__(self, message: str, open_fraction: float = 0.0) -> None:
        super().__init__(message)
        self.open_fraction = open_fraction


class MigrationFailed(MigrationError):
    """Raised when an in-flight migration dies mid-way (link blackout, host
    crash) rather than being cancelled on purpose.

    Carries the partial :class:`~repro.core.metrics.MigrationReport` and —
    when the pre-copy write-tracking bitmap survived on the source — the
    destination's partially populated VBD, so a retry can resume
    incrementally instead of restarting from scratch (§V's mechanism
    repurposed as fault tolerance).
    """

    def __init__(self, message: str, report=None, dest_vbd=None) -> None:
        super().__init__(message)
        #: Partial report of the failed attempt (phase timings, wire bytes).
        self.report = report
        #: Destination VBD holding the blocks confirmed before the failure,
        #: or None when nothing usable survived.
        self.dest_vbd = dest_vbd


class FaultError(ReproError):
    """Raised for invalid fault-plan specifications."""


class PersistError(ReproError):
    """Raised for invalid durable-bitmap-store operations (corrupt snapshot
    or journal, unknown format version, session misuse).  Recovery itself
    never raises for *data loss* — a lost journal tail degrades to
    conservative over-marking — only for misuse or unrecoverable state."""
