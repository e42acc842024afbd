"""Auto-converge: guest write throttling when pre-copy cannot keep up.

The paper's proactive stop (§IV-A-1) gives up on iterating the moment the
storage dirty rate outruns the achieved transfer rate and hands the
remainder to post-copy.  Production hypervisors have a second answer:
QEMU's *auto-converge* throttles the guest's CPU in steps, shrinking the
dirty rate until the pre-copy converges.  This controller models that
loop for the diabolical (Bonnie++-class) workloads that otherwise never
converge:

* **Observation point** — the end of every disk pre-copy iteration, with
  that iteration's :class:`~repro.core.metrics.IterationStats` (the same
  dirty-rate/transfer-rate numbers the proactive stop reads).
* **Trigger** — :attr:`~repro.core.metrics.IterationStats.outruns_transfer`
  (the exact condition that would otherwise stop the pre-copy).
* **Actuation** — the domain's :attr:`~repro.vm.domain.Domain.write_throttle`
  factor: every guest *write* is stretched to ``factor ×`` its unthrottled
  duration, scaling a closed-loop writer's inter-write delay and hence its
  dirty rate by ``~1/factor``.  Reads and memory touches are untouched
  (the disk dirty rate is what blocks convergence here).
* **Escalation** — first step jumps to :data:`THROTTLE_START`, each
  further trigger adds :data:`THROTTLE_STEP`, capped at
  :data:`THROTTLE_MAX`.  Once capped, the controller stops escalating and
  the normal stop conditions (including the proactive stop) terminate
  the pre-copy — rounds stay bounded either way via
  :data:`MAX_ITERATIONS`.
* **Release** — the throttle is dropped at freeze (the guest suspends
  anyway, and it must resume unthrottled on the destination) and on every
  abort/failure path.

Every step is recorded (time, factor) and surfaced in
``report.extra["auto_converge_*"]`` plus the ``autoconverge.throttle``
gauge.  Off by default (``MigrationConfig.auto_converge=False``): no
controller is constructed, no throttle branch is ever taken, and the
simulation is bit-identical to the baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import IterationStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment
    from ..vm.domain import Domain

#: First write-throttle factor (2.0 makes every guest write take twice as
#: long end-to-end).
THROTTLE_START = 2.0
#: Additive factor increment per further escalation step.
THROTTLE_STEP = 2.0
#: Ceiling on the throttle factor (QEMU caps its CPU throttle at 99%; a
#: factor of 16 is a comparable ~94% write-rate reduction).
THROTTLE_MAX = 16.0
#: Pre-copy iteration cap replacing ``max_disk_iterations`` while
#: auto-converge is on: throttling needs room to bite, but the pre-copy
#: must still terminate in bounded rounds.
MAX_ITERATIONS = 30


class AutoConvergeController:
    """Steps up guest write throttling until the pre-copy converges."""

    def __init__(self, env: "Environment", domain: "Domain") -> None:
        self.env = env
        self.domain = domain
        #: Current throttle factor (1.0 = unthrottled).
        self.factor = 1.0
        #: Escalation log: (simulated time, factor) per step taken.
        self.steps: list[tuple[float, float]] = []

    @property
    def maxed(self) -> bool:
        """True once the throttle cannot be tightened further."""
        return self.factor >= THROTTLE_MAX

    def observe(self, record: IterationStats) -> bool:
        """Inspect one finished iteration; returns True if it escalated.

        Escalates exactly when the proactive-stop condition holds — the
        iteration dirtied faster than it could transfer — and the throttle
        still has headroom.
        """
        if not record.outruns_transfer or self.maxed:
            return False
        if self.factor <= 1.0:
            self.factor = THROTTLE_START
        else:
            self.factor = min(self.factor + THROTTLE_STEP, THROTTLE_MAX)
        self.domain.write_throttle = self.factor
        self.steps.append((self.env.now, self.factor))
        self.env.metrics.gauge("autoconverge.throttle").set(self.factor)
        self.env.tracer.instant("autoconverge:step", category="migration",
                                factor=self.factor,
                                dirty_rate=record.dirty_rate,
                                transfer_rate=record.transfer_rate)
        return True

    def release(self) -> None:
        """Drop the throttle (freeze, abort, or failure teardown)."""
        if self.domain.write_throttle != 1.0:
            self.domain.write_throttle = 1.0
            self.env.metrics.gauge("autoconverge.throttle").set(1.0)
            self.env.tracer.instant("autoconverge:release",
                                    category="migration")

    def summary(self) -> dict:
        """JSON-friendly record for ``report.extra``."""
        return dict(steps=len(self.steps), final_factor=self.factor,
                    log=[[t, f] for t, f in self.steps])
