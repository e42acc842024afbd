"""The switch-over contract every registered migration scheme shares.

Each scheme freezes and resumes through the same
:class:`~repro.core.scheme.MigrationScheme` steps, so downtime means the
same thing for all of them: one suspend, one resume, guest I/O in flight
at the suspend drained (and applied on the source) before anything final
is shipped, and the hypervisor's fixed suspend and resume costs paid on
top of that drain rather than overlapping it.
"""

import pytest

from repro.core import SCHEMES
from repro.obs import install

SUSPEND_OVERHEAD = 0.020
RESUME_OVERHEAD = 0.030
#: One guest write this large takes ~10 ms at the mini disk's 100 MiB/s:
#: longer than the final memory and CPU transfer, shorter than the
#: suspend overhead, so a drain that overlaps the overhead shows.
WRITE_BLOCKS = 256


def busy_writer(bed):
    """A guest that always has a write in flight: the next write is
    issued in the same step the previous one completes."""
    domain = bed.domain

    def proc(env):
        while True:
            yield from domain.write(0, WRITE_BLOCKS)
            yield from domain.ensure_running()
            domain.touch_memory([0, 1, 2, 3])

    return bed.env.process(proc(bed.env), name="busy-writer")


@pytest.fixture(params=sorted(SCHEMES))
def frozen(request, make_bed):
    """One migration of a busy guest under ``request.param``, traced."""
    bed = make_bed()
    install(bed.env)
    config = bed.config.replace(suspend_overhead=SUSPEND_OVERHEAD,
                                resume_overhead=RESUME_OVERHEAD)
    applied = []
    bed.source.driver_of(bed.domain.domain_id).write_observers.append(
        lambda _request: applied.append(bed.env.now))
    busy_writer(bed)
    bed.env.run(until=0.05)
    proc = bed.migrator.migrate_process(bed.domain, bed.destination, config,
                                        scheme=request.param)
    report = bed.env.run(until=proc)
    migration = bed.migrator.migrations[-1]
    if hasattr(migration, "stop"):
        migration.stop()
    return bed, report, applied


def test_one_suspend_and_one_resume(frozen):
    bed, report, _ = frozen
    instants = [i.name for i in bed.env.tracer.instants
                if i.category == "freeze"]
    assert instants.count("suspend") == 1
    assert instants.count("resume") == 1


def test_freeze_span_is_the_downtime(frozen):
    bed, report, _ = frozen
    (span,) = bed.env.tracer.find(name="phase:freeze")
    assert span.start == report.suspended_at
    assert span.end == report.resumed_at
    assert report.downtime == report.resumed_at - report.suspended_at


def test_inflight_write_applied_before_final_memory(frozen):
    bed, report, applied = frozen
    drained_at = max(t for t in applied if t <= report.resumed_at)
    assert drained_at > report.suspended_at  # a write was in flight
    final_memory = [s.start for s in bed.env.tracer.find(name="chunk")
                    if "pages" in s.args and s.start >= report.suspended_at]
    assert final_memory
    assert drained_at <= min(final_memory)


def test_downtime_covers_drain_and_both_overheads(frozen):
    bed, report, applied = frozen
    drain = max(t for t in applied if t <= report.resumed_at) \
        - report.suspended_at
    assert report.downtime >= drain + SUSPEND_OVERHEAD + RESUME_OVERHEAD
