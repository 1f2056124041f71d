"""Scheduling policy semantics: priority, suspension, deferral."""

import pytest

from repro.sim.engine import Segment, _InFlight
from repro.sim.policies import (
    POLICIES,
    DeferLocksPolicy,
    FifoPolicy,
    ReadPriorityPolicy,
    SchedulingPolicy,
    SuspendPolicy,
    is_host_read,
    policy_by_name,
)
from repro.ssd.request import RequestOp
from repro.ssd.timing import OpKind


def _segment(kind, stage="cell", op=RequestOp.READ, request=True):
    inflight = _InFlight(index=0, op=op, arrival_us=0.0) if request else None
    return Segment(kind, stage, 10.0, inflight)


class TestIsHostRead:
    def test_read_segment_of_read_request(self):
        assert is_host_read(_segment(OpKind.READ))

    def test_gc_relocation_read_is_background(self):
        # a READ captured while serving a WRITE request is GC relocation
        assert not is_host_read(_segment(OpKind.READ, op=RequestOp.WRITE))
        assert not is_host_read(_segment(OpKind.READ, op=RequestOp.TRIM))

    def test_non_read_kinds_are_background(self):
        for kind in (OpKind.PROGRAM, OpKind.ERASE, OpKind.PLOCK):
            assert not is_host_read(_segment(kind))

    def test_detached_segment_is_background(self):
        assert not is_host_read(_segment(OpKind.READ, request=False))


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(POLICIES) == {"fifo", "read_priority", "suspend", "defer"}
        for name in POLICIES:
            assert policy_by_name(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            policy_by_name("lifo")

    def test_describe_is_json_friendly(self):
        assert FifoPolicy().describe() == {"name": "fifo"}
        assert SuspendPolicy(resume_overhead_us=5.0).describe() == {
            "name": "suspend", "resume_overhead_us": 5.0,
        }
        assert DeferLocksPolicy(max_pending=8).describe() == {
            "name": "defer", "max_pending": 8, "resume_overhead_us": 20.0,
        }


class TestFifo:
    def test_everything_same_priority(self):
        policy = FifoPolicy()
        assert policy.priority(_segment(OpKind.READ)) == 0
        assert policy.priority(_segment(OpKind.ERASE)) == 0

    def test_in_order_reservation_mode(self):
        # the open-loop discipline: only FIFO reserves stages in order
        assert FifoPolicy().in_order
        assert not ReadPriorityPolicy().in_order
        assert not DeferLocksPolicy().in_order

    def test_never_preempts_or_defers(self):
        policy = FifoPolicy()
        assert not policy.preemptive
        assert not policy.defer_locks
        assert not policy.preempts(
            _segment(OpKind.READ), _segment(OpKind.ERASE)
        )


class TestReadPriority:
    def test_host_reads_first(self):
        policy = ReadPriorityPolicy()
        assert policy.priority(_segment(OpKind.READ)) == 0
        assert policy.priority(_segment(OpKind.READ, op=RequestOp.WRITE)) == 1
        assert policy.priority(_segment(OpKind.PROGRAM, op=RequestOp.WRITE)) == 1
        assert policy.priority(_segment(OpKind.PLOCK, op=RequestOp.TRIM)) == 1


class TestSuspend:
    def test_host_read_suspends_cell_erase_and_program(self):
        policy = SuspendPolicy()
        read = _segment(OpKind.READ, stage="cell")
        assert policy.preempts(read, _segment(OpKind.ERASE))
        assert policy.preempts(read, _segment(OpKind.PROGRAM, op=RequestOp.WRITE))

    def test_lock_pulses_are_never_suspendable(self):
        policy = SuspendPolicy()
        read = _segment(OpKind.READ, stage="cell")
        assert not policy.preempts(read, _segment(OpKind.PLOCK, op=RequestOp.TRIM))
        assert not policy.preempts(
            read, _segment(OpKind.BLOCK_LOCK, op=RequestOp.TRIM)
        )

    def test_only_host_reads_suspend(self):
        policy = SuspendPolicy()
        gc_read = _segment(OpKind.READ, op=RequestOp.WRITE)
        assert not policy.preempts(gc_read, _segment(OpKind.ERASE))

    def test_xfer_stages_do_not_suspend(self):
        policy = SuspendPolicy()
        xfer = _segment(OpKind.READ, stage="xfer")
        assert not policy.preempts(xfer, _segment(OpKind.ERASE))
        cell = _segment(OpKind.READ, stage="cell")
        assert not policy.preempts(
            cell, _segment(OpKind.PROGRAM, stage="xfer", op=RequestOp.WRITE)
        )

    def test_resume_overhead_validated(self):
        with pytest.raises(ValueError, match="resume_overhead_us"):
            SuspendPolicy(resume_overhead_us=-1.0)


class TestDeferLocks:
    def test_defers_exactly_the_lock_kinds(self):
        policy = DeferLocksPolicy()
        assert policy.defer_locks
        assert policy.defers(_segment(OpKind.PLOCK, op=RequestOp.TRIM))
        assert policy.defers(_segment(OpKind.BLOCK_LOCK, op=RequestOp.TRIM))
        assert not policy.defers(_segment(OpKind.ERASE, op=RequestOp.WRITE))
        assert not policy.defers(_segment(OpKind.SCRUB, op=RequestOp.TRIM))

    def test_drained_pulses_run_behind_host_traffic(self):
        policy = DeferLocksPolicy()
        host_read = policy.priority(_segment(OpKind.READ))
        background = policy.priority(_segment(OpKind.ERASE, op=RequestOp.WRITE))
        assert host_read < background < policy.DRAIN_PRIORITY

    def test_inherits_suspension(self):
        # secSSD GC erases reclaim already-sanitized blocks, so pausing
        # them for a host read is security-neutral
        policy = DeferLocksPolicy()
        assert policy.preemptive
        assert policy.preempts(
            _segment(OpKind.READ), _segment(OpKind.ERASE, op=RequestOp.WRITE)
        )

    def test_max_pending_validated(self):
        with pytest.raises(ValueError, match="max_pending"):
            DeferLocksPolicy(max_pending=0)


class TestBasePolicy:
    def test_base_defaults(self):
        policy = SchedulingPolicy()
        assert not policy.preemptive
        assert not policy.defer_locks
        assert not policy.in_order
        assert policy.resume_overhead_us == 0.0
        assert policy.describe() == {"name": "fifo"}
