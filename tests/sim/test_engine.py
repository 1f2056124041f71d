"""The queueing engine end to end: determinism, edge cases, faults."""

import pytest

from repro.faults import FaultKind, FaultPlan
from repro.sim import (
    ClosedLoopArrivals,
    DeferLocksPolicy,
    FifoPolicy,
    PoissonArrivals,
    QueueingEngine,
    ReadPriorityPolicy,
    SuspendPolicy,
    capture_block_trace,
    simulate_workload,
)
from repro.ssd.device import SSD
from repro.ssd.request import IoRequest, RequestOp


def _engine(config, requests, policy=None, queue_depth=8):
    ssd = SSD(config, "baseline", seed=1, checked=False)
    return QueueingEngine(
        ssd, requests, ClosedLoopArrivals(queue_depth), policy or FifoPolicy()
    )


class TestDeterminism:
    def test_same_seed_byte_identical_report(self, tiny_config):
        kwargs = dict(
            workload="Mobile", variant="secSSD", seed=5,
            write_multiplier=0.5, policy="defer",
            arrivals=ClosedLoopArrivals(16), checked=False,
        )
        first = simulate_workload(tiny_config, **kwargs)
        second = simulate_workload(tiny_config, **kwargs)
        assert first.to_json() == second.to_json()
        assert first.report.to_json() == second.report.to_json()

    def test_different_seed_differs(self, tiny_config):
        runs = [
            simulate_workload(
                tiny_config, "Mobile", "baseline", seed=seed,
                write_multiplier=0.5, checked=False,
            )
            for seed in (1, 2)
        ]
        assert runs[0].report.to_json() != runs[1].report.to_json()


class TestEdgeCases:
    def test_empty_workload(self, tiny_config):
        report = _engine(tiny_config, []).run()
        assert report.completed == 0
        assert report.sim_elapsed_us == 0.0
        assert report.iops == 0.0
        assert report.open_loop_agreement == 0.0
        assert report.latency["all"]["count"] == 0.0
        assert all(u == 0.0 for u in report.utilization.values())

    def test_zero_op_requests_complete_instantly(self, tiny_config):
        # reads of never-written pages touch no flash: latency 0, done at t=0
        requests = [IoRequest(RequestOp.READ, lpa) for lpa in range(4)]
        report = _engine(tiny_config, requests).run()
        assert report.completed == 4
        assert report.sim_elapsed_us == 0.0
        assert report.latency["read"]["count"] == 4.0
        assert report.latency["read"]["max_us"] == 0.0

    def test_single_chip_device(self):
        from repro.ssd.config import scaled_config

        config = scaled_config(
            blocks_per_chip=32, wordlines_per_block=16,
            n_channels=1, chips_per_channel=1,
        )
        result = simulate_workload(
            config, "Mobile", "baseline", write_multiplier=0.5, checked=False,
        )
        assert result.report.completed == result.requests
        assert set(result.report.utilization) == {"chip0", "chan0"}
        assert result.report.utilization["chip0"] > 0.0

    def test_steady_start_validated(self, tiny_config):
        ssd = SSD(tiny_config, "baseline", checked=False)
        with pytest.raises(ValueError, match="steady_start"):
            QueueingEngine(
                ssd, [], ClosedLoopArrivals(), FifoPolicy(), steady_start=1
            )

    def test_closed_loop_respects_queue_depth(self, tiny_config):
        requests, _ = capture_block_trace(
            tiny_config, "Mobile", write_multiplier=0.25
        )
        report = _engine(tiny_config, requests, queue_depth=4).run()
        assert report.completed == len(requests)
        assert report.in_flight_peak <= 4
        assert 0.0 < report.mean_in_flight <= 4.0

    def test_open_arrivals_complete_everything(self, tiny_config):
        result = simulate_workload(
            tiny_config, "Mobile", "baseline", write_multiplier=0.25,
            arrivals=PoissonArrivals(rate_iops=2_000, seed=4), checked=False,
        )
        assert result.report.completed == result.requests
        # open arrivals are not gated on completions
        assert result.report.in_flight_peak > 0


class TestFaultInjection:
    def test_mid_run_fault_window(self, tiny_config):
        plan = FaultPlan(
            seed=9,
            rates=((FaultKind.PROGRAM_FAIL, 0.02),),
            active_from=200,
            active_until=2_000,
        )
        kwargs = dict(
            workload="Mobile", variant="baseline", seed=3,
            write_multiplier=0.5, checked=False, faults=plan,
        )
        faulty = simulate_workload(tiny_config, **kwargs)
        assert faulty.report.completed == faulty.requests
        assert faulty.run.stats.program_fails > 0
        # fault decisions come from the plan's own RNG: still deterministic
        again = simulate_workload(tiny_config, **kwargs)
        assert faulty.to_json() == again.to_json()

    def test_faults_change_the_schedule(self, tiny_config):
        clean = simulate_workload(
            tiny_config, "Mobile", "baseline", seed=3,
            write_multiplier=0.5, checked=False,
        )
        faulty = simulate_workload(
            tiny_config, "Mobile", "baseline", seed=3,
            write_multiplier=0.5, checked=False,
            faults=FaultPlan(seed=9, rates=((FaultKind.PROGRAM_FAIL, 0.02),)),
        )
        # retried programs add flash work, so the makespan moves
        assert faulty.report.sim_elapsed_us != clean.report.sim_elapsed_us


class TestSuspension:
    def test_suspend_policy_pauses_erases_for_reads(self, tiny_config):
        suspended = simulate_workload(
            tiny_config, "MailServer", "erSSD", write_multiplier=0.5,
            policy=SuspendPolicy(), checked=False,
        )
        assert suspended.report.suspensions > 0
        plain = simulate_workload(
            tiny_config, "MailServer", "erSSD", write_multiplier=0.5,
            policy=ReadPriorityPolicy(), checked=False,
        )
        assert plain.report.suspensions == 0
        # getting out from behind 3.5-ms erases must shorten the read tail
        assert (
            suspended.report.latency["read"]["p99_us"]
            < plain.report.latency["read"]["p99_us"]
        )


class TestDeferral:
    def test_lock_pulses_deferred_and_drained(self, tiny_config):
        result = simulate_workload(
            tiny_config, "MailServer", "secSSD", write_multiplier=0.5,
            policy=DeferLocksPolicy(max_pending=8), checked=False,
        )
        report = result.report
        assert report.deferred_lock_pulses > 0
        assert report.lock_drains > 0
        # every deferred pulse is eventually served: the run-final drain
        # loop guarantees no pending locks survive, so chip busy time
        # includes them and the device still did all its sanitization
        assert result.run.stats.plocks > 0

    def test_deferral_checked_by_runtime_sanitizer(self, tiny_config):
        result = simulate_workload(
            tiny_config, "MailServer", "secSSD", write_multiplier=0.5,
            policy=DeferLocksPolicy(max_pending=8),
            checked=True, check_interval=17,
        )
        checker = result.report.checker
        assert checker["violations"] == 0
        assert checker["probes"] > 0
        assert result.report.deferred_lock_pulses > 0

    def test_fifo_policy_never_defers(self, tiny_config):
        result = simulate_workload(
            tiny_config, "MailServer", "secSSD", write_multiplier=0.25,
            policy="fifo", checked=False,
        )
        assert result.report.deferred_lock_pulses == 0
        assert result.report.lock_drains == 0
        assert result.report.suspensions == 0
