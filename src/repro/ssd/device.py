"""SSD device facade: configuration + FTL variant + trace replay.

The device is what the host stack and the benchmarks talk to.  It wires
an :class:`~repro.ssd.config.SSDConfig` to one of the FTL variants,
replays request streams, and reports the Figure-14 metrics
(:class:`~repro.ssd.stats.RunResult`).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.faults import FaultPlan
from repro.ftl import FTL_VARIANTS
from repro.ftl.base import PageMappedFtl
from repro.ftl.observer import FtlObserver
from repro.ssd.config import SSDConfig
from repro.ssd.request import IoRequest
from repro.ssd.stats import RunResult
from repro.ssd.worklog import WorkLog
from repro.telemetry import Telemetry  # lint: disable=SIM14 -- cross-cutting observability seam, zero-cost when disabled
from repro.telemetry.bridge import TelemetryObserver  # lint: disable=SIM14 -- bridge adapts the observer seam; no behavioural dependency


class SSD:
    """One simulated SSD instance."""

    def __init__(
        self,
        config: SSDConfig,
        variant: str = "baseline",
        observer: FtlObserver | None = None,
        seed: int = 0,
        ftl_class: type[PageMappedFtl] | None = None,
        checked: bool | None = None,
        check_interval: int | None = None,
        faults: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        """Build a device running ``variant``'s FTL.

        ``ftl_class`` overrides the registry lookup -- used by ablation
        studies that subclass an FTL with tweaked policy constants.

        ``checked=True`` attaches the runtime invariant sanitizer
        (:mod:`repro.checkers.sanitizer`) to the FTL; ``None`` defers to
        the process-wide default (``REPRO_CHECKED`` /
        :func:`repro.checkers.sanitizer.set_default_checked`).
        ``check_interval`` sets how many host batches pass between full
        O(device) verification passes.

        ``faults`` attaches a seeded :class:`~repro.faults.FaultInjector`
        built from the plan to every chip of the device (see
        :mod:`repro.faults`); ``None`` keeps the chips perfect.

        ``telemetry`` attaches a :class:`~repro.telemetry.Telemetry`
        session: a :class:`~repro.telemetry.bridge.TelemetryObserver`
        is chained in front of ``observer`` (so the sanitizer, when
        ``checked``, still audits the same stream), the trace clock
        defaults to the FTL's occupancy clock, the fault injector gains
        an event tap, and :meth:`result` snapshots the metrics registry
        into ``RunResult.telemetry``.  ``None`` (the default) keeps the
        untraced hot path unchanged.
        """
        if ftl_class is None:
            if variant not in FTL_VARIANTS:
                raise ValueError(
                    f"unknown variant {variant!r}; choose from {sorted(FTL_VARIANTS)}"
                )
            ftl_class = FTL_VARIANTS[variant]
            self.variant = variant
        else:
            self.variant = ftl_class.name
        self.config = config
        #: the run's telemetry session, or None for an untraced run.
        self.telemetry: Telemetry | None = None
        if telemetry is not None and telemetry.enabled:
            self.telemetry = telemetry
            # chain the bridge in front of the caller's observer; the
            # FTL's sanitizer (when checked) wraps in front of both.
            observer = TelemetryObserver(telemetry, inner=observer)
        self.ftl: PageMappedFtl = ftl_class(
            config,
            observer=observer,
            seed=seed,
            checked=checked,
            check_interval=check_interval,
            faults=faults,
            telemetry=self.telemetry,
        )
        if self.telemetry is not None:
            if self.telemetry.bus.clock is None:
                # default trace clock: the open-loop occupancy model's
                # elapsed time (the sim engine overrides this with the
                # event-heap clock when it drives the run).
                self.telemetry.bus.clock = lambda: self.ftl.timing.elapsed_us
            if self.ftl.fault_injector is not None:
                self.ftl.fault_injector.bus = self.telemetry.bus
        #: per-request device-work log (sanitization-tail analysis).
        self.work_log = WorkLog()

    # ------------------------------------------------------------------
    @property
    def logical_pages(self) -> int:
        return self.config.logical_pages

    @property
    def stats(self):
        return self.ftl.stats

    @property
    def elapsed_us(self) -> float:
        return self.ftl.elapsed_us()

    def submit(self, request: IoRequest) -> None:
        before = self._busy_total()
        self.ftl.submit(request)
        work_us = self._busy_total() - before
        self.work_log.record(request.op, work_us)
        if self.telemetry is not None:
            self.telemetry.metrics.histogram(
                f"request_work_us.{request.op.value}"
            ).observe(work_us)

    def _busy_total(self) -> float:
        return self.ftl.timing.total_work_us

    def replay(self, requests: Iterable[IoRequest]) -> RunResult:
        """Replay a request stream and return the run metrics."""
        for request in requests:
            self.ftl.submit(request)
        return self.result()

    def result(self) -> RunResult:
        return RunResult(
            name=self.variant,
            stats=self.ftl.stats,
            elapsed_us=self.ftl.elapsed_us(),
            extra={
                "logical_time": float(self.ftl.logical_time),
                "chip_utilization_max": max(
                    self.ftl.timing.utilization(), default=0.0
                ),
            },
            telemetry=(
                self.telemetry.snapshot() if self.telemetry is not None else {}
            ),
        )

    # ------------------------------------------------------------------
    def raw_dump(self) -> dict[int, object]:
        """Forensic attacker view of all programmed, unlocked data."""
        return self.ftl.raw_device_dump()


def make_ssd(
    config: SSDConfig,
    variant: str,
    observer: FtlObserver | None = None,
    seed: int = 0,
    checked: bool | None = None,
    faults: FaultPlan | None = None,
    telemetry: Telemetry | None = None,
) -> SSD:
    """Convenience constructor used by benchmarks and examples."""
    return SSD(
        config,
        variant=variant,
        observer=observer,
        seed=seed,
        checked=checked,
        faults=faults,
        telemetry=telemetry,
    )
