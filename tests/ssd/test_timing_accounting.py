"""TimingModel accounting contract and op-capture seam.

The closed-loop engine cross-checks against ``elapsed_us`` and splits
work into chip vs channel occupancy, so the accounting identity
``total_work_us == cell_work_us + xfer_work_us`` and the per-field
validation are normative (see the module docstring of
:mod:`repro.ssd.timing`).  The engine replays the op stream the model
captures, so capture must be complete: re-folding the captured stream
into a fresh model reproduces the device's own accounting exactly.
"""

import pytest

from repro.analysis.torture import torture_requests
from repro.faults import FaultKind, FaultPlan
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSD
from repro.ssd.timing import SANITIZE_KINDS, FlashOp, OpKind, TimingModel


def _model(**overrides) -> TimingModel:
    kwargs = dict(n_channels=2, chips_per_channel=2)
    kwargs.update(overrides)
    return TimingModel(**kwargs)


class TestWorkAccounting:
    def test_split_identity_over_mixed_ops(self):
        timing = _model()
        timing.read(0)
        timing.program(1)
        timing.copy(2, 3)
        timing.erase(0)
        timing.plock(1)
        timing.block_lock(2)
        timing.scrub(3)
        assert timing.total_work_us == pytest.approx(
            timing.cell_work_us + timing.xfer_work_us
        )

    def test_read_splits_sense_and_transfer(self):
        timing = _model()
        timing.read(0)
        assert timing.cell_work_us == timing.t_read_us
        assert timing.xfer_work_us == timing.t_xfer_us

    def test_program_splits_transfer_and_cell(self):
        timing = _model()
        timing.program(0)
        assert timing.cell_work_us == timing.t_prog_us
        assert timing.xfer_work_us == timing.t_xfer_us

    def test_chip_only_ops_add_no_transfer(self):
        timing = _model()
        timing.erase(0)
        timing.plock(0)
        timing.block_lock(0)
        timing.scrub(0)
        assert timing.xfer_work_us == 0.0
        assert timing.cell_work_us == (
            timing.t_erase_us + timing.t_plock_us
            + timing.t_block_lock_us + timing.t_scrub_us
        )

    def test_starts_from_zero(self):
        timing = _model()
        assert timing.total_work_us == 0.0
        assert timing.cell_work_us == 0.0
        assert timing.xfer_work_us == 0.0


class TestValidation:
    @pytest.mark.parametrize("field", TimingModel.TIMING_FIELDS)
    def test_every_timing_field_must_be_positive(self, field):
        with pytest.raises(ValueError, match=field):
            _model(**{field: 0.0})
        with pytest.raises(ValueError, match=field):
            _model(**{field: -1.0})

    def test_topology_must_be_positive(self):
        with pytest.raises(ValueError, match="topology"):
            TimingModel(n_channels=0, chips_per_channel=2)

    def test_config_validates_t_scrub_us(self, small_geometry):
        with pytest.raises(ValueError, match="t_scrub_us"):
            SSDConfig(
                n_channels=1, chips_per_channel=1,
                geometry=small_geometry, t_scrub_us=0.0,
            )


class TestScrubPulse:
    def test_defaults_to_plock_duration(self):
        timing = _model()
        assert timing.t_scrub_us == timing.t_plock_us

    def test_scrub_occupies_the_chip(self):
        timing = _model(t_scrub_us=250.0)
        end = timing.scrub(1)
        assert end == 250.0
        assert timing.chip_busy[1] == 250.0

    def test_config_value_reaches_the_ftl(self, small_geometry):
        config = SSDConfig(
            n_channels=1, chips_per_channel=2,
            geometry=small_geometry, t_scrub_us=123.0,
        )
        ssd = SSD(config, "scrSSD", checked=False)
        assert ssd.ftl.timing.t_scrub_us == 123.0


class TestFromConfig:
    def test_copies_topology_and_every_timing_field(self, small_geometry):
        config = SSDConfig(
            n_channels=2, chips_per_channel=3, geometry=small_geometry,
            t_read_us=41.0, t_prog_us=333.0, t_erase_us=2900.0,
            t_plock_us=90.0, t_block_lock_us=130.0, t_scrub_us=77.0,
            t_xfer_us=12.0,
        )
        timing = TimingModel.from_config(config)
        assert (timing.n_channels, timing.chips_per_channel) == (2, 3)
        for name in TimingModel.TIMING_FIELDS:
            assert getattr(timing, name) == getattr(config, name)

    def test_is_what_the_ftl_schedules_on(self, small_geometry):
        config = SSDConfig(
            n_channels=1, chips_per_channel=2, geometry=small_geometry,
            t_read_us=41.0,
        )
        ssd = SSD(config, "baseline", checked=False)
        assert ssd.ftl.timing == TimingModel.from_config(config)


class TestCapture:
    def test_end_without_begin_is_an_error(self):
        with pytest.raises(RuntimeError, match="no capture in progress"):
            _model().end_capture()

    def test_nested_begin_is_an_error(self):
        timing = _model()
        timing.begin_capture()
        with pytest.raises(RuntimeError, match="already in progress"):
            timing.begin_capture()

    def test_end_closes_the_capture(self):
        timing = _model()
        timing.begin_capture()
        timing.read(0)
        assert timing.end_capture() == [FlashOp(OpKind.READ, 0, False)]
        timing.program(1)  # outside any capture: scheduled, not recorded
        with pytest.raises(RuntimeError, match="no capture in progress"):
            timing.end_capture()
        timing.begin_capture()
        assert timing.end_capture() == []

    def test_records_every_kind_in_order_with_attribution(self):
        timing = _model()
        timing.begin_capture()
        timing.read(0)
        timing.program(1)
        timing.erase(2)
        timing.plock(3)
        timing.block_lock(0)
        timing.scrub(1)
        with timing.sanitize_region():
            timing.copy(2, 3)
            timing.erase(3)
        ops = timing.end_capture()
        assert ops == [
            FlashOp(OpKind.READ, 0, False),
            FlashOp(OpKind.PROGRAM, 1, False),
            FlashOp(OpKind.ERASE, 2, False),
            FlashOp(OpKind.PLOCK, 3, True),
            FlashOp(OpKind.BLOCK_LOCK, 0, True),
            FlashOp(OpKind.SCRUB, 1, True),
            FlashOp(OpKind.READ, 2, True),
            FlashOp(OpKind.PROGRAM, 3, True),
            FlashOp(OpKind.ERASE, 3, True),
        ]
        assert all(op.sanitize for op in ops if op.kind in SANITIZE_KINDS)

    def test_capture_has_no_accounting_effect(self):
        plain, captured = _model(), _model()
        captured.begin_capture()
        for timing in (plain, captured):
            timing.copy(0, 1)
            timing.erase(2)
            timing.plock(3)
        captured.end_capture()
        assert captured.state_dict() == plain.state_dict()

    def test_cell_duration_per_kind(self):
        timing = _model(
            t_read_us=1.0, t_prog_us=2.0, t_erase_us=3.0, t_plock_us=4.0,
            t_block_lock_us=5.0, t_scrub_us=6.0,
        )
        assert [timing.cell_duration_us(kind) for kind in OpKind] == [
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
        ]


#: a fault mix that drives the FTLs' retry, remap, retire and lock
#: fallback paths, each of which schedules its own flash ops.
FAULTS = FaultPlan.from_rates(
    {
        FaultKind.READ_UNCORRECTABLE: 0.01,
        FaultKind.PROGRAM_FAIL: 0.002,
        FaultKind.ERASE_FAIL: 0.002,
        FaultKind.PLOCK_FAIL: 0.02,
        FaultKind.BLOCK_LOCK_FAIL: 0.02,
    },
    seed=11,
)


def _refold(timing: TimingModel, ops: list[FlashOp]) -> TimingModel:
    """A fresh model with ``timing``'s parameters fed only ``ops``."""
    fresh = TimingModel(
        n_channels=timing.n_channels,
        chips_per_channel=timing.chips_per_channel,
        **{name: getattr(timing, name) for name in TimingModel.TIMING_FIELDS},
    )
    for op in ops:
        getattr(fresh, op.kind.value)(op.chip_id)
    return fresh


class TestCaptureCompleteness:
    @pytest.mark.parametrize(
        "variant", ["baseline", "erSSD", "scrSSD", "secSSD", "cryptSSD"]
    )
    def test_refolded_stream_reproduces_the_accounting(
        self, tiny_config, variant
    ):
        ssd = SSD(tiny_config, variant, seed=3, checked=False, faults=FAULTS)
        timing = ssd.ftl.timing
        ops: list[FlashOp] = []
        for request in torture_requests(1500, ssd.logical_pages, seed=3):
            timing.begin_capture()
            ssd.submit(request)
            ops.extend(timing.end_capture())
        assert ssd.ftl.fault_injector.total_injected > 0
        kinds = {op.kind for op in ops}
        assert {OpKind.READ, OpKind.PROGRAM, OpKind.ERASE} <= kinds
        fresh = _refold(timing, ops)
        assert fresh.elapsed_us == timing.elapsed_us
        assert fresh.total_work_us == timing.total_work_us
        assert fresh.cell_work_us == timing.cell_work_us
        assert fresh.xfer_work_us == timing.xfer_work_us
        assert fresh.chip_busy == timing.chip_busy
        assert fresh.channel_busy == timing.channel_busy
