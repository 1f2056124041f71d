"""Deterministic discrete-event queueing simulation of the SSD variants.

The open-loop :class:`~repro.ssd.timing.TimingModel` answers "how fast
can the device go"; this package answers "how long does a request
*wait*".  It replays the same captured block traces through a
discrete-event engine with per-chip and per-channel service queues,
seeded load generators, and pluggable scheduling policies (FIFO, read
priority, erase/program suspension, sanitization-lock deferral), turning
erSSD vs scrSSD vs secSSD *tail latency* into a first-class result.
The FTLs run unmodified: the device's one ``TimingModel`` captures the
:class:`~repro.ssd.timing.FlashOp` stream each request schedules, and
the engine replays that stream as queued service (``OpKind`` and
``FlashOp`` are re-exported here).

Entry points: :func:`~repro.sim.runner.simulate_workload` (and the
``repro simulate`` / ``repro bench`` CLI subcommands built on it).
Rule SIM07 keeps every module here free of wall-clock and module-level
RNG calls, so identical seeds give byte-identical reports.
"""

from repro.sim.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    ClosedLoopArrivals,
    PoissonArrivals,
)
from repro.sim.engine import EngineReport, QueueingEngine, Segment, Server
from repro.sim.events import Event, EventHeap, SimClock
from repro.sim.metrics import PERCENTILES, DepthSeries, LatencyRecorder, percentile
from repro.sim.policies import (
    LOCK_KINDS,
    POLICIES,
    SUSPENDABLE_KINDS,
    DeferLocksPolicy,
    FifoPolicy,
    ReadPriorityPolicy,
    SchedulingPolicy,
    SuspendPolicy,
    policy_by_name,
)
from repro.sim.runner import SimResult, capture_block_trace, simulate_workload
from repro.ssd.timing import FlashOp, OpKind

__all__ = [
    "ArrivalProcess",
    "BurstyArrivals",
    "ClosedLoopArrivals",
    "DeferLocksPolicy",
    "DepthSeries",
    "Event",
    "EventHeap",
    "EngineReport",
    "FifoPolicy",
    "FlashOp",
    "LOCK_KINDS",
    "LatencyRecorder",
    "OpKind",
    "PERCENTILES",
    "POLICIES",
    "PoissonArrivals",
    "QueueingEngine",
    "ReadPriorityPolicy",
    "SUSPENDABLE_KINDS",
    "SchedulingPolicy",
    "Segment",
    "Server",
    "SimClock",
    "SimResult",
    "SuspendPolicy",
    "capture_block_trace",
    "percentile",
    "policy_by_name",
    "simulate_workload",
]
