"""Layer tracer installed from outside the program.

The traced run wraps the public entry points of each ``repro`` layer in
place (class attributes and module-level bindings) before the workload
starts; no program file changes.  Each wrapped call is a span:

* every span folds into a per-name accumulator ``[calls, total_s,
  self_s]``, where self time is the span's duration minus the time its
  wrapped children took -- this is all the per-op boundaries
  (``SSD.submit``, chip ops, bus publishes) keep, so their overhead
  stays bounded;
* coarse spans (trace capture, engine windows, checkpoint generations,
  audits, grid, units) are also recorded as ``[name, start_s, end_s,
  parent, unit]`` rows, held in memory and written out when the run
  ends.  ``parent`` is the index of the nearest recorded enclosing span
  (-1 for none) and ``unit`` numbers the variant-on-device the span
  belongs to: a unit starts at its entry call and lasts until the next
  unit starts or its grid task ends, so the audit that follows a fleet
  device's run shares the run's unit; 0 is campaign-level work.

Span names are ``<layer>.<call>``; the ``unit.*`` and ``task.*`` glue
spans (unit boundaries, grid task bodies) belong to no layer, so their
self time is what the benchmark reports as unattributed.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections.abc import Callable
from typing import Any

#: span-name prefixes that are not program layers.
GLUE = ("unit", "task")


class Tracer:
    """Span accumulators, recorded spans and counts for one process."""

    def __init__(self) -> None:
        self.acc: dict[str, list[float]] = {}
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = {}
        self.pause_ms: list[float] = []
        self.unit = 0
        self.units = 0
        # frames: [start_s, child_s, nearest recorded span index]
        self._stack: list[list[Any]] = []
        self._snapshot_start = 0.0

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        record: bool = False,
        unit: bool = False,
        task: bool = False,
        after: Callable[[tuple, Any, float, float], None] | None = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped as span ``name``.

        ``unit`` starts a new unit id at each call, ``task`` returns to
        campaign-level work (unit 0) when the call ends; ``after`` sees
        ``(args, result, start_s, end_s)`` of every call that returned.
        """
        acc = self.acc.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if unit:
                self.units += 1
                self.unit = self.units
            start = clock()
            parent = stack[-1][2] if stack else -1
            index = parent
            if record:
                index = len(spans)
                spans.append([name, start, start, parent, self.unit])
            frame = [start, 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record:
                    spans[index][2] = end
                if task:
                    self.unit = 0
            if after is not None:
                after(args, result, start, end)
            return result

        return wrapper

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def summary(self) -> dict[str, Any]:
        return {
            "acc": self.acc,
            "counts": self.counts,
            "pause_ms": self.pause_ms,
            "spans": self.spans,
        }


def _rebind(orig: Any, wrapped: Any, prefixes: tuple[str, ...]) -> None:
    """Point every module-level binding of ``orig`` under ``prefixes`` at
    ``wrapped`` -- covers ``from x import f`` copies as well as ``x.f``."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(prefixes):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapped)


def _patch_method(tracer: Tracer, cls: type, attr: str, name: str, **kw: Any) -> None:
    setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], **kw))


def _patch_function(
    tracer: Tracer,
    module: Any,
    attr: str,
    name: str,
    scope: tuple[str, ...] = ("repro",),
    **kw: Any,
) -> None:
    orig = getattr(module, attr)
    _rebind(orig, tracer.wrap(name, orig, **kw), scope)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    from repro.analysis import aging, parallel
    from repro.audit import ledger, run as audit_run, verifier
    from repro.checkpoint import campaign, codec, device, store
    from repro.core.evanesco_chip import EvanescoChip
    from repro.fleet import report, scheduler
    from repro.flash.chip import FlashChip
    from repro.sim import runner
    from repro.sim.engine import QueueingEngine
    from repro.ssd.device import SSD
    from repro.telemetry.events import TraceBus

    def absorb(sim: Any) -> None:
        """Fold one finished unit's deterministic counts."""
        if sim is None:  # a paused campaign leg returns no result
            return
        stats = sim.run.stats
        tracer.count("host.requests", sim.requests)
        tracer.count("sim.completed", sim.report.completed)
        tracer.count("sim.events", sim.report.events)
        for key in (
            "host_writes", "gc_invocations", "gc_copies", "flash_reads",
            "flash_programs", "flash_erases", "plocks", "block_locks",
        ):
            tracer.count(f"stats.{key}", getattr(stats, key))

    # host / workloads
    for attr in ("capture_block_trace", "capture_generator_trace"):
        _patch_function(tracer, runner, attr, f"host.{attr}", record=True)
    # sim
    _patch_method(tracer, QueueingEngine, "run", "sim.run", record=True)
    _patch_method(tracer, QueueingEngine, "run_window", "sim.run_window", record=True)
    # ssd + ftl
    _patch_method(tracer, SSD, "submit", "ftl.submit")
    # flash + core
    for attr in ("read_page", "program_page", "erase_block"):
        _patch_method(tracer, FlashChip, attr, f"flash.{attr}")
    for attr in ("read_page", "erase_block", "plock", "block_lock"):
        _patch_method(tracer, EvanescoChip, attr, f"flash.evanesco_{attr}")
    # telemetry
    for attr in ("instant", "complete"):
        _patch_method(tracer, TraceBus, attr, f"telemetry.{attr}")

    # checkpoint: encode/canonical_dumps are wrapped at their callers in
    # the checkpoint package only (codec's own recursion stays
    # unwrapped, and the audit layer's canonical JSON is not checkpoint
    # work)
    def snapshot_after(args: tuple, result: Any, start: float, end: float) -> None:
        tracer._snapshot_start = start

    def generation_after(args: tuple, result: Any, start: float, end: float) -> None:
        tracer.pause_ms.append((end - tracer._snapshot_start) * 1e3)

    _patch_function(
        tracer, device, "snapshot_device", "checkpoint.snapshot_device",
        record=True, after=snapshot_after,
    )
    _patch_function(tracer, device, "restore_device", "checkpoint.restore_device", record=True)
    ckpt = ("repro.checkpoint.campaign", "repro.checkpoint.store", "repro.checkpoint.device")
    _patch_function(tracer, codec, "encode", "checkpoint.encode", scope=ckpt)
    _patch_function(tracer, codec, "canonical_dumps", "checkpoint.canonical_dumps", scope=ckpt)
    _patch_method(
        tracer, store.CheckpointStore, "write_generation",
        "checkpoint.write_generation", record=True, after=generation_after,
    )
    _patch_method(tracer, store.CheckpointStore, "latest_good", "checkpoint.latest_good", record=True)
    real_fsync = os.fsync

    def counting_fsync(fd: Any) -> None:
        tracer.count("checkpoint.fsyncs")
        real_fsync(fd)

    os.fsync = counting_fsync

    # audit
    def audited(args: tuple, result: Any, start: float, end: float) -> None:
        bus = args[1].bus.stats()
        tracer.count("telemetry.events", sum(bus["published"].values()))
        tracer.count("telemetry.dropped", bus["dropped"])
        tracer.count("audit.certs")
        tracer.count("audit.failures", 0 if result.ok else 1)

    _patch_function(tracer, audit_run, "audit_sim_result", "audit.audit_sim_result", record=True, after=audited)
    _patch_function(tracer, ledger, "build_ledger", "audit.build_ledger", record=True)
    for attr in ("verify_events", "verify_device"):
        _patch_function(tracer, verifier, attr, f"audit.{attr}", record=True)

    # fleet + analysis
    _patch_function(tracer, report, "aggregate_fleet", "fleet.aggregate_fleet", record=True)
    _patch_function(tracer, parallel, "run_grid_detailed", "analysis.run_grid_detailed", record=True)
    _patch_function(tracer, scheduler, "_shard_task", "task.fleet_shard", record=True, task=True)
    _patch_function(tracer, aging, "_run_age_case", "task.age_case", record=True, task=True)

    # unit boundaries (one variant on one device) and their results
    _patch_function(
        tracer, runner, "simulate_workload", "unit.simulate_workload",
        record=True, unit=True, after=lambda a, r, s, e: absorb(r),
    )
    _patch_function(
        tracer, scheduler, "run_device", "unit.run_device",
        record=True, unit=True, after=lambda a, r, s, e: absorb(r[1]),
    )
    _patch_function(
        tracer, campaign, "run_chunked_simulation", "unit.run_chunked_simulation",
        record=True, unit=True, after=lambda a, r, s, e: absorb(r),
    )
