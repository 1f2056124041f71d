"""One workload process: ``child.py WORKLOAD SEED WORKDIR LEG TRACE OUT``.

Spawned by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Writes one JSON result to OUT: the ``time.monotonic()`` stamps
taken at the first call into the workload's entry function (``entry``)
and once its artifact is on disk (``done``), the workload's units,
artifact digest, work-count ledger and completed requests, plus the
tracer's accumulators and spans when TRACE is 1.  ``time.monotonic`` is
``CLOCK_MONOTONIC``, shared by all processes, so the parent can subtract
its own spawn stamp.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


class Clock:
    def __init__(self) -> None:
        self.entry = 0.0
        self.finish = 0.0

    def enter(self) -> None:
        self.entry = time.monotonic()

    def done(self) -> None:
        self.finish = time.monotonic()


def main(argv: list[str]) -> int:
    workload, seed, workdir, leg, trace, out = argv
    import campaigns

    tracer = None
    if trace == "1":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    clock = Clock()
    result = campaigns.WORKLOADS[workload](int(seed), Path(workdir), leg, clock)
    result["entry"] = clock.entry
    result["done"] = clock.finish
    if tracer is not None:
        result["trace"] = tracer.summary()
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
