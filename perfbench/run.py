"""Campaign benchmark for the ``repro`` package.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload engine-db --seed 1 --seconds 30 --trace 0

Each repetition runs the workload in fresh processes (``child.py``),
times them from the outside and checks their outputs; ``perfbench/
README.md`` defines the workloads, metrics and predictions.

``--trace 0`` runs inputs 0, 0, 1, 2, ... (input ``i`` uses workload
seed ``seed + i * 7919``; the repeat of input 0 checks that its artifact
digest and work-count ledger repeat exactly) until ``--seconds`` have
passed, and reports the end-to-end metrics as medians over all of
these repetitions.

``--trace 1`` runs pairs of (untraced, traced) repetitions of input 0
until ``--seconds`` have passed (at least two pairs) and reports the
per-layer metrics: medians of the traced times, the exact counts, and
the tracing overhead.  The spans of the first traced repetition are
written to ``.perfbench/spans-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 when every output was correct, 1 when not, 2 when the benchmark could
not run at all (no program source in the checkout).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

from tracer import GLUE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench"

#: processes per repetition, in order: age-ckpt is paused in one
#: process and resumed in a new one, as a killed user run would be.
LEGS = {
    "engine-db": ("run",),
    "age-ckpt": ("pause", "resume"),
    "fleet-audit": ("run",),
}
#: units (one variant on one device) per repetition.
UNITS = {"engine-db": 2, "age-ckpt": 2, "fleet-audit": 32}
SEED_STRIDE = 7919
MIN_REPS = 3
MIN_PAIRS = 2
#: no repetition starts after this many seconds, and every child is
#: killed by HARD_LIMIT_S, so a run ends well inside three minutes.
LAST_START_S = 100.0
HARD_LIMIT_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "disk_mb": "MB",
}

#: per-layer time metric -> the spans whose self times it sums.
SPAN_TIMES = {
    "host.capture_s": ("host.capture_block_trace", "host.capture_generator_trace"),
    "sim.self_s": ("sim.run", "sim.run_window"),
    "ftl.self_s": ("ftl.submit",),
    "flash.self_s": (
        "flash.read_page", "flash.program_page", "flash.erase_block",
        "flash.evanesco_read_page", "flash.evanesco_erase_block",
        "flash.evanesco_plock", "flash.evanesco_block_lock",
    ),
    "checkpoint.snapshot_s": ("checkpoint.snapshot_device",),
    "checkpoint.encode_s": ("checkpoint.encode", "checkpoint.canonical_dumps"),
    "checkpoint.write_s": ("checkpoint.write_generation",),
    "checkpoint.restore_s": ("checkpoint.latest_good", "checkpoint.restore_device"),
    "telemetry.self_s": ("telemetry.instant", "telemetry.complete"),
    "audit.ledger_s": ("audit.build_ledger",),
    "audit.verify_s": ("audit.verify_events", "audit.verify_device"),
    "fleet.aggregate_s": ("fleet.aggregate_fleet",),
    "analysis.grid_s": ("analysis.run_grid_detailed",),
}
#: per-layer count -> key in the traced repetition's merged counts.
COUNTS = {
    "host.requests": "host.requests",
    "sim.events": "sim.events",
    "ftl.submits": "calls.ftl.submit",
    "ftl.gc_invocations": "stats.gc_invocations",
    "ftl.gc_copies": "stats.gc_copies",
    "flash.reads": "stats.flash_reads",
    "flash.programs": "stats.flash_programs",
    "flash.erases": "stats.flash_erases",
    "flash.plocks": "stats.plocks",
    "flash.block_locks": "stats.block_locks",
    "checkpoint.generations": "checkpoint.generations",
    "checkpoint.bytes_written": "checkpoint.bytes_written",
    "checkpoint.files_written": "checkpoint.files_written",
    "checkpoint.fsyncs": "checkpoint.fsyncs",
    "checkpoint.pause_samples": "checkpoint.pause_samples",
    "telemetry.events": "telemetry.events",
    "telemetry.dropped": "telemetry.dropped",
    "audit.certs": "audit.certs",
    "audit.failures": "audit.failures",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_TIMES},
    **{name: "count" for name in COUNTS},
    "checkpoint.bytes_written": "B",
    "sim.us_per_event": "us",
    "ftl.waf": "ratio",
    "checkpoint.pause_ms_p50": "ms",
    "checkpoint.pause_ms_p90": "ms",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


class Rep:
    """One repetition: all legs of one input, measured from outside."""

    def __init__(self, workload: str, seed: int, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.wall = 0.0
        self.setup = 0.0
        self.rss_mb = 0.0
        self.cpu = 0.0
        self.disk_mb = 0.0
        self.requests = 0
        self.units: dict[str, str] = {}
        self.crashed = ""
        self.digest: str | None = None
        self.ledger: dict[str, int] = {}
        self.legs: list[dict[str, Any]] = []

    @property
    def active(self) -> float:
        return self.wall - self.setup

    @property
    def failed_units(self) -> int:
        if self.crashed:
            return UNITS[self.workload]
        return sum(1 for why in self.units.values() if why)

    def absorb(self, result: dict[str, Any], spawn: float, usage: Any) -> None:
        self.cpu += usage.ru_utime + usage.ru_stime
        rss_kib = usage.ru_maxrss
        self.wall += result["done"] - spawn
        self.setup += result["entry"] - spawn
        self.rss_mb = max(self.rss_mb, rss_kib * 1024 / 1e6)
        self.requests += result["requests"]
        for unit in result["units"]:
            if not unit["ok"] or unit["unit"] not in self.units:
                self.units[unit["unit"]] = unit["why"]
        self.digest = result["digest"]
        self.ledger = result["ledger"]
        self.legs.append(result)

    # -- traced repetitions --------------------------------------------
    def acc(self) -> dict[str, list[float]]:
        merged: dict[str, list[float]] = {}
        for leg in self.legs:
            for name, values in leg["trace"]["acc"].items():
                slot = merged.setdefault(name, [0, 0.0, 0.0])
                for i, value in enumerate(values):
                    slot[i] += value
        return merged

    def counts(self) -> dict[str, int]:
        """Deterministic counts of a traced repetition: the program's own
        results captured at unit boundaries, span call counts, and the
        artifact ledger."""
        out: dict[str, int] = {**self.ledger, **self.captured()}
        out["checkpoint.pause_samples"] = sum(
            len(leg["trace"]["pause_ms"]) for leg in self.legs
        )
        for name, values in self.acc().items():
            out[f"calls.{name}"] = int(values[0])
        return out

    def captured(self) -> dict[str, int]:
        """Counts the tracer captured at unit boundaries, over all legs."""
        out: dict[str, int] = {}
        for leg in self.legs:
            for key, value in leg["trace"]["counts"].items():
                out[key] = out.get(key, 0) + value
        return out


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SOURCE) + (os.pathsep + old if old else "")
    return env


def run_rep(workload: str, seed: int, traced: bool, deadline: float) -> Rep:
    rep = Rep(workload, seed, traced)
    rep_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    work = rep_dir / "work"
    work.mkdir()
    try:
        for leg in LEGS[workload]:
            out = rep_dir / f"{leg}.json"
            cmd = [
                sys.executable, str(HERE / "child.py"), workload, str(seed),
                str(work), leg, "1" if traced else "0", str(out),
            ]
            spawn = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=_child_env(),
                stdin=subprocess.DEVNULL, stdout=sys.stderr,
            )
            timer = threading.Timer(max(1.0, deadline - spawn), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: never leave the child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0 or not out.exists():
                rep.crashed = f"{leg} leg exited with code {proc.returncode}"
                return rep
            rep.absorb(json.loads(out.read_text()), spawn, usage)
        rep.disk_mb = sum(
            p.stat().st_size for p in work.rglob("*") if p.is_file()
        ) / 1e6
        return rep
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def _write_spans(rep: Rep) -> None:
    path = WORK / f"spans-{rep.workload}-{rep.seed}.json"
    legs = [
        {"columns": ["name", "start_s", "end_s", "parent", "unit"],
         "spans": leg["trace"]["spans"]}
        for leg in rep.legs
    ]
    path.write_text(json.dumps({"workload": rep.workload, "seed": rep.seed,
                                "legs": legs}))


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(traced: Rep, untraced: Rep) -> dict[str, float]:
    acc = traced.acc()
    counts = traced.counts()

    def self_s(names: tuple[str, ...]) -> float:
        return sum(acc[n][2] for n in names if n in acc)

    out: dict[str, float] = {n: self_s(names) for n, names in SPAN_TIMES.items()}
    out.update({n: counts.get(key, 0) for n, key in COUNTS.items()})
    events = out["sim.events"]
    out["sim.us_per_event"] = out["sim.self_s"] / events * 1e6 if events else 0.0
    host_writes = counts.get("stats.host_writes", 0)
    out["ftl.waf"] = out["flash.programs"] / host_writes if host_writes else 0.0
    pauses = [p for leg in traced.legs for p in leg["trace"]["pause_ms"]]
    out["checkpoint.pause_ms_p50"] = _percentile(pauses, 50)
    out["checkpoint.pause_ms_p90"] = _percentile(pauses, 90)
    out["trace.overhead_frac"] = traced.wall / untraced.wall - 1.0
    attributed = sum(
        values[2] for name, values in acc.items()
        if name.split(".", 1)[0] not in GLUE
    )
    out["trace.unattributed_frac"] = 1.0 - attributed / traced.active
    return out


def _run_reps(args: argparse.Namespace, start: float) -> tuple[list[Rep], list[Rep]]:
    """(untraced, traced) repetitions of one run.

    Untraced runs use inputs 0, 0, 1, 2, ... (the repeat of input 0 checks
    that its digest and ledger repeat exactly); traced runs alternate
    untraced and traced repetitions of input 0.
    """
    deadline = start + HARD_LIMIT_S
    untraced: list[Rep] = []
    traced: list[Rep] = []

    def go(seed: int, trace: bool) -> Rep:
        rep = run_rep(args.workload, seed, trace, deadline)
        print(_describe(rep), file=sys.stderr, flush=True)
        (traced if trace else untraced).append(rep)
        if trace and len(traced) == 1 and not rep.crashed:
            _write_spans(rep)
        return rep

    def more(done: int, minimum: int) -> bool:
        elapsed = time.monotonic() - start
        if elapsed > LAST_START_S:
            return False
        return done < minimum or elapsed < args.seconds

    if args.trace:
        while more(len(traced), MIN_PAIRS):
            if go(args.seed, False).crashed or go(args.seed, True).crashed:
                break
    else:
        while more(len(untraced), MIN_REPS):
            index = max(0, len(untraced) - 1)
            if go(args.seed + index * SEED_STRIDE, False).crashed:
                break
    return untraced, traced


def _describe(rep: Rep) -> str:
    kind = "traced" if rep.traced else "untraced"
    if rep.crashed:
        return f"perfbench: {rep.workload} seed={rep.seed} {kind}: {rep.crashed}"
    return (
        f"perfbench: {rep.workload} seed={rep.seed} {kind}: "
        f"wall={rep.wall:.3f}s cpu={rep.cpu:.3f}s setup={rep.setup:.3f}s "
        f"requests={rep.requests} rss={rep.rss_mb:.1f}MB "
        f"disk={rep.disk_mb:.3f}MB failed_units={rep.failed_units}"
    )


def _consistency(untraced: list[Rep], traced: list[Rep]) -> list[str]:
    """Digest and count repeatability; returns the problems found."""
    reps = untraced + traced
    if any(rep.crashed for rep in reps):
        return ["a repetition crashed"]
    problems = []
    same_input = [rep for rep in reps if rep.seed == reps[0].seed]
    for rep in same_input[1:]:
        if rep.digest != same_input[0].digest:
            problems.append(f"artifact digest of seed {rep.seed} differs between repeats")
        if rep.ledger != same_input[0].ledger:
            problems.append(f"work-count ledger of seed {rep.seed} differs between repeats")
    if traced:
        first = traced[0].counts()
        for rep in traced[1:]:
            if rep.counts() != first:
                problems.append("traced counts differ between traced repeats")
        captured = traced[0].captured()
        for key, value in traced[0].ledger.items():
            if key in captured and captured[key] != value:
                problems.append(
                    f"{key}: {captured[key]} at the traced unit boundaries "
                    f"but {value} in the artifact"
                )
    return problems


def _print_ledger(workload: str, rep: Rep, counts: dict[str, int]) -> None:
    items = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"ledger {workload} seed={rep.seed}: {items}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(LEGS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds like an interrupted one: its child is
    # killed and reaped and its work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE / 'repro'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # byte-compile once, untimed: users do not pay compilation per run
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SOURCE / "repro")],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=False,
    )
    untraced, traced = _run_reps(args, start)
    reps = untraced + traced
    attempted = sum(UNITS[args.workload] for _ in reps)
    failed = sum(rep.failed_units for rep in reps)
    problems = _consistency(untraced, traced)
    for rep in reps:
        problems += [f"seed {rep.seed} unit {u}: {why}" for u, why in rep.units.items() if why]
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    metrics: dict[str, dict[str, float | str]] = {}
    if args.trace:
        pairs = [(t, u) for t, u in zip(traced, untraced) if not (t.crashed or u.crashed)]
        if pairs:
            _print_ledger(args.workload, pairs[0][0], pairs[0][0].counts())
            per_pair = [layer_metrics(t, u) for t, u in pairs]
            for name, unit in PER_LAYER_UNITS.items():
                value = statistics.median(m[name] for m in per_pair)
                metrics[name] = {"value": value, "unit": unit}
    else:
        ok = [rep for rep in untraced if not rep.crashed]
        if ok:
            _print_ledger(args.workload, ok[0], ok[0].ledger)
            samples = {
                "wall_s": [r.wall for r in ok],
                "setup_s": [r.setup for r in ok],
                "requests_per_s": [r.requests / r.active for r in ok],
                "peak_rss_mb": [r.rss_mb for r in ok],
                "disk_mb": [r.disk_mb for r in ok],
            }
            for name, unit in END_TO_END.items():
                metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    print(f"failed_frac={failed / attempted if attempted else 1.0} "
          f"({failed} of {attempted} units failed)")
    correct = not problems and failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
