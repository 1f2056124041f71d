"""The three benchmark workloads, each run inside one fresh process.

Every workload is a function ``(seed, workdir, leg, clock) -> dict``.
It builds its configuration, calls ``clock.enter()`` immediately before
the first call into the program's entry function, runs the campaign,
writes the campaign's deterministic artifact into ``workdir`` (as the
matching CLI subcommand's ``--json`` would), calls ``clock.done()``, and
only then checks the outputs.  The returned dict carries:

* ``units`` -- one ``{"unit", "ok", "why"}`` row per variant on one
  device; a unit fails if it raised or failed a correctness check;
* ``digest`` -- sha256 of the artifact bytes (None for a pause leg);
* ``ledger`` -- deterministic work counts read from the artifact and the
  campaign directory, never from timers;
* ``requests`` -- simulated host requests completed.

Entry points are reached through their modules (``runner.simulate_
workload``, not a local copy) so that the traced run's wrappers, which
rebind module attributes, see every call.

Sizes were chosen so that one process runs for a few seconds on a
2-core host; they are part of the benchmark's definition.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from pathlib import Path
from typing import Any

from repro.analysis import aging
from repro.checkpoint.codec import canonical_dumps
from repro.fleet import scheduler
from repro.fleet.tenants import FleetConfig
from repro.sim import runner
from repro.sim.arrivals import ClosedLoopArrivals
from repro.ssd import scaled_config

# engine-db: `repro simulate --workload DBServer --variants secSSD erSSD
#   --qd 16 --policy fifo --multiplier 0.1` at the simulate default scale
ENGINE_VARIANTS = ("secSSD", "erSSD")
ENGINE_SCALE = {"blocks_per_chip": 20, "wordlines_per_block": 16}
ENGINE_MULTIPLIER = 0.1
ENGINE_QD = 16
#: the open-loop vs closed-loop IOPS agreement contract of the repo's
#: engine tests (FIFO policy, saturating closed loop).
AGREEMENT_TOLERANCE = 0.05

# age-ckpt: `repro age --blocks 32 --wordlines 8 --pe-limit 25
#   --multiplier 0.3 --checkpoint-every 400 --variants secSSD erSSD`,
#   paused after 8 generations per variant and resumed.  Every
#   generation costs about 11 fsyncs whatever the device size; this
#   size and cadence put ~250 ms of snapshot, encode and engine work
#   behind them, so a shared disk's fsync latency moves the wall time
#   by a few percent.  With ~40 ms per generation (8x4 blocks, every
#   40 requests) it moved it by 45%.
AGE_VARIANTS = ("secSSD", "erSSD")
AGE_SCALE = {
    "blocks_per_chip": 32,
    "wordlines_per_block": 8,
    "pe_limit": 25,
    "wear_leveling_threshold": 4,
}
AGE_MULTIPLIER = 0.3
AGE_CHECKPOINT_EVERY = 400
AGE_PAUSE_AFTER = 8

# fleet-audit: `repro fleet --devices 16 --tenants 600 --shard 4
#   --storm deletion --variants erSSD secSSD --multiplier 0.05 --audit`
FLEET = {
    "devices": 16,
    "tenants": 600,
    "variants": ("erSSD", "secSSD"),
    "storm": "deletion",
    "devices_per_shard": 4,
    "write_multiplier": 0.05,
}


def _unit(name: str, why: str = "") -> dict[str, Any]:
    return {"unit": name, "ok": not why, "why": why}


def _raised(name: str, exc: BaseException) -> dict[str, Any]:
    traceback.print_exception(exc)
    return _unit(name, f"raised {type(exc).__name__}: {exc}")


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def engine_db(seed: int, workdir: Path, leg: str, clock: Any) -> dict[str, Any]:
    config = scaled_config(**ENGINE_SCALE)
    arrivals = ClosedLoopArrivals(ENGINE_QD)
    units: list[dict[str, Any]] = []
    results = {}
    clock.enter()
    for variant in ENGINE_VARIANTS:
        try:
            results[variant] = runner.simulate_workload(
                config,
                "DBServer",
                variant,
                seed=seed,
                write_multiplier=ENGINE_MULTIPLIER,
                policy="fifo",
                arrivals=arrivals,
            )
        except Exception as exc:  # a failed unit is a measured outcome
            units.append(_raised(variant, exc))
    payload = {v: r.to_dict() for v, r in results.items()}
    digest = _write(
        workdir / "simulate.json",
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
    )
    clock.done()
    ledger = dict.fromkeys(
        ("host.requests", "sim.events", "stats.host_writes",
         "stats.gc_invocations", "stats.gc_copies", "stats.flash_reads",
         "stats.flash_programs", "stats.flash_erases", "stats.plocks",
         "stats.block_locks"),
        0,
    )
    for variant, result in results.items():
        report = result.report
        why = ""
        if report.completed != result.requests:
            why = f"{report.completed} of {result.requests} requests completed"
        elif abs(report.open_loop_agreement - 1.0) > AGREEMENT_TOLERANCE:
            why = (f"open-loop agreement {report.open_loop_agreement:.4f} "
                   f"outside 1 +/- {AGREEMENT_TOLERANCE}")
        units.append(_unit(variant, why))
        ledger["host.requests"] += result.requests
        ledger["sim.events"] += report.events
        for key in list(ledger):
            if key.startswith("stats."):
                ledger[key] += getattr(result.run.stats, key[6:])
    return {
        "units": units,
        "digest": digest,
        "ledger": ledger,
        "requests": sum(r.report.completed for r in results.values()),
    }


def _campaign_dir(root: Path, variant: str) -> dict[str, int]:
    """Counts read back from one variant's checkpoint store."""
    store = root / "ck" / variant
    out = {"generations": 0, "files": 0, "bytes": 0, "stop": 0, "quarantined": 0}
    newest = None
    for path in sorted(store.rglob("*")):
        rel = path.relative_to(store).parts
        if rel[0] == "quarantine":
            out["quarantined"] += int(len(rel) == 2)
            continue
        if path.is_dir():
            name = rel[0]
            if len(rel) == 1 and name.startswith("gen-") and not name.endswith(".tmp"):
                out["generations"] += 1
                newest = path
            continue
        out["files"] += 1
        out["bytes"] += path.stat().st_size
    if newest is not None:
        manifest = json.loads((newest / "MANIFEST.json").read_text())
        out["stop"] = int(manifest["meta"]["stop"])
    return out


def age_ckpt(seed: int, workdir: Path, leg: str, clock: Any) -> dict[str, Any]:
    config = scaled_config(**AGE_SCALE)
    root = workdir / "age"
    clock.enter()
    try:
        payload = aging.run_aging_campaign(
            config,
            "MailServer",
            root,
            AGE_CHECKPOINT_EVERY,
            variants=AGE_VARIANTS,
            seed=seed,
            write_multiplier=AGE_MULTIPLIER,
            stop_after=AGE_PAUSE_AFTER if leg == "pause" else None,
        )
    except Exception as exc:  # the grid stops at the first failed variant
        clock.done()
        units = [_raised(AGE_VARIANTS[0], exc)]
        units += [_unit(v, "campaign raised") for v in AGE_VARIANTS[1:]]
        return {"units": units, "digest": None, "ledger": {}, "requests": 0}
    if leg == "pause":
        clock.done()
        units = []
        for variant in AGE_VARIANTS:
            written = _campaign_dir(root, variant)["generations"]
            why = "" if payload.get("paused") else "campaign did not pause"
            if written != AGE_PAUSE_AFTER:
                why = f"paused after {written} generations, not {AGE_PAUSE_AFTER}"
            units.append(_unit(variant, why))
        return {"units": units, "digest": None, "ledger": {}, "requests": 0}
    digest = _write(workdir / "age.json", canonical_dumps(payload))
    clock.done()
    ledger = dict.fromkeys(
        ("checkpoint.generations", "checkpoint.files_written",
         "checkpoint.bytes_written", "sim.completed", "stats.host_writes",
         "stats.flash_erases", "stats.plocks", "stats.block_locks"),
        0,
    )
    units = []
    reports = payload.get("reports", {})
    for variant in AGE_VARIANTS:
        store = _campaign_dir(root, variant)
        report = reports.get(variant)
        why = ""
        if report is None:
            why = "no lifetime report"
        elif store["quarantined"]:
            why = f"resume quarantined {store['quarantined']} generation(s)"
        units.append(_unit(variant, why))
        ledger["checkpoint.generations"] += store["generations"]
        ledger["checkpoint.files_written"] += store["files"]
        ledger["checkpoint.bytes_written"] += store["bytes"]
        ledger["sim.completed"] += store["stop"]
        if report is not None:
            ledger["stats.host_writes"] += report["host_pages_written"]
            for key in ("flash_erases", "plocks", "block_locks"):
                ledger[f"stats.{key}"] += report[key]
    return {
        "units": units,
        "digest": digest,
        "ledger": ledger,
        "requests": ledger["sim.completed"],
    }


def fleet_audit(seed: int, workdir: Path, leg: str, clock: Any) -> dict[str, Any]:
    cfg = FleetConfig(seed=seed, **FLEET)
    expected = [(v, d) for v in cfg.variants for d in range(cfg.devices)]
    clock.enter()
    try:
        run = scheduler.run_fleet(cfg, audit=True)
    except Exception as exc:  # the campaign is one process-wide grid
        clock.done()
        units = [_raised(f"{v}/{d}", exc) for v, d in expected[:1]]
        units += [_unit(f"{v}/{d}", "fleet raised") for v, d in expected[1:]]
        return {"units": units, "digest": None, "ledger": {}, "requests": 0}
    digest = _write(
        workdir / "fleet.json",
        json.dumps(run.report, sort_keys=True, indent=2) + "\n",
    )
    clock.done()
    ledger = dict.fromkeys(
        ("sim.completed", "audit.certs", "audit.failures",
         "audit.residual_secured", "stats.host_writes", "stats.gc_copies",
         "stats.flash_programs", "stats.flash_erases", "stats.plocks",
         "stats.block_locks"),
        0,
    )
    seen = {}
    for variant, summary in run.report["variants"].items():
        for record in summary["devices_detail"]:
            seen[(variant, record["device"])] = record
    units = []
    for variant, device in expected:
        record = seen.get((variant, device))
        name = f"{variant}/{device}"
        if record is None:
            units.append(_unit(name, "missing from the fleet report"))
            continue
        audit = record.get("audit")
        why = ""
        residual = 0
        if audit is None:
            why = "not certified"
        else:
            residual = int(audit["certificate"]["sections"]["ledger"]["residual_secured"])
            if not audit["report"]["ok"]:
                why = "certificate refuted by the verifier"
            elif residual:
                why = f"{residual} secured page(s) still readable"
            ledger["audit.certs"] += 1
            ledger["audit.failures"] += int(not audit["report"]["ok"])
            ledger["audit.residual_secured"] += residual
        units.append(_unit(name, why))
        ledger["sim.completed"] += round(record["iops"] * record["elapsed_us"] / 1e6)
        for key, value in record["stats"].items():
            if f"stats.{key}" in ledger:
                ledger[f"stats.{key}"] += value
    return {
        "units": units,
        "digest": digest,
        "ledger": ledger,
        "requests": ledger["sim.completed"],
    }


WORKLOADS = {
    "engine-db": engine_db,
    "age-ckpt": age_ckpt,
    "fleet-audit": fleet_audit,
}
