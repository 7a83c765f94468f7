"""Fault-injection smoke: recovery must be invisible in the output.

Not a perf benchmark — a CI robustness gate (docs/robustness.md).  It
runs the same scale-1000 campaign on a 4-worker shm pool under each
fault below and demands byte-identical results:

1. **clean** — no faults; must finish with zero ticket retries (the
   supervised dispatch path behaving exactly like a blocking map);
2. **faulted** — one worker crash plus one corrupted ticket result
   buffer injected by the deterministic fault harness
   (:mod:`repro.faults`), addressed by ticket index (the campaign
   prefetches one ticket per worker, covering every week); supervision
   must absorb both (retries > 0) and the campaign, its analysis
   report and the shared clock must equal the clean run's exactly;
3. **kill-and-resume**, once on the pool and once on the serial
   engine — the campaign is aborted after its second week, then resumed
   from its checkpoint directory on a fresh world with the same
   executor; the resumed campaign, its report and the world clock must
   equal the clean pool run's exactly.

Any divergence, missed fault or unexpected retry exits non-zero::

    PYTHONPATH=src python benchmarks/bench_fault_injection.py
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

import repro
from repro.analysis.report import longitudinal_report
from repro.faults import FaultPlan, InjectedFault
from repro.pipeline import ShmPoolScanEngine, SupervisionStats
from repro.scanner.results import DomainObservation
from repro.web.spec import WorldConfig

SCALE = 1_000
WORKERS = 4
POPULATIONS = ("cno", "toplist")
#: Per-week ticket deadline; a lost three-week ticket times out after 9 s.
SHARD_TIMEOUT = 3.0

OBSERVATION_FIELDS = [f.name for f in dataclasses.fields(DomainObservation)]

_failures: list[str] = []


def _check(ok: bool, label: str) -> None:
    print(f"{'ok' if ok else 'FAIL'}: {label}")
    if not ok:
        _failures.append(label)


def _build() -> "repro.World":
    return repro.build_world(WorldConfig(scale=SCALE))


def _weeks(world):
    config = world.config
    return [config.start_week, config.start_week + 8, config.reference_week]


def _campaign(world, *, workers=WORKERS, fault_plan=None, shard_timeout=60.0, **kwargs):
    """The campaign on a pool of ``workers`` (serial when ``None``),
    with the pool's supervision counters (all zero on the serial
    engine)."""

    def run(**engine):
        return repro.run_campaign(
            world, weeks=_weeks(world), populations=POPULATIONS,
            fault_plan=fault_plan, **engine, **kwargs,
        )

    if workers is None:
        return run(), SupervisionStats()
    with ShmPoolScanEngine(
        world, workers=workers, fault_plan=fault_plan, shard_timeout=shard_timeout
    ) as engine:
        return run(engine=engine), engine.supervision


def _campaigns_equal(reference, candidate) -> bool:
    if reference.weeks() != candidate.weeks():
        return False
    for ref_run, run in zip(reference.runs, candidate.runs, strict=True):
        if len(ref_run.observations) != len(run.observations):
            return False
        for exp, act in zip(ref_run.observations, run.observations, strict=True):
            for name in OBSERVATION_FIELDS:
                if getattr(exp, name) != getattr(act, name):
                    return False
        if ref_run.site_records.keys() != run.site_records.keys():
            return False
        for index, exp_record in ref_run.site_records.items():
            act_record = run.site_records[index]
            if (exp_record.ip, exp_record.quic, exp_record.tcp) != (
                act_record.ip, act_record.quic, act_record.tcp
            ):
                return False
    return True


def main() -> int:
    clean_world = _build()
    clean, clean_stats = _campaign(clean_world)
    clean_report = repr(longitudinal_report(clean))
    print(f"clean campaign: {len(clean.runs)} weeks, "
          f"{sum(len(r.observations) for r in clean.runs)} observations, "
          f"{clean_stats.retries} ticket retries")
    _check(clean_stats.retries == 0, "clean run needed no ticket retries")

    # ------------------------------------------------------------------
    # Leg 1: worker crash on ticket 1 + corrupted result buffer of ticket 2.
    # ------------------------------------------------------------------
    weeks = _weeks(clean_world)
    plan = (
        FaultPlan(seed=11)
        .crash_worker(shard=1, week=weeks[0])
        .corrupt_shard_buffer(shard=2, week=weeks[2], mode="bitflip")
    )
    faulted_world = _build()
    faulted, faulted_stats = _campaign(faulted_world, fault_plan=plan,
                                       shard_timeout=SHARD_TIMEOUT)
    print(f"faulted campaign: {faulted_stats.retries} retries, "
          f"{faulted_stats.timeouts} timeouts, "
          f"{faulted_stats.failures} failures")
    _check(faulted_stats.timeouts == 1,
           "worker crash surfaced as exactly one ticket timeout")
    _check(faulted_stats.failures == 1,
           "corrupted buffer surfaced as exactly one ticket failure")
    _check(faulted_stats.retries == 2,
           "both faults recovered with exactly one retry each")
    _check(_campaigns_equal(clean, faulted),
           "faulted campaign observations identical to clean run")
    _check(repr(longitudinal_report(faulted)) == clean_report,
           "faulted campaign analysis report identical to clean run")
    _check(faulted_world.clock.now == clean_world.clock.now,
           "faulted campaign clock identical to clean run")

    # ------------------------------------------------------------------
    # Leg 2: kill after the second week, resume from checkpoints — on
    # the pool and on the serial engine.
    # ------------------------------------------------------------------
    for executor, workers in (("pool", WORKERS), ("serial", None)):
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            killed_world = _build()
            abort = FaultPlan().abort_campaign_after(weeks[1])
            try:
                _campaign(killed_world, workers=workers,
                          checkpoint_dir=checkpoint_dir, fault_plan=abort)
            except InjectedFault:
                pass
            else:
                _check(False, f"{executor}: abort fault interrupted the campaign")
            stored = sorted(Path(checkpoint_dir).rglob("*.ecnc"))
            _check(len(stored) == 2,
                   f"{executor}: two weeks checkpointed before the kill "
                   f"(found {len(stored)})")
            resumed_world = _build()
            resumed, resumed_stats = _campaign(
                resumed_world, workers=workers,
                checkpoint_dir=checkpoint_dir, resume=True,
            )
            _check(_campaigns_equal(clean, resumed),
                   f"{executor}: resumed campaign observations identical to "
                   f"clean run")
            _check(repr(longitudinal_report(resumed)) == clean_report,
                   f"{executor}: resumed campaign analysis report identical "
                   f"to clean run")
            _check(resumed_world.clock.now == clean_world.clock.now,
                   f"{executor}: resumed campaign clock identical to clean run")
            _check(resumed_stats.retries == 0,
                   f"{executor}: resume needed no ticket retries")

    if _failures:
        print(f"\n{len(_failures)} fault-injection check(s) failed",
              file=sys.stderr)
        return 1
    print("\nOK: every fault was absorbed; recovery is invisible in the output")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
