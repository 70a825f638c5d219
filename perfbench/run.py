"""perfbench — the repository's repeatable benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload qkp-paper-r1 --seed 1 --seconds 30 --trace 0

Workloads (the reasons are recorded in ``BENCHMARK.json``):

- ``qkp-paper-r1``: seeded R=1 ``repro.solve`` calls on the paper's QKP
  sizes plus an n=1000 class (``pb_solves``);
- ``mkp-fleet``: fused ``solve_many`` batches of small MKP instances
  (``pb_solves``);
- ``service-open-loop``: a ``repro serve`` subprocess under a seeded
  open-loop schedule at three fixed rates (``pb_service``).

``--trace 0`` measures and prints every end-to-end metric; ``--trace 1``
prints every per-layer metric instead, from wrappers installed around
repro's public calls (``pb_trace``).  Outputs are checked outside the
timed region; a failed check makes the run exit 1.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
What each metric means on each workload is in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pb_common import (  # noqa: E402
    OUT_DIR, HostSpeed, Result, child_env, host_fingerprint, import_repro,
    median, pin_environment,
)

WORKLOADS = ("qkp-paper-r1", "mkp-fleet", "service-open-loop")
SETUP_PROBES = 3

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("solve_tail_s", "s"),
    ("solve_large_s", "s"),
    ("spin_updates_per_s", "1/s"),
    ("accuracy_pct", "%"),
    ("feasible_pct", "%"),
    ("success_pct", "%"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("max_rate_rps", "1/s"),
)

_RATES = ("low", "mid", "high")
#: ``(name, unit)`` of every per-layer metric; a layer a workload does
#: not enter reads 0 there.
PER_LAYER = (
    ("ising.pbit.anneal_s", "s"),
    ("ising.pbit.anneal_calls", "count"),
    ("ising.pbit.ns_per_spin_update", "ns"),
    ("ising.pbit.set_fields_s", "s"),
    ("ising.pbit.build_s", "s"),
    ("ising.fleet.anneal_s", "s"),
    ("ising.fleet.ns_per_spin_update", "ns"),
    ("ising.fleet.active_share", "ratio"),
    ("ising.fleet.build_s", "s"),
    ("core.engine.self_s", "s"),
    ("core.fleet_engine.self_s", "s"),
    ("core.encoding.s", "s"),
    ("core.encoding.slack_spins", "count"),
    ("core.penalty.s", "s"),
    ("core.lagrangian.build_s", "s"),
    ("core.lagrangian.program_for_s", "s"),
    ("core.lagrangian.program_for_calls", "count"),
    ("core.lagrangian.residuals_s", "s"),
    ("api.solve.self_s", "s"),
    ("runtime.executor.self_s", "s"),
    ("service.codec.job_to_wire_ms", "ms"),
    ("service.codec.job_from_wire_ms", "ms"),
    ("service.codec.report_to_wire_ms", "ms"),
    ("service.codec.report_from_wire_ms", "ms"),
    ("service.codec.request_kb", "KiB"),
    ("service.codec.response_kb", "KiB"),
    ("service.http.overhead_ms", "ms"),
    *((f"service.queue.wait_p50_ms.{r}", "ms") for r in _RATES),
    *((f"service.queue.wait_tail_ms.{r}", "ms") for r in _RATES),
    *((f"service.queue.depth_end.{r}", "count") for r in _RATES),
    ("service.queue.rejected", "count"),
    ("service.pool.solve_ms", "ms"),
    ("service.pool.program_hit_ratio", "ratio"),
    ("service.pool.lambda_entries", "count"),
    ("loadgen.lag_ms", "ms"),
    *((f"loadgen.latency_p50_ms.{r}", "ms") for r in _RATES),
    *((f"loadgen.latency_tail_ms.{r}", "ms") for r in _RATES),
    *((f"loadgen.open_at_end.{r}", "count") for r in _RATES),
    ("trace.overhead_pct", "%"),
)


def setup_seconds(workload: str, seed: int) -> tuple[float, list]:
    """Median wall of fresh interpreters that import repro and build the
    workload's instances (what a user pays before the first solve)."""
    speed, timed = HostSpeed(), []
    for _ in range(SETUP_PROBES):
        speed.sample()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            env=child_env(), check=True, timeout=120,
            stdout=subprocess.DEVNULL,
        )
        timed.append((start, time.perf_counter() - start))
    speed.sample()
    walls = [wall * speed.scale_at(start) for start, wall in timed]
    return median(walls), walls


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out_dir=OUT_DIR, **options) -> Result:
    """One run; ``options`` (``spec``, ``references``) shrink it in tests."""
    if workload == "service-open-loop":
        import pb_service

        return pb_service.run(seed, seconds, trace, out_dir=out_dir,
                              **options)
    import pb_solves

    setup, walls = setup_seconds(workload, seed) if not trace else (0.0, [])
    result = pb_solves.run(workload, seed, seconds, trace, out_dir=out_dir,
                           **options)
    if not trace:
        result.put("setup_s", setup, "s",
                   f"median of {len(walls)} import+build interpreters")
    return result


def finish(result: Result, trace: bool) -> dict:
    """Fill the metric set the mode promises; returns the JSON record."""
    if not trace:
        result.put("success_pct", 100.0 * (result.attempted - result.failed)
                   / max(1, result.attempted), "%",
                   f"{result.attempted - result.failed} of "
                   f"{result.attempted} operations")
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in wanted:
        value, got_unit = result.metrics.get(name, (0.0, unit))
        if got_unit != unit:
            raise AssertionError(f"{name}: unit {got_unit} != {unit}")
        if not trace and name not in result.metrics:
            raise AssertionError(f"{result.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def emit(result: Result, trace: bool) -> int:
    """Print the report and the JSON record; returns the exit code."""
    record = finish(result, trace)
    print_report(result, record, host_fingerprint())
    print(json.dumps(record))
    return 0 if record["correct"] else 1


def print_report(result: Result, record: dict, host: dict) -> None:
    print(f"# perfbench {result.workload}  host {json.dumps(host)}")
    for name, entry in record["metrics"].items():
        note = result.notes.get(name, "")
        print(f"{name:40s} {entry['value']:14.6g} {entry['unit']:6s} {note}")
    for name, note in result.notes.items():
        if name not in record["metrics"]:
            print(f"# {name}: {note}")
    for failure in result.check_failures[:20]:
        print(f"# CHECK FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # A terminated run still unwinds, so the service workload's finally
    # blocks stop the server subprocess and its workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    pin_environment()
    import_repro()
    if args.setup_probe:
        import pb_solves

        pb_solves.prepare(args.workload, args.seed, pb_solves.SolveSpec())
        return 0
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    return emit(result, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
