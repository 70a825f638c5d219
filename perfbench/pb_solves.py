"""The two in-process solve workloads.

``qkp-paper-r1``
    Seeded ``repro.solve`` calls at R=1 on the default ``pbit`` backend,
    one at a time, on the paper's QKP sizes (n = 100, 200, 300; Tables
    III-IV) plus an n=1000 class, which sits on the other side of the
    lockstep/serial kernel crossover.  The budget is the Table I QKP
    config at 3% of its K and MCS; the multiplier step is set per size
    class so that every seeded solve ends feasible.

``mkp-fleet``
    Batches of small Chu-Beasley MKP instances through
    ``solve_many(fleet_jobs(...), strategy="fused")`` with the Table I
    MKP config scaled to K=20 x 10 MCS (``compensate_eta=True``).  It
    bypasses the R=1 kernel and exercises the fleet kernel, the fleet
    engine and the executor.  Every fourth batch is four times as wide.

Both run whole rounds: one round is one pass over the instance pool in
a seed-shuffled order, with fresh solve seeds.  Every round holds the
same instances, so medians do not depend on which instances a run
happened to reach; a round starts only if it fits in the time left.
Outputs are checked after the timed loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

import pb_refs
from pb_common import HostSpeed, Result, median

#: Rounds whose solves feed accuracy_pct and feasible_pct; every run
#: completes them, so the quality figures are deterministic per seed.
QUALITY_ROUNDS = 2


def qkp_config(n: int):
    """Table I QKP config at 3% of K and MCS (K=60, 30 MCS), with a
    normalized sqrt-decayed multiplier step sized per class: the paper's
    eta=20 (and the ``ci`` preset's 80) leave n=200/300 infeasible at
    this budget, and the n=1000 multipliers must climb ~16x further."""
    from repro import SaimConfig

    base = SaimConfig.qkp_paper().scaled(0.03, 0.03)
    eta = 12800.0 if n >= pb_refs.QKP_LARGE_SIZE else 800.0
    return replace(base, eta=eta, eta_decay="sqrt", normalize_step=True)


def mkp_config():
    """Table I MKP config scaled to K=20 x 10 MCS, step compensated."""
    from repro import SaimConfig

    return SaimConfig.mkp_paper().scaled(20 / 5000, 10 / 1000,
                                         compensate_eta=True)


@dataclass
class SolveSpec:
    """Sizes and pools of the solve workloads (tests shrink them)."""

    qkp_paper: tuple = pb_refs.QKP_PAPER_SIZES
    qkp_indices: tuple = pb_refs.QKP_PAPER_INDICES
    qkp_large: int = pb_refs.QKP_LARGE_SIZE
    qkp_large_indices: tuple = pb_refs.QKP_LARGE_INDICES
    mkp_items: int = pb_refs.MKP_ITEMS
    mkp_constraints: int = pb_refs.MKP_CONSTRAINTS
    mkp_indices: tuple = pb_refs.MKP_INDICES
    #: Batch widths of one round; they add up to the pool size.
    mkp_widths: tuple = pb_refs.MKP_WIDTHS


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _shuffled(rng, items) -> list:
    return [items[int(k)] for k in rng.permutation(len(items))]


def qkp_rounds(seed: int, spec: SolveSpec):
    """Endless rounds of ops ``(n, index, solve seed)``: the paper-size
    pool in shuffled order, one n=1000 solve after each equal share."""
    rng = np.random.default_rng([seed, 1])
    paper = [(n, i) for n in spec.qkp_paper for i in spec.qkp_indices]
    share = len(paper) // len(spec.qkp_large_indices)
    while True:
        order = _shuffled(rng, paper)
        ops = []
        for k, index in enumerate(_shuffled(rng, spec.qkp_large_indices)):
            ops += order[k * share:(k + 1) * share]
            ops.append((spec.qkp_large, index))
        yield [(n, i, int(rng.integers(2**31))) for n, i in ops]


def mkp_rounds(seed: int, spec: SolveSpec):
    """Endless rounds of batches ``(instance indices, fleet seed)``."""
    rng = np.random.default_rng([seed, 2])
    while True:
        order = _shuffled(rng, spec.mkp_indices)
        batches, start = [], 0
        for width in spec.mkp_widths:
            batches.append((tuple(order[start:start + width]),
                            int(rng.integers(2**31))))
            start += width
        yield batches


def build_qkp(spec: SolveSpec) -> dict:
    from repro import paper_qkp_instance

    keys = [(n, i) for n in spec.qkp_paper for i in spec.qkp_indices]
    keys += [(spec.qkp_large, i) for i in spec.qkp_large_indices]
    return {(n, i): paper_qkp_instance(n, pb_refs.QKP_DENSITY, i)
            for n, i in keys}


def build_mkp(spec: SolveSpec) -> dict:
    from repro import paper_mkp_instance

    return {
        i: paper_mkp_instance(spec.mkp_items, spec.mkp_constraints, i)
        for i in spec.mkp_indices
    }


def spin_count(instance) -> int:
    """Spins the machine anneals: decision plus slack spins."""
    from repro.core.encoding import encode_with_slacks

    return encode_with_slacks(instance.to_problem()).problem.num_variables


# ---------------------------------------------------------------------------
# Timed loop and checks
# ---------------------------------------------------------------------------

def timed_rounds(rounds, execute, seconds: float, speed: HostSpeed,
                 min_rounds: int = 1) -> list:
    """Run whole rounds while the next one is expected to end within
    ``seconds`` (at least ``min_rounds``), with a yardstick sample before
    every op; returns ``(round, op, wall at nominal host speed, output,
    error)``."""
    timed = []
    start = time.perf_counter()
    for number, ops in enumerate(rounds):
        elapsed = time.perf_counter() - start
        if (number >= min_rounds
                and elapsed * (number + 1) / number > seconds):
            break
        for op in ops:
            speed.sample()
            t0 = time.perf_counter()
            try:
                output, error = execute(op), None
            except Exception as exc:  # an op that raises is a counted failure
                output, error = None, f"{type(exc).__name__}: {exc}"
            timed.append((number, op, t0, time.perf_counter() - t0, output,
                          error))
    speed.sample()
    return [(number, op, wall * speed.scale_at(t0), output, error)
            for number, op, t0, wall, output, error in timed]


def _check_report(result: Result, instance, report, label: str) -> bool:
    """best_x feasible and best_cost equal to the recomputed cost."""
    if report.best_x is None:
        return result.check(not report.feasible,
                            f"{label}: feasible report without best_x")
    ok = result.check(bool(instance.is_feasible(report.best_x)),
                      f"{label}: best_x violates the instance")
    return ok and result.check(
        report.best_cost == instance.cost(report.best_x),
        f"{label}: best_cost {report.best_cost!r} != recomputed "
        f"{instance.cost(report.best_x)!r}",
    )


def _quality(report, reference: float) -> tuple[float, float]:
    """(accuracy %, feasible-sample %) of one solve."""
    accuracy = (100.0 * report.best_profit / reference if report.feasible
                else 0.0)
    return accuracy, 100.0 * float(np.mean(report.trace.feasible))


def _put_common(result: Result, walls, regular, updates, quality,
                what: str) -> None:
    """Metrics shared by both solve workloads; ``regular`` are the walls
    of the workload's regular class (paper sizes, B=8 batches)."""
    result.put_timing(("solve_s", "solve_tail_s"), regular, "s", what=what)
    result.put("spin_updates_per_s", updates / sum(walls), "1/s",
               "over front-door wall")
    result.put("accuracy_pct", float(np.mean([q[0] for q in quality])), "%",
               f"{len(quality)} solves of the first {QUALITY_ROUNDS} rounds")
    result.put("feasible_pct", float(np.mean([q[1] for q in quality])), "%",
               f"{len(quality)} solves of the first {QUALITY_ROUNDS} rounds")
    # A closed loop of one caller: each call is due when the last returns,
    # so a call's latency is its wall.  Pooling the large class in would
    # put the tail on the boundary between two classes.
    result.put_timing(("latency_p50_ms", "latency_tail_ms"), regular, "ms",
                      scale=1e3, what=what)
    result.put("max_rate_rps", len(walls) / sum(walls), "1/s",
               "calls of every class completed per busy second")


# ---------------------------------------------------------------------------
# qkp-paper-r1
# ---------------------------------------------------------------------------

def qkp_execute(instances):
    import repro

    def execute(op):
        n, index, solve_seed = op
        return repro.solve(instances[(n, index)], config=qkp_config(n),
                           rng=solve_seed)

    return execute


def qkp_collect(result: Result, records, instances, references, spec) -> None:
    """Checks and end-to-end metrics of ``qkp-paper-r1`` records."""
    spins = {key: spin_count(inst) for key, inst in instances.items()}
    paper_walls, large_walls, walls = [], [], []
    quality, large_quality = [], []
    updates = 0.0
    for number, (n, index, seed), wall, report, error in records:
        label = f"qkp {pb_refs.qkp_name(n, index)} rng={seed}"
        ok = result.check(error is None, f"{label}: {error}")
        if ok:
            ok = _check_report(result, instances[(n, index)], report, label)
        result.op(ok)
        walls.append(wall)
        (large_walls if n == spec.qkp_large else paper_walls).append(wall)
        if report is None:
            continue
        updates += report.total_mcs * spins[(n, index)]
        if number < QUALITY_ROUNDS:
            (large_quality if n == spec.qkp_large else quality).append(
                _quality(report, references[pb_refs.qkp_name(n, index)]))
    result.put("solve_large_s", median(large_walls), "s",
               f"median of {len(large_walls)} n={spec.qkp_large} solves")
    # The n=1000 budget buys feasibility, not paper-grade accuracy, so its
    # quality is reported beside the metrics rather than averaged in.
    result.notes["n1000.quality"] = (
        f"accuracy {np.mean([q[0] for q in large_quality]):.1f}%, feasible "
        f"samples {np.mean([q[1] for q in large_quality]):.1f}% over "
        f"{len(large_quality)} solves")
    _put_common(result, walls, paper_walls, updates, quality,
                "paper-size solves")


# ---------------------------------------------------------------------------
# mkp-fleet
# ---------------------------------------------------------------------------

def mkp_execute(instances):
    import repro

    config = mkp_config()

    def execute(op):
        indices, fleet_seed = op
        jobs = repro.fleet_jobs([instances[i] for i in indices],
                                rng=fleet_seed, config=config)
        return repro.solve_many(jobs, strategy="fused").results

    return execute


def mkp_collect(result: Result, records, instances, references, spec) -> None:
    """Checks (one serial re-solve per batch among them) and end-to-end
    metrics of ``mkp-fleet`` records."""
    import repro

    config = mkp_config()
    width, large = min(spec.mkp_widths), max(spec.mkp_widths)

    def name(i):
        return pb_refs.mkp_name(spec.mkp_items, spec.mkp_constraints, i)

    spins = {i: spin_count(inst) for i, inst in instances.items()}
    batch_walls, large_walls, walls, quality = [], [], [], []
    updates = 0.0
    for number, (indices, fleet_seed), wall, reports, error in records:
        label = f"mkp batch rng={fleet_seed}"
        ok = result.check(error is None, f"{label}: {error}")
        if ok:
            for b, (i, report) in enumerate(zip(indices, reports)):
                ok &= _check_report(result, instances[i], report,
                                    f"{label} #{b} {name(i)}")
            # One instance per batch, re-solved on its own spawned stream
            # through the serial front door, must be the same report.
            b = fleet_seed % len(indices)
            job = repro.fleet_jobs([instances[i] for i in indices],
                                   rng=fleet_seed, config=config)[b]
            again = repro.solve(job.problem, config=job.config, rng=job.rng)
            ok &= result.check(again == reports[b],
                               f"{label} #{b}: fused report != repro.solve")
        result.op(ok)
        walls.append(wall)
        (large_walls if len(indices) == large else batch_walls).append(wall)
        if reports is None:
            continue
        updates += sum(r.total_mcs * spins[i] for i, r in zip(indices, reports))
        if number < QUALITY_ROUNDS:
            quality += [_quality(r, references[name(i)])
                        for i, r in zip(indices, reports)]
    result.put("solve_large_s", median(large_walls), "s",
               f"median of {len(large_walls)} B={large} batches")
    _put_common(result, walls, batch_walls, updates, quality,
                f"B={width} batches")


# ---------------------------------------------------------------------------
# Workload drivers
# ---------------------------------------------------------------------------

WORKLOADS = {
    "qkp-paper-r1": ("qkp", qkp_rounds, build_qkp, qkp_execute, qkp_collect),
    "mkp-fleet": ("mkp", mkp_rounds, build_mkp, mkp_execute, mkp_collect),
}


def _speed_note(speed: HostSpeed) -> str:
    return (f"timings scaled x{speed.scale():.3f} to nominal host speed "
            f"({len(speed.samples)} yardstick samples)")


def prepare(workload: str, seed: int, spec: SolveSpec):
    """Instance build and op plan: what ``setup_s`` times after imports."""
    _, rounds_fn, build_fn, *_ = WORKLOADS[workload]
    return build_fn(spec), rounds_fn(seed, spec)


def run(workload: str, seed: int, seconds: float, trace: bool,
        spec: SolveSpec | None = None, references=None, out_dir=None):
    """One run of a solve workload; returns its :class:`Result`."""
    from pb_trace import Tracer, coverage, layer_metrics

    spec = spec or SolveSpec()
    references = references or pb_refs.load_references()
    key, rounds_fn, _, execute_fn, collect_fn = WORKLOADS[workload]
    instances, rounds = prepare(workload, seed, spec)
    execute = execute_fn(instances)
    execute(next(rounds_fn(seed + 1, spec))[0])  # warm-up, not measured
    result = Result(workload)

    speed = HostSpeed()
    if not trace:
        # Two rounds at least: a tail needs ten samples beyond it, and
        # with two rounds it falls inside the slowest class, not between
        # two classes.
        records = timed_rounds(rounds, execute, seconds, speed,
                               min_rounds=QUALITY_ROUNDS)
        collect_fn(result, records, instances, references[key], spec)
        result.notes["host.speed"] = _speed_note(speed)
        return result

    # Traced run: the same rounds twice, untraced then traced, each for
    # half the time; the matched ops give the tracing overhead.
    plain = timed_rounds(rounds, execute, seconds / 2, speed)
    tracer = Tracer()
    ids = iter(range(1 << 30))

    def traced_execute(op):
        tracer.request = f"op-{next(ids)}"
        return execute(op)

    with tracer:
        traced = timed_rounds(rounds_fn(seed, spec), traced_execute,
                              seconds / 2, speed)
    matched = min(len(plain), len(traced))
    overhead = 100.0 * (sum(r[2] for r in traced[:matched])
                        / sum(r[2] for r in plain[:matched]) - 1.0)
    check_only = Result(workload)
    collect_fn(check_only, plain + traced, instances, references[key], spec)
    result.attempted, result.failed = check_only.attempted, check_only.failed
    result.check_failures = check_only.check_failures
    for name, (value, unit) in layer_metrics(tracer.spans,
                                             len(traced)).items():
        result.put(name, value, unit)
    result.put("trace.overhead_pct", overhead, "%",
               f"{matched} matched ops, traced vs untraced wall")
    result.notes["trace.coverage"] = f"{100 * coverage(tracer.spans):.2f}%"
    if out_dir is not None:
        tracer.dump(out_dir / f"spans-{workload}-seed{seed}.json")
    return result
