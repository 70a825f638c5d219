"""Per-instance SAIM outer loops over one fused fleet anneal per iteration.

:class:`FleetEngine` is :class:`repro.core.engine.SaimEngine` driving ``B``
problems through one machine: every outer iteration reprograms each active
instance's Lagrangian fields into the shared
:class:`repro.ising.fleet.FleetMachine` and runs ONE fused lock-step kernel
call for the whole fleet, then hands each instance's batch to the engine's
own per-instance read-out, incumbent harvest and multiplier update
(``SaimEngine._advance``) — the loop body exists once.  Each instance
keeps its own lambda trajectory, penalty, feasible records and convergence
state; instances that hit their ``target_cost`` / ``patience`` early-exit
are *masked out of the active set* — later iterations draw no noise, run
no events and pay no matmuls for them (the fused kernel compacts the
stacks to the active subset), so late stragglers don't pay for finished
work.

Equivalence contract
--------------------
``FleetEngine(config, ...).solve_fleet(problems, rng=seed)`` returns, per
instance ``b``, *exactly* the :class:`~repro.core.saim.SaimResult` that
``SaimEngine(config, ...).solve(problems[b], rng=spawn_rngs(seed, B)[b])``
returns on the default p-bit backend — best cost, lambda trajectory, trace
and iteration count included.  That holds because the fused kernel is
bit-identical per instance to the standalone machine on the same spawned
stream (see :mod:`repro.ising.fleet`) and everything else in the loop is
per-instance deterministic arithmetic.  ``tests/core/test_fleet_engine.py``
pins it; ``solve_many(strategy=...)`` relies on it to make the fused and
process strategies interchangeable.

The fleet path supports the engine's ``restart="random"`` mode (the
paper's) only: warm restarts would need per-instance resident spins across
a changing active set, which the fused packer does not model.
"""

from __future__ import annotations

from repro.core.encoding import encode_with_slacks
from repro.core.engine import SaimEngine
from repro.core.saim import SaimConfig
from repro.ising.fleet import FleetMachine
from repro.utils.rng import spawn_rngs

__all__ = ["FleetEngine"]


class FleetEngine(SaimEngine):
    """Algorithm 1 over ``B`` problems, one fused kernel call per iteration.

    Parameters mirror :class:`~repro.core.engine.SaimEngine` where they
    apply; the backend is the fused p-bit fleet machine (there is no
    ``machine_factory`` — other backends go through ``solve_many``'s
    process strategy instead).  The inherited ``solve`` runs one problem
    on the standalone p-bit machine, which is what each fleet instance
    reproduces.
    """

    def __init__(self, config: SaimConfig | None = None, num_replicas: int = 1,
                 aggregate: str = "best", restart: str = "random"):
        super().__init__(
            config, num_replicas=num_replicas, aggregate=aggregate,
            restart=restart,
        )
        if restart != "random":
            raise ValueError(
                "the fused fleet path supports restart='random' only "
                f"(got {restart!r}); use solve_many(strategy='process') "
                "for warm restarts"
            )

    def solve_fleet(self, problems, rng=None, initial_lambdas=None):
        """Solve every problem; returns one ``SaimResult`` per instance.

        Parameters
        ----------
        problems:
            Sequence of :class:`~repro.core.problem.ConstrainedProblem`
            (inequalities are slack-encoded per instance, as in the
            single-instance engine).
        rng:
            Seed-like spawned into one child stream per instance
            (:func:`~repro.utils.rng.spawn_rngs`), or an explicit sequence
            of ``B`` generators — the same per-instance streams
            ``runtime.fleet_jobs`` assigns to process-strategy jobs.
        initial_lambdas:
            ``None`` (the paper's zero start) or a sequence of ``B``
            entries, each ``None`` or a warm-start multiplier vector.
        """
        problems = list(problems)
        if not problems:
            return []
        if isinstance(rng, (list, tuple)):
            rngs = _one_each(rng, "rng", len(problems))
        else:
            rngs = spawn_rngs(rng, len(problems))
        if initial_lambdas is None:
            initial_lambdas = [None] * len(problems)
        initial_lambdas = _one_each(
            initial_lambdas, "initial_lambdas entry", len(problems)
        )

        states = [
            self._instance(encode_with_slacks(problem), start)
            for problem, start in zip(problems, initial_lambdas)
        ]
        machine = FleetMachine(
            [state.lagrangian.base_ising for state in states],
            rng=rngs, dtype=self.config.dtype,
        )
        schedule = self._schedule()
        active = list(range(len(states)))
        for k in range(self.config.num_iterations):
            if not active:
                break
            for b in active:
                machine.set_fields(b, *states[b].program(k))
            fleet_result = machine.anneal_fleet(
                schedule, self.num_replicas, active=active,
                track_best=self.config.read_best,
            )
            active = [
                b for b in active
                if self._advance(states[b], fleet_result.instance(b), k)
            ]
        return [self._finish(state) for state in states]


def _one_each(values, what: str, count: int) -> list:
    values = list(values)
    if len(values) != count:
        raise ValueError(
            f"need one {what} per instance: got {len(values)} for {count} "
            f"problems"
        )
    return values
