"""The unified SAIM engine — one Algorithm 1 loop for any replica count.

Algorithm 1 of the paper alternates an Ising-machine minimization of the
current Lagrangian with a subgradient ascent on the multipliers.  The paper
runs *one* annealing run per multiplier update; hardware IMs are massively
parallel, so the natural generalization runs ``R`` independent replicas of
the same Lagrangian per iteration and feeds the multiplier update from their
aggregate:

- ``"best"`` — the subgradient at the lowest-energy replica (a closer
  surrogate for the true ``argmin L``, per the surrogate-gradient view);
- ``"mean"`` — the average residual over replicas (a smoothed subgradient).

:class:`SaimEngine` is the single implementation of that loop.  With
``num_replicas=1`` it reproduces the paper's serial Algorithm 1
bit-for-bit; with ``R > 1`` every iteration is one batched
``anneal_many`` call on the backend.  Every configuration knob — schedule
choice, eta decay, normalized steps, warm-started multipliers, early
exits, custom machine factories — works identically at any replica count.

The loop body is per instance: ``_instance`` builds one problem's state,
``_advance`` reads out one iteration and steps its multipliers, and
``_finish`` turns the state into a :class:`~repro.core.saim.SaimResult`.
:meth:`SaimEngine.solve_encoded` drives one instance; the fused-fleet
subclass :class:`repro.core.fleet_engine.FleetEngine` drives ``B`` of them
through the same three methods with one fused kernel call per iteration.

The engine drives machines exclusively through the
:class:`repro.ising.backend.AnnealingBackend` protocol; machines exposing
only a serial ``anneal`` are adapted automatically via
:func:`repro.ising.backend.dispatch_anneal_many`.
"""

from __future__ import annotations

import inspect

import numpy as np

from repro.core.encoding import (
    EncodedProblem,
    encode_with_slacks,
    normalize_problem,
)
from repro.core.lagrangian import LagrangianIsing
from repro.core.penalty import density_heuristic_penalty
from repro.core.poly import PolyLagrangianIsing, PolyProblem
from repro.core.problem import ConstrainedProblem
from repro.core.results import FeasibleRecord, SolveTrace
from repro.core.saim import _ETA_DECAYS, _SCHEDULES, SaimConfig, SaimResult
from repro.ising.backend import dispatch_anneal_many
from repro.ising.pbit import PBitMachine
from repro.utils.rng import ensure_rng

AGGREGATES = ("best", "mean")
RESTARTS = ("random", "warm")


class _Instance:
    """One problem's Algorithm 1 state: Lagrangian, multipliers, trace and
    incumbent, threaded through :meth:`SaimEngine._advance`."""

    def __init__(self, encoded, lagrangian, penalty, lambdas, num_iterations):
        self.encoded = encoded
        self.lagrangian = lagrangian
        self.penalty = penalty
        self.lambdas = lambdas
        self.fields_buf = np.empty(lagrangian.num_spins)
        self.sample_costs = np.empty(num_iterations)
        self.feasible_mask = np.zeros(num_iterations, dtype=bool)
        self.lambda_history = np.empty((num_iterations, lambdas.size))
        self.energies = np.empty(num_iterations)
        self.best_x = None
        self.best_cost = np.inf
        self.feasible_records = []
        self.stall = 0
        self.k_ran = 0

    def program(self, k: int):
        """Record iteration ``k``'s multipliers; return its ``(fields, offset)``.

        Reprogramming is one matvec into one standing buffer:
        ``program_for`` computes fields and offset from a single
        ``A^T lambda`` product, and the machines copy on ``set_fields``, so
        the loop allocates no field arrays.
        """
        self.lambda_history[k] = self.lambdas
        return self.lagrangian.program_for(self.lambdas, out=self.fields_buf)


class SaimEngine:
    """Replica-parameterized driver of Algorithm 1.

    Parameters
    ----------
    config:
        The usual SAIM hyper-parameters (:class:`repro.core.saim.SaimConfig`).
    num_replicas:
        Annealing replicas per iteration; each iteration is one batched
        ``anneal_many`` call on the backend.  ``1`` is the paper's serial
        algorithm.
    aggregate:
        How replicas feed the multiplier update: ``"best"`` (lowest-energy
        replica's subgradient) or ``"mean"`` (average residual).
    machine_factory:
        Any callable ``factory(model, rng) -> machine`` whose machine
        exposes ``set_fields(fields, offset)`` and either ``anneal_many``
        (the :class:`~repro.ising.backend.AnnealingBackend` protocol) or a
        serial ``anneal``.  Defaults to the p-bit machine of Section III-B.
        ``set_fields`` must **copy** its argument: the engine reprograms
        through one standing buffer that it overwrites every iteration (a
        machine that stores the array by reference would see its fields
        silently rewritten mid-solve).  All registered backends copy; the
        contract is pinned in ``tests/ising/test_backend.py``.
    restart:
        Where each iteration's annealing replicas start: ``"random"``
        (the paper — fresh uniform spins every run) or ``"warm"`` — each
        run resumes from the previous iteration's final spins.  Warm
        restarts make annealing state *solve-resident*: the lock-step
        machines recognize the returning spins and reprogram their input
        fields from the field delta instead of recomputing the
        ``O(N^2 R)`` start-of-run matmul, and the anneal continues from an
        already-low-energy state (the beta schedule still re-heats it each
        iteration, which is what keeps the chain exploring).
    """

    def __init__(
        self,
        config: SaimConfig | None = None,
        num_replicas: int = 1,
        aggregate: str = "best",
        machine_factory=None,
        restart: str = "random",
    ):
        if num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
        if aggregate not in AGGREGATES:
            raise ValueError(
                f"aggregate must be one of {AGGREGATES}, got {aggregate!r}"
            )
        if restart not in RESTARTS:
            raise ValueError(
                f"restart must be one of {RESTARTS}, got {restart!r}"
            )
        self.config = config if config is not None else SaimConfig()
        self.num_replicas = num_replicas
        self.aggregate = aggregate
        self.restart = restart
        self.machine_factory = (
            machine_factory if machine_factory is not None else PBitMachine
        )

    def _build_machine(self, model, rng):
        """Build the backend, threading an explicit ``config.dtype``.

        The default ``None`` keeps the historical two-argument factory
        contract (the factory's own precision default applies), so user
        factories without a dtype knob keep working.  An explicit dtype is
        forwarded so it overrides any builder-time default; a factory
        whose signature takes no ``dtype`` can still honor an explicit
        ``"float64"`` (that IS its default) but fails loudly on
        ``"float32"``.  A TypeError raised *inside* a dtype-aware factory
        propagates untouched.
        """
        dtype = self.config.dtype
        if dtype is None:
            return self.machine_factory(model, rng=rng)
        try:
            parameters = inspect.signature(self.machine_factory).parameters
            accepts_dtype = "dtype" in parameters or any(
                p.kind is inspect.Parameter.VAR_KEYWORD
                for p in parameters.values()
            )
        except (TypeError, ValueError):  # builtins/extensions: just try it
            accepts_dtype = True
        if accepts_dtype:
            return self.machine_factory(model, rng=rng, dtype=dtype)
        if dtype == "float64":
            return self.machine_factory(model, rng=rng)
        raise ValueError(
            f"SaimConfig(dtype={dtype!r}) needs a dtype-aware machine "
            f"factory, but {self.machine_factory!r} takes no dtype keyword"
        )

    def solve(self, problem: ConstrainedProblem, rng=None,
              initial_lambdas=None) -> SaimResult:
        """Run the engine loop on ``problem``; returns the best feasible find.

        ``problem`` may contain inequalities — they are slack-encoded and
        normalized internally, and all reported solutions/costs refer back
        to the original problem.  ``initial_lambdas`` warm-starts the
        multipliers (the paper always starts from zero).
        """
        return self.solve_encoded(
            encode_with_slacks(problem), rng=rng, initial_lambdas=initial_lambdas
        )

    def solve_encoded(self, encoded: EncodedProblem, rng=None,
                      initial_lambdas=None) -> SaimResult:
        """Run the engine loop on an already slack-encoded problem."""
        rng = ensure_rng(rng)
        state = self._instance(encoded, initial_lambdas)
        machine = self._build_machine(state.lagrangian.base_ising, rng)
        schedule = self._schedule()
        # With restart="warm" each run resumes from the previous one's
        # final spins (solve-resident annealing); with "random" (the
        # paper) every run starts fresh.
        initial = None
        for k in range(self.config.num_iterations):
            machine.set_fields(*state.program(k))
            batch = dispatch_anneal_many(
                machine, schedule, self.num_replicas, initial=initial
            )
            if self.restart == "warm":
                initial = batch.last_samples
            if not self._advance(state, batch, k):
                break
        return self._finish(state)

    def _schedule(self) -> np.ndarray:
        config = self.config
        return _SCHEDULES[config.schedule](config.beta_max, config.mcs_per_run)

    def _instance(self, encoded: EncodedProblem, initial_lambdas) -> _Instance:
        """Normalize ``encoded``, set its penalty, build its Lagrangian (PUBO
        objectives only on an ``accepts_poly`` factory) and its state."""
        config = self.config
        normalized, _scales = normalize_problem(encoded.problem)
        if config.penalty is not None:
            penalty = float(config.penalty)
        else:
            penalty = density_heuristic_penalty(normalized, alpha=config.alpha)
        if isinstance(normalized, PolyProblem):
            factory = self.machine_factory
            if not getattr(factory, "accepts_poly", False):
                label = getattr(factory, "backend_name", None) or getattr(
                    factory, "__name__", repr(factory)
                )
                raise ValueError(
                    "problem has a polynomial (PUBO) objective; the "
                    f"{label!r} backend only handles quadratic "
                    "models — solve with backend='higher_order'"
                )
            lagrangian = PolyLagrangianIsing(normalized, penalty)
        else:
            lagrangian = LagrangianIsing(normalized, penalty)

        num_multipliers = lagrangian.num_multipliers
        if initial_lambdas is None:
            lambdas = np.zeros(num_multipliers)
        else:
            lambdas = np.asarray(initial_lambdas, dtype=float).copy()
            if lambdas.shape != (num_multipliers,):
                raise ValueError(
                    f"initial_lambdas must have shape ({num_multipliers},), "
                    f"got {lambdas.shape}"
                )
        return _Instance(
            encoded, lagrangian, penalty, lambdas, config.num_iterations
        )

    def _advance(self, state, batch, k: int) -> bool:
        """Bank iteration ``k``'s read-out, trace its lead replica and step
        the multipliers; ``False`` once an early exit fires."""
        config = self.config
        replicas = self.num_replicas
        source = state.encoded.source
        # One coherent read-out view: with read_best the consumed samples
        # AND the energies that rank/trace them come from the per-replica
        # best, never mixed with the last-sweep arrays.
        samples, readout_energies = (
            (batch.best_samples, batch.best_energies) if config.read_best
            else (batch.last_samples, batch.last_energies)
        )
        xs_ext = ((np.asarray(samples) + 1) / 2).astype(np.int8)

        # Harvest every replica's read-out for the incumbent.
        improved = False
        restricted = [state.encoded.restrict(x) for x in xs_ext]
        feasible = [source.is_feasible(x) for x in restricted]
        for x, ok in zip(restricted, feasible):
            cost = source.objective(x) if ok else np.inf
            if cost < state.best_cost:
                state.best_cost = cost
                state.best_x = x
                improved = True

        # The lead replica feeds the trace and (for "best") the update.
        mean = self.aggregate == "mean" and replicas > 1
        lead = int(np.argmin(readout_energies)) if replicas > 1 and not mean else 0
        x_lead = restricted[lead]
        cost_lead = source.objective(x_lead)
        state.sample_costs[k] = cost_lead
        state.energies[k] = readout_energies[lead]
        if feasible[lead]:
            state.feasible_mask[k] = True
            state.feasible_records.append(
                FeasibleRecord(iteration=k, x=x_lead, cost=cost_lead)
            )

        lagrangian = state.lagrangian
        if mean:
            residual = np.mean([lagrangian.residuals(x) for x in xs_ext], axis=0)
        else:
            residual = lagrangian.residuals(xs_ext[lead])

        step = config.eta * _ETA_DECAYS[config.eta_decay](k)
        direction = residual
        if config.normalize_step:
            norm = float(np.linalg.norm(residual))
            if norm > 1e-12:
                direction = residual / norm
        state.lambdas = state.lambdas + step * direction
        state.k_ran = k + 1

        # Optional early exits (disabled by default; the paper always
        # spends the full budget).
        if (
            config.target_cost is not None
            and state.best_x is not None
            and state.best_cost <= config.target_cost + 1e-12
        ):
            return False
        if config.patience is not None and state.best_x is not None:
            state.stall = 0 if improved else state.stall + 1
            if state.stall >= config.patience:
                return False
        return True

    def _finish(self, state) -> SaimResult:
        config = self.config
        k_ran = state.k_ran
        trace = None
        if config.record_trace:
            trace = SolveTrace(
                sample_costs=state.sample_costs[:k_ran],
                feasible=state.feasible_mask[:k_ran],
                lambdas=state.lambda_history[:k_ran],
                energies=state.energies[:k_ran],
            )
        return SaimResult(
            best_x=state.best_x,
            best_cost=float(state.best_cost),
            feasible_records=state.feasible_records,
            penalty=state.penalty,
            final_lambdas=state.lambdas,
            num_iterations=k_ran,
            mcs_per_run=config.mcs_per_run,
            trace=trace,
            num_replicas=self.num_replicas,
            total_mcs=k_ran * self.num_replicas * config.mcs_per_run,
        )
