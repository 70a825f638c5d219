"""The classical penalty method (paper Section II-A) and its tuning loop.

Given an equality-form problem, the penalized energy (eq. 3) is

    E(x) = f(x) + P * ||g(x)||^2,      g(x) = A x - b

which is again a QUBO because ``g`` is linear.  The paper initializes ``P``
with the density heuristic ``P = alpha * d * N`` from [16, 17] and, for the
baseline columns of Table II, coarsely escalates ``P`` until at least 20% of
samples are feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from repro.core.encoding import EncodedProblem
from repro.core.poly import PolyProblem
from repro.core.problem import ConstrainedProblem
from repro.core.schedule import linear_beta_schedule
from repro.ising.model import QuboModel
from repro.ising.pbit import PBitMachine
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive


def build_penalty_qubo(problem: ConstrainedProblem, penalty: float) -> QuboModel:
    """QUBO for ``f(x) + P * ||A x - b||^2`` of an equality-form problem.

    Expanding one row, ``(a^T x - b)^2 = x^T (a a^T) x - 2 b a^T x + b^2``;
    the diagonal of ``a a^T`` is folded into the linear term because
    ``x_i^2 = x_i``.
    """
    check_positive(penalty, "penalty")
    if problem.inequalities.num_constraints:
        raise ValueError("build_penalty_qubo expects an equality-form problem")
    a = problem.equalities.coefficients
    b = problem.equalities.bounds

    gram = a.T @ a  # sum_m a_m a_m^T
    diag = np.diag(gram).copy()
    quad_pen = gram.copy()
    np.fill_diagonal(quad_pen, 0.0)
    lin_pen = diag - 2.0 * (b @ a)
    off_pen = float(b @ b)

    return QuboModel(
        quadratic=problem.quadratic + penalty * quad_pen,
        linear=problem.linear + penalty * lin_pen,
        offset=problem.offset + penalty * off_pen,
    )


def density_heuristic_penalty(problem, alpha: float = 2.0) -> float:
    """The ``P = alpha * d * N`` rule of [16, 17] used by the paper.

    ``d`` is the coupling density of the *objective's* quadratic part over
    the extended (slack-included) spin count ``N``.  For linear objectives
    (MKP) the paper approximates ``d = 2 / (N + 1)``, treating the external
    fields as couplings to one extra reference spin.

    For a :class:`~repro.core.poly.PolyProblem` the density counts the
    distinct variable pairs that co-occur in any order >= 2 monomial — the
    pair-interaction footprint the polynomial induces.
    """
    check_positive(alpha, "alpha")
    n = problem.num_variables
    if n == 0:
        raise ValueError("problem has no variables")
    pairs = n * (n - 1) / 2.0
    if isinstance(problem, PolyProblem):
        covered = set()
        for indices in problem.terms:
            covered.update(combinations(indices, 2))
        nonzero = len(covered)
    else:
        nonzero = np.count_nonzero(np.triu(problem.quadratic, k=1))
    if nonzero == 0 or pairs == 0:
        density = 2.0 / (n + 1)
    else:
        density = nonzero / pairs
    return alpha * density * n


@dataclass
class PenaltyMethodResult:
    """Outcome of running the penalty method on an encoded problem.

    ``best_x`` / ``best_cost`` refer to the *original* problem variables and
    objective (``best_x`` is ``None`` when no feasible sample was found).
    ``feasible_ratio`` is the fraction of runs whose read-out sample was
    feasible; ``costs`` holds the original-objective cost of every feasible
    sample.
    """

    best_x: np.ndarray | None
    best_cost: float
    feasible_ratio: float
    costs: list = field(default_factory=list)
    penalty: float = 0.0
    num_runs: int = 0
    mcs_per_run: int = 0

    @property
    def total_mcs(self) -> int:
        """Total Monte-Carlo sweeps spent."""
        return self.num_runs * self.mcs_per_run


def penalty_method_solve(
    encoded: EncodedProblem,
    penalty: float,
    num_runs: int,
    mcs_per_run: int,
    beta_max: float = 10.0,
    rng=None,
    read_best: bool = False,
) -> PenaltyMethodResult:
    """Solve with a fixed penalty ``P`` using batched p-bit annealing runs.

    Each run reads out its last sample (matching the paper's protocol);
    feasibility and cost are evaluated against the original problem.  Set
    ``read_best`` to harvest the best-energy sample of each run instead —
    an upper bound on what per-run post-selection could achieve.
    """
    if num_runs <= 0:
        raise ValueError(f"num_runs must be positive, got {num_runs}")
    if mcs_per_run <= 0:
        raise ValueError(f"mcs_per_run must be positive, got {mcs_per_run}")
    from repro.core.encoding import normalize_problem

    normalized, _ = normalize_problem(encoded.problem)
    qubo = build_penalty_qubo(normalized, penalty)
    machine = PBitMachine(qubo.to_ising(), rng=ensure_rng(rng))
    schedule = linear_beta_schedule(beta_max, mcs_per_run)
    batch = machine.anneal_many(schedule, num_runs)
    samples = batch.best_samples if read_best else batch.last_samples

    source = encoded.source
    best_x = None
    best_cost = np.inf
    costs = []
    feasible = 0
    for sample in samples:
        x_ext = ((sample + 1) / 2).astype(np.int8)
        x = encoded.restrict(x_ext)
        if source.is_feasible(x):
            feasible += 1
            cost = source.objective(x)
            costs.append(cost)
            if cost < best_cost:
                best_cost = cost
                best_x = x
    return PenaltyMethodResult(
        best_x=best_x,
        best_cost=float(best_cost),
        feasible_ratio=feasible / num_runs,
        costs=costs,
        penalty=penalty,
        num_runs=num_runs,
        mcs_per_run=mcs_per_run,
    )


@dataclass
class PenaltyTuningResult:
    """Outcome of the coarse penalty-escalation baseline (Table II, right).

    ``result`` is the accepted :class:`PenaltyMethodResult`; ``history``
    records every ``(penalty, feasible_ratio)`` probed along the way.
    """

    result: PenaltyMethodResult
    history: list
    tuning_mcs: int

    @property
    def tuned_penalty(self) -> float:
        """The accepted penalty value."""
        return self.result.penalty


def tune_penalty(
    encoded: EncodedProblem,
    num_runs: int,
    mcs_per_run: int,
    alpha_start: float = 2.0,
    growth: float = 2.0,
    target_feasibility: float = 0.2,
    max_rounds: int = 12,
    beta_max: float = 10.0,
    rng=None,
) -> PenaltyTuningResult:
    """Escalate ``P`` until the feasibility ratio reaches the target.

    Reproduces the paper's baseline protocol: "an initial small P = 2dN was
    set and coarsely increased until getting a satisfactory feasibility
    ratio (>= 20%)".  Every probing round costs the same run budget, which
    is why the paper notes the tuning phase worsens time-to-solution.
    """
    if not 0.0 < target_feasibility <= 1.0:
        raise ValueError(f"target_feasibility must be in (0, 1], got {target_feasibility}")
    if growth <= 1.0:
        raise ValueError(f"growth must exceed 1, got {growth}")
    rng = ensure_rng(rng)
    penalty = density_heuristic_penalty(encoded.problem, alpha=alpha_start)
    history = []
    tuning_mcs = 0
    best_result = None
    for _ in range(max_rounds):
        result = penalty_method_solve(
            encoded, penalty, num_runs, mcs_per_run, beta_max=beta_max, rng=rng
        )
        tuning_mcs += result.total_mcs
        history.append((penalty, result.feasible_ratio))
        if best_result is None or result.feasible_ratio > best_result.feasible_ratio:
            best_result = result
        if result.feasible_ratio >= target_feasibility:
            best_result = result
            break
        penalty *= growth
    return PenaltyTuningResult(result=best_result, history=history, tuning_mcs=tuning_mcs)
