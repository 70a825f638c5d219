"""Capital budgeting as a multidimensional knapsack problem.

The paper's introduction motivates constrained Ising optimization with
"constraints on limited resources ... found in capital budgeting".  This
example builds a synthetic capital-budgeting scenario — projects with
expected returns, subject to per-period budget caps — expresses it as an
MKP, and solves it three ways: exactly (branch & bound via HiGHS), with the
Chu-Beasley genetic algorithm, and with SAIM.

Run:  python examples/capital_budgeting.py
"""

import numpy as np

from repro import MkpInstance, SaimConfig, SaimEngine
from repro.baselines.ga import GaConfig, chu_beasley_ga
from repro.baselines.milp import solve_mkp_exact


def build_scenario(num_projects: int = 30, num_periods: int = 4, seed: int = 11):
    """Synthetic projects: multi-period cash requirements + NPV returns."""
    rng = np.random.default_rng(seed)
    # Cash a project consumes in each budget period (k$).
    cash_needs = rng.integers(50, 500, size=(num_periods, num_projects)).astype(float)
    # Each period's budget covers roughly half of all proposals.
    budgets = np.floor(0.5 * cash_needs.sum(axis=1))
    # Net present value loosely correlated with total cash (bigger projects
    # return more, plus idiosyncratic upside).
    npv = np.floor(
        cash_needs.sum(axis=0) / num_periods + rng.uniform(0, 300, num_projects)
    )
    return MkpInstance(npv, cash_needs, budgets, name="capital-budgeting")


def main():
    instance = build_scenario()
    print(f"Scenario: {instance.num_items} projects, "
          f"{instance.num_constraints} budget periods")

    exact = solve_mkp_exact(instance)
    print(f"\nExact optimum (HiGHS B&B): NPV = {exact.profit:.0f} "
          f"in {exact.solve_seconds * 1000:.0f} ms, "
          f"{int(exact.x.sum())} projects funded")

    ga = chu_beasley_ga(
        instance, GaConfig(population_size=50, num_children=2000), rng=0
    )
    print(f"Chu-Beasley GA:            NPV = {ga.best_profit:.0f} "
          f"({100 * ga.best_profit / exact.profit:.1f}% of optimum)")

    # SAIM with a budget-compensated multiplier step (paper eta = 0.05 is
    # tuned for K = 5000 iterations).
    config = SaimConfig.mkp_paper().scaled(
        iteration_factor=200 / 5000, mcs_factor=0.3, compensate_eta=True
    )
    result = SaimEngine(config).solve(instance.to_problem(), rng=3)
    if result.found_feasible:
        npv = -result.best_cost
        print(f"SAIM (p-bit IM):           NPV = {npv:.0f} "
              f"({100 * npv / exact.profit:.1f}% of optimum), "
              f"feasible samples {100 * result.feasible_ratio:.0f}%")
        chosen = [int(i) for i in np.nonzero(result.best_x)[0]]
        print(f"\nSAIM funds projects: {chosen}")
        loads = instance.loads(result.best_x)
        for period, (load, cap) in enumerate(zip(loads, instance.capacities)):
            print(f"  period {period}: {load:.0f} / {cap:.0f} k$ "
                  f"({100 * load / cap:.0f}% utilized)")
    else:
        print("SAIM found no feasible selection - increase the iteration budget")


if __name__ == "__main__":
    main()
