"""Conflict-free scheduling as weighted maximum independent set.

A radio-spectrum flavored scenario: transmitters request airtime; two
transmitters whose ranges overlap cannot broadcast in the same slot.
Choosing the highest-value conflict-free subset is weighted MIS — one
inequality per conflict, so the Lagrange-multiplier vector has one entry
*per edge* (here a few dozen), stressing SAIM's multi-constraint path far
beyond MKP's handful of knapsacks.

Run:  python examples/conflict_free_scheduling.py
"""

import numpy as np

from repro import SaimConfig, SaimEngine
from repro.problems.mis import random_mis


def main():
    instance = random_mis(
        num_vertices=18, edge_probability=0.3, weight_high=30, rng=12,
        name="spectrum-18",
    )
    print(f"Scenario: {instance.num_vertices} transmitters, "
          f"{instance.num_edges} pairwise conflicts "
          f"(= {instance.num_edges} Lagrange multipliers)")

    x_exact, optimum = instance.exact_optimum()
    print(f"Exact optimum (complement-clique): value {optimum:.0f}, "
          f"transmitters {sorted(int(v) for v in np.nonzero(x_exact)[0])}")

    config = SaimConfig(
        num_iterations=250, mcs_per_run=400,
        eta=1.0, eta_decay="sqrt", normalize_step=True, alpha=2.0,
    )
    result = SaimEngine(config).solve(instance.to_problem(), rng=3)

    if not result.found_feasible:
        print("SAIM found no conflict-free subset - increase the budget")
        return
    chosen = sorted(int(v) for v in np.nonzero(result.best_x)[0])
    value = -result.best_cost
    print(f"SAIM:                           value {value:.0f} "
          f"({100 * value / optimum:.1f}% of optimum), transmitters {chosen}")
    print(f"Feasible samples: {100 * result.feasible_ratio:.0f}%")

    # Which conflicts did the multipliers have to enforce hardest?
    lambdas = result.final_lambdas
    hardest = np.argsort(-np.abs(lambdas))[:3]
    print("\nMost-contended conflicts (largest |lambda|):")
    for rank, edge_index in enumerate(hardest, start=1):
        u, v = instance.edges[edge_index]
        print(f"  {rank}. transmitters {u} and {v}: lambda = "
              f"{lambdas[edge_index]:.2f}")


if __name__ == "__main__":
    main()
