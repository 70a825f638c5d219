"""Fig. 3 — cost and Lagrange-multiplier traces of one SAIM run on QKP.

The paper's instance is 300-50-8.  Shape to reproduce: an initial transient
where every sample is infeasible with cost *below* OPT (the chosen
P = 2dN is deliberately too small), then the multiplier converges to a
plateau and feasible near-optimal samples appear.
"""

from dataclasses import replace

import numpy as np

from repro.analysis.experiments import current_scale, qkp_saim_config
from repro.analysis.figures import FigureSeries, ascii_plot, write_csv
from repro.baselines.exact_qkp import reference_qkp_optimum
from repro.core.engine import SaimEngine
from repro.problems.generators import paper_qkp_instance

from _common import OUTPUT_DIR, archive, run_once


def test_fig3_qkp_trace(benchmark):
    scale = current_scale()
    instance = paper_qkp_instance(scale.qkp_size(300), 50, 8)
    # The budget-compensated step is ~25x the paper's eta at CI scale, which
    # turns the staircase into a period-2 oscillation around lambda*; the
    # sqrt-decayed step restores the converging staircase the figure shows.
    config = replace(qkp_saim_config(scale), eta_decay="sqrt")

    def experiment():
        result = SaimEngine(config).solve(
            instance.to_problem(), rng=38
        )
        reference = reference_qkp_optimum(instance, rng=0)
        if result.found_feasible:
            reference = max(reference, -result.best_cost)
        return result, reference

    result, reference = run_once(benchmark, experiment)
    trace = result.trace
    iterations = np.arange(trace.num_iterations)

    cost_series = FigureSeries("sample_cost", iterations, trace.sample_costs)
    lambda_series = FigureSeries("lambda", iterations, trace.lambdas[:, 0])
    write_csv([cost_series, lambda_series], OUTPUT_DIR / "fig3_qkp_trace.csv")

    infeasible_costs = trace.sample_costs[~trace.feasible]
    lines = [
        f"Fig. 3 - SAIM trace on {instance.name} ({scale.name} scale)",
        f"penalty P = {result.penalty:.1f} (paper: 313 at full size)",
        f"OPT reference cost = {-reference:.0f}",
        f"feasible samples: {result.num_feasible}/{result.num_iterations}",
        "",
        ascii_plot(cost_series, width=70, height=12),
        "",
        ascii_plot(lambda_series, width=70, height=10),
    ]
    archive("fig3_qkp_trace", "\n".join(lines))

    # Shape assertions.
    assert result.found_feasible
    # The small P produces infeasible samples whose cost undershoots OPT
    # (the paper's red scatter below the OPT line).
    if infeasible_costs.size:
        assert infeasible_costs.min() < -reference + 1e-9
    # The multiplier leaves zero and its late-stage variation is small
    # compared to its level (the staircase plateau).
    lam = trace.lambdas[:, 0]
    assert lam[-1] > 0
    late = lam[3 * lam.size // 4 :]
    assert late.std() <= 0.5 * max(abs(late.mean()), 1e-9)
    # Feasible samples concentrate after the transient.
    half = trace.num_iterations // 2
    assert trace.feasible[half:].sum() >= trace.feasible[:half].sum()
