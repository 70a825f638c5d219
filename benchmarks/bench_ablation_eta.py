"""Ablation — multiplier step size and step schedule.

DESIGN.md calls out eta as the key SAIM knob (the paper uses constant
eta = 20 for QKP and 0.05 for MKP without justification).  This bench sweeps
the step size and compares the paper's constant-step rule against the
sqrt-decayed and normalized-subgradient variants at a reduced budget, where
their robustness differences are most visible.
"""

from dataclasses import replace

import numpy as np

from repro.analysis.experiments import current_scale, qkp_saim_config
from repro.analysis.tables import format_percent, render_table
from repro.baselines.exact_qkp import reference_qkp_optimum
from repro.core.engine import SaimEngine
from repro.problems.generators import paper_qkp_instance

from _common import archive, run_once


def test_ablation_eta(benchmark):
    scale = current_scale()
    base = qkp_saim_config(scale)
    instances = [
        paper_qkp_instance(scale.qkp_size(100), 25, 1),
        paper_qkp_instance(scale.qkp_size(100), 50, 2),
    ]
    variants = {
        "paper constant, eta=20": replace(
            base, eta=20.0, eta_decay="constant", normalize_step=False
        ),
        "constant, compensated eta": replace(
            base, eta=20.0 / scale.iteration_factor,
            eta_decay="constant", normalize_step=False,
        ),
        "sqrt decay, eta=100": replace(
            base, eta=100.0, eta_decay="sqrt", normalize_step=False
        ),
        "normalized sqrt, eta=80 (preset)": replace(
            base, eta=80.0, eta_decay="sqrt", normalize_step=True
        ),
        "harmonic decay, eta=80": replace(
            base, eta=80.0, eta_decay="harmonic", normalize_step=False
        ),
    }

    def experiment():
        references = {
            instance.name: reference_qkp_optimum(instance, rng=0)
            for instance in instances
        }
        results = {}
        for label, config in variants.items():
            accuracies = []
            feasibilities = []
            for instance in instances:
                result = SaimEngine(config).solve(
                    instance.to_problem(), rng=3
                )
                reference = references[instance.name]
                if result.found_feasible:
                    reference = max(reference, -result.best_cost)
                    accuracies.append(100.0 * (-result.best_cost) / reference)
                feasibilities.append(result.feasible_ratio * 100.0)
            results[label] = (
                float(np.mean(accuracies)) if accuracies else float("nan"),
                float(np.mean(feasibilities)),
            )
        return results

    results = run_once(benchmark, experiment)
    rows = [
        [label, format_percent(acc), format_percent(feas)]
        for label, (acc, feas) in results.items()
    ]
    table = render_table(
        ["Step rule", "Mean best accuracy", "Mean feasible %"],
        rows,
        title=f"Ablation - multiplier step size / schedule ({scale.name} scale, "
        f"K={base.num_iterations})",
    )
    archive("ablation_eta", table)

    # The preset (normalized sqrt) must be at least as accurate as the raw
    # paper step at this reduced budget.
    preset_acc = results["normalized sqrt, eta=80 (preset)"][0]
    paper_acc = results["paper constant, eta=20"][0]
    assert not np.isnan(preset_acc)
    assert np.isnan(paper_acc) or preset_acc >= paper_acc - 2.0
