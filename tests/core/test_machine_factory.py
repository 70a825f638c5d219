"""Tests for SAIM's pluggable-machine hook ("compatible with any IM")."""

import numpy as np
import pytest

from repro.core.engine import SaimEngine
from repro.core.saim import SaimConfig
from repro.ising.pbit import PBitMachine
from repro.ising.quantization import QuantizedPBitMachine
from repro.ising.sa import MetropolisMachine
from repro.problems.generators import generate_qkp
from tests.helpers import random_ising, tiny_knapsack_problem

FAST = SaimConfig(num_iterations=30, mcs_per_run=120)


class TestMetropolisMachine:
    def test_interface_parity_with_pbit(self):
        model = random_ising(8, rng=0)
        machine = MetropolisMachine(model, rng=0)
        assert machine.num_spins == 8
        machine.set_fields(np.zeros(8), offset=1.0)
        assert machine.model.offset == 1.0
        result = machine.anneal(np.linspace(0, 5, 50))
        assert result.last_energy == pytest.approx(
            machine.model.energy(result.last_sample), abs=1e-6
        )

    def test_set_fields_shape_checked(self):
        machine = MetropolisMachine(random_ising(5, rng=1))
        with pytest.raises(ValueError):
            machine.set_fields(np.zeros(4))


class TestSaimWithAlternativeMachines:
    def test_metropolis_machine_solves_knapsack(self):
        saim = SaimEngine(FAST, machine_factory=MetropolisMachine)
        result = saim.solve(tiny_knapsack_problem(), rng=0)
        assert result.found_feasible
        assert result.best_cost == pytest.approx(-8.0)

    def test_quantized_machine_solves_knapsack(self):
        def factory(model, rng):
            return QuantizedPBitMachine(model, bits=12, rng=rng)

        saim = SaimEngine(FAST, machine_factory=factory)
        result = saim.solve(tiny_knapsack_problem(), rng=0)
        assert result.found_feasible
        assert result.best_cost == pytest.approx(-8.0)

    def test_gibbs_and_metropolis_agree_on_qkp(self):
        instance = generate_qkp(15, 0.5, rng=4)
        config = SaimConfig(num_iterations=60, mcs_per_run=200,
                            eta=80.0, eta_decay="sqrt", normalize_step=True)
        gibbs = SaimEngine(config).solve(instance.to_problem(), rng=2)
        metro = SaimEngine(
            config, machine_factory=MetropolisMachine
        ).solve(instance.to_problem(), rng=2)
        assert gibbs.found_feasible and metro.found_feasible
        # Two different samplers on the same landscape: results within 10%.
        assert abs(gibbs.best_cost - metro.best_cost) <= 0.1 * abs(gibbs.best_cost)

    def test_custom_machine_is_called(self):
        calls = {"constructed": 0, "reprogrammed": 0}

        class SpyMachine(PBitMachine):
            def __init__(self, model, rng=None):
                calls["constructed"] += 1
                super().__init__(model, rng)

            def set_fields(self, fields, offset=None):
                calls["reprogrammed"] += 1
                super().set_fields(fields, offset)

        config = SaimConfig(num_iterations=7, mcs_per_run=30)
        SaimEngine(config, machine_factory=SpyMachine).solve(
            tiny_knapsack_problem(), rng=0
        )
        assert calls["constructed"] == 1
        assert calls["reprogrammed"] == 7  # once per iteration

    def test_default_factory_is_pbit(self):
        saim = SaimEngine(FAST)
        assert saim.machine_factory is PBitMachine

    def test_minimal_legacy_contract_still_drives_saim(self):
        """A machine with only set_fields + anneal(schedule) — the contract
        the pre-engine docs promised — must keep working via the serial
        fallback (no extra kwargs passed)."""

        class MinimalMachine:
            def __init__(self, model, rng=None):
                self._inner = PBitMachine(model, rng=rng)

            @property
            def num_spins(self):
                return self._inner.num_spins

            def set_fields(self, fields, offset=None):
                self._inner.set_fields(fields, offset)

            def anneal(self, beta_schedule):
                return self._inner.anneal(beta_schedule)

        saim = SaimEngine(FAST, machine_factory=MinimalMachine)
        result = saim.solve(tiny_knapsack_problem(), rng=0)
        assert result.found_feasible
        assert result.best_cost == pytest.approx(-8.0)
