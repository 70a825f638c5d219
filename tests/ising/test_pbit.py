"""Tests for the p-bit Ising machine (repro.ising.pbit)."""

import numpy as np
import pytest

from repro.core.schedule import constant_beta_schedule, linear_beta_schedule
from repro.ising.exhaustive import brute_force_ground_state, enumerate_energies
from repro.ising.model import IsingModel
from repro.ising.pbit import PBitMachine
from tests.helpers import random_ising


class TestBasics:
    def test_rejects_empty_schedule(self):
        machine = PBitMachine(random_ising(4, rng=0))
        with pytest.raises(ValueError):
            machine.anneal(np.array([]))

    def test_rejects_bad_initial_shape(self):
        machine = PBitMachine(random_ising(4, rng=0))
        with pytest.raises(ValueError):
            machine.anneal(np.ones(10), initial=np.ones(3))

    def test_last_energy_is_consistent(self):
        model = random_ising(8, rng=1)
        machine = PBitMachine(model, rng=0)
        result = machine.anneal(linear_beta_schedule(5.0, 100))
        assert result.last_energy == pytest.approx(
            model.energy(result.last_sample), abs=1e-6
        )

    def test_best_energy_is_consistent(self):
        model = random_ising(8, rng=2)
        machine = PBitMachine(model, rng=0)
        result = machine.anneal(linear_beta_schedule(5.0, 100))
        assert result.best_energy == pytest.approx(
            model.energy(result.best_sample), abs=1e-6
        )

    def test_best_never_worse_than_last(self):
        machine = PBitMachine(random_ising(10, rng=3), rng=0)
        result = machine.anneal(linear_beta_schedule(3.0, 80))
        assert result.best_energy <= result.last_energy + 1e-9

    def test_energy_trace_recorded(self):
        machine = PBitMachine(random_ising(6, rng=4), rng=0)
        result = machine.anneal(linear_beta_schedule(2.0, 50), record_energy=True)
        assert result.energy_trace.shape == (50,)
        assert result.energy_trace[-1] == pytest.approx(result.last_energy)

    def test_samples_are_spin_valued(self):
        machine = PBitMachine(random_ising(6, rng=5), rng=0)
        result = machine.anneal(linear_beta_schedule(2.0, 30))
        assert set(np.unique(result.last_sample)).issubset({-1.0, 1.0})

    def test_set_fields_changes_target(self):
        model = random_ising(5, rng=6)
        machine = PBitMachine(model, rng=0)
        new_fields = np.full(5, 10.0)  # strong positive fields
        machine.set_fields(new_fields, offset=0.0)
        result = machine.anneal(linear_beta_schedule(10.0, 100))
        # All spins should align up under overwhelming fields.
        assert result.last_sample.sum() == pytest.approx(5.0)

    def test_set_fields_shape_checked(self):
        machine = PBitMachine(random_ising(5, rng=7))
        with pytest.raises(ValueError):
            machine.set_fields(np.zeros(6))

    def test_deterministic_given_seed(self):
        model = random_ising(8, rng=8)
        schedule = linear_beta_schedule(4.0, 60)
        a = PBitMachine(model, rng=11).anneal(schedule)
        b = PBitMachine(model, rng=11).anneal(schedule)
        np.testing.assert_array_equal(a.last_sample, b.last_sample)
        assert a.last_energy == b.last_energy


class TestGroundStateSearch:
    @pytest.mark.parametrize("seed", range(3))
    def test_finds_ground_state_of_small_models(self, seed):
        model = random_ising(10, rng=seed)
        _, ground = brute_force_ground_state(model)
        machine = PBitMachine(model, rng=100 + seed)
        best = min(
            machine.anneal(linear_beta_schedule(8.0, 300)).best_energy
            for _ in range(5)
        )
        assert best == pytest.approx(ground, abs=1e-9)

    def test_ferromagnet_aligns(self):
        n = 12
        coupling = np.ones((n, n)) - np.eye(n)
        model = IsingModel(coupling, np.zeros(n))
        machine = PBitMachine(model, rng=0)
        result = machine.anneal(linear_beta_schedule(5.0, 200))
        assert abs(result.best_sample.sum()) == n


class TestBatch:
    def test_batch_shape_and_consistency(self):
        model = random_ising(8, rng=9)
        machine = PBitMachine(model, rng=0)
        batch = machine.anneal_many(linear_beta_schedule(4.0, 50), 7)
        assert batch.num_replicas == 7
        for r in range(7):
            run = batch.per_run(r)
            assert run.last_energy == pytest.approx(
                model.energy(run.last_sample), abs=1e-6
            )
            assert run.best_energy <= run.last_energy + 1e-9

    def test_batch_rejects_bad_args(self):
        machine = PBitMachine(random_ising(4, rng=0))
        with pytest.raises(ValueError):
            machine.anneal_many(np.ones(10), 0)

    def test_batch_finds_ground_state(self):
        model = random_ising(10, rng=10)
        _, ground = brute_force_ground_state(model)
        machine = PBitMachine(model, rng=1)
        batch = machine.anneal_many(linear_beta_schedule(8.0, 300), 10)
        assert batch.best_energies.min() == pytest.approx(ground, abs=1e-9)

    def test_batch_runs_are_distinct(self):
        # With beta = 0 every sweep is uniform-random; runs must differ.
        model = IsingModel(np.zeros((16, 16)), np.zeros(16))
        machine = PBitMachine(model, rng=2)
        batch = machine.anneal_many(constant_beta_schedule(1e-12, 3), 5)
        samples = {sample.tobytes() for sample in batch.last_samples}
        assert len(samples) > 1


class TestBoltzmannSampling:
    def test_matches_exact_distribution(self):
        """Gibbs sampling must reproduce eq. 11 on a tiny model."""
        model = random_ising(4, rng=13)
        beta = 0.7
        machine = PBitMachine(model, rng=3)
        samples = machine.sample_boltzmann(beta, num_sweeps=20000, burn_in=500)
        codes = ((samples > 0).astype(int) * (2 ** np.arange(4))).sum(axis=1)
        counts = np.bincount(codes, minlength=16) / codes.size

        energies = enumerate_energies(model)
        weights = np.exp(-beta * (energies - energies.min()))
        probabilities = weights / weights.sum()
        # Loose tolerance: 20k correlated Gibbs samples.
        np.testing.assert_allclose(counts, probabilities, atol=0.03)

    def test_zero_beta_is_uniform(self):
        model = random_ising(3, rng=14)
        machine = PBitMachine(model, rng=4)
        samples = machine.sample_boltzmann(1e-12, num_sweeps=8000)
        codes = ((samples > 0).astype(int) * (2 ** np.arange(3))).sum(axis=1)
        counts = np.bincount(codes, minlength=8) / codes.size
        np.testing.assert_allclose(counts, np.full(8, 1 / 8), atol=0.03)

    def test_rejects_nonpositive_sweeps(self):
        machine = PBitMachine(random_ising(3, rng=0))
        with pytest.raises(ValueError):
            machine.sample_boltzmann(1.0, num_sweeps=0)
