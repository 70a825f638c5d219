"""Statistical equivalence checks between p-bit execution paths."""

import numpy as np

from repro.core.schedule import constant_beta_schedule, linear_beta_schedule
from repro.ising.pbit import PBitMachine
from tests.helpers import random_ising


class TestBatchSequentialEquivalence:
    def test_mean_final_energy_agrees(self):
        """Batched lock-step runs are R independent sequential chains: the
        mean annealed energy must agree between the two code paths."""
        model = random_ising(12, rng=0)
        schedule = linear_beta_schedule(4.0, 120)

        sequential = [
            PBitMachine(model, rng=100 + trial).anneal(schedule).last_energy
            for trial in range(40)
        ]
        batched = PBitMachine(model, rng=999).anneal_many(
            schedule, 40
        ).last_energies
        seq_mean = np.mean(sequential)
        bat_mean = np.mean(batched)
        spread = np.std(sequential) + np.std(batched) + 1e-9
        # Agreement within two pooled standard errors (loose, seeded).
        assert abs(seq_mean - bat_mean) < 2.0 * spread / np.sqrt(40)

    def test_fixed_beta_magnetization_agrees(self):
        """At fixed beta, per-spin magnetizations from both paths match."""
        model = random_ising(8, rng=1)
        schedule = constant_beta_schedule(0.8, 60)
        sequential_states = np.array([
            PBitMachine(model, rng=200 + t).anneal(schedule).last_sample
            for t in range(120)
        ])
        batched_states = PBitMachine(model, rng=7).anneal_many(
            schedule, 120
        ).last_samples
        seq_mag = sequential_states.mean(axis=0)
        bat_mag = batched_states.mean(axis=0)
        np.testing.assert_allclose(seq_mag, bat_mag, atol=0.3)


class TestAnnealingBehaviour:
    def test_colder_final_beta_means_lower_energy(self):
        """Deeper anneals end in lower-energy states on average."""
        model = random_ising(14, rng=2)
        hot = [
            PBitMachine(model, rng=t).anneal(linear_beta_schedule(0.5, 80)).last_energy
            for t in range(20)
        ]
        cold = [
            PBitMachine(model, rng=t).anneal(linear_beta_schedule(6.0, 80)).last_energy
            for t in range(20)
        ]
        assert np.mean(cold) < np.mean(hot)

    def test_longer_anneals_do_not_hurt(self):
        model = random_ising(14, rng=3)
        short = [
            PBitMachine(model, rng=t).anneal(linear_beta_schedule(6.0, 30)).best_energy
            for t in range(15)
        ]
        long = [
            PBitMachine(model, rng=t).anneal(linear_beta_schedule(6.0, 300)).best_energy
            for t in range(15)
        ]
        assert np.mean(long) <= np.mean(short) + 1e-9

    def test_zero_beta_magnetization_is_unbiased(self):
        """At beta ~ 0 the sampler must be a fair coin per spin."""
        model = random_ising(10, rng=4)
        machine = PBitMachine(model, rng=5)
        samples = machine.sample_boltzmann(1e-12, num_sweeps=4000)
        np.testing.assert_allclose(samples.mean(axis=0), 0.0, atol=0.1)
