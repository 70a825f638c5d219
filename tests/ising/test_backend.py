"""Contract and statistical tests for the AnnealingBackend protocol.

The contract suite **auto-discovers** every backend registered with the
front door (``repro.available_backends()``), so a newly registered machine
is pulled into the contract the moment it is registered — it cannot
silently skip these tests.  Each backend must return array-shaped
:class:`BatchAnnealResult` objects (natively or via the serial-dispatch
fallback), report energies consistent with its own Hamiltonian, keep doing
so after ``set_fields`` reprogramming, and hold its shape contract at
big replica counts (R >= 128) in both storage dtypes.

The statistical sections validate the batched kernels against exact
Boltzmann weights on tiny models, and the ``R = 1`` dispatch against the
serial reference kernels bit-for-bit.
"""

import numpy as np
import pytest

import repro
from repro.core.schedule import constant_beta_schedule, linear_beta_schedule
from repro.ising.backend import (
    AnnealingBackend,
    BatchAnnealResult,
    batch_from_runs,
    dispatch_anneal_many,
    resolve_dtype,
)
from repro.ising.exhaustive import enumerate_energies
from repro.ising.pbit import PBitMachine
from repro.ising.pt_machine import PTMachine
from repro.ising.sa import MetropolisMachine
from repro.ising.sparse import ChromaticPBitMachine, random_sparse_ising
from tests.helpers import random_ising

N = 10
REPLICAS = 5
SCHEDULE = linear_beta_schedule(3.0, 40)

# The registry IS the discovery mechanism: registering a backend opts it
# into this file's whole contract.
BACKENDS = tuple(repro.available_backends())
DTYPES = ("float64", "float32")


def _machine(name: str, model=None, rng=1, dtype=None):
    """One machine instance of a registered backend, via its factory."""
    if model is None:
        model = random_ising(N, rng=0)
    return repro.make_backend_factory(name)(model, rng=rng, dtype=dtype)


class TestRegistryDiscovery:
    def test_known_backends_are_registered(self):
        """The ships-with set must be present (guards registry regressions)."""
        for name in ("pbit", "metropolis", "quantized", "chromatic", "pt"):
            assert name in BACKENDS

    @pytest.mark.parametrize("name", BACKENDS)
    def test_factory_builds_a_drivable_machine(self, name):
        """Every registered factory yields the SAIM-drivable surface."""
        machine = _machine(name)
        assert machine.num_spins == N
        assert callable(machine.set_fields)
        # Protocol natively, or serial `anneal` served by the dispatcher.
        assert isinstance(machine, AnnealingBackend) or callable(
            getattr(machine, "anneal", None)
        )

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_factory_accepts_both_dtypes(self, name, dtype):
        machine = _machine(name, dtype=dtype)
        assert machine.dtype == resolve_dtype(dtype)


class TestBatchResultContract:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_shapes_and_dtypes(self, name):
        machine = _machine(name)
        batch = dispatch_anneal_many(machine, SCHEDULE, REPLICAS)
        assert isinstance(batch, BatchAnnealResult)
        assert batch.num_replicas == REPLICAS
        assert batch.num_spins == N
        assert batch.last_samples.shape == (REPLICAS, N)
        assert batch.best_samples.shape == (REPLICAS, N)
        assert batch.last_energies.shape == (REPLICAS,)
        assert batch.best_energies.shape == (REPLICAS,)
        for arr in (batch.last_samples, batch.last_energies,
                    batch.best_samples, batch.best_energies):
            assert arr.dtype == np.float64
        assert batch.num_sweeps == SCHEDULE.size
        np.testing.assert_array_equal(np.abs(batch.last_samples), 1.0)
        np.testing.assert_array_equal(np.abs(batch.best_samples), 1.0)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_energies_consistent_with_samples(self, name):
        machine = _machine(name)
        model = machine.model
        batch = dispatch_anneal_many(machine, SCHEDULE, REPLICAS)
        for r in range(REPLICAS):
            last = model.energy(batch.last_samples[r])
            best = model.energy(batch.best_samples[r])
            assert batch.last_energies[r] == pytest.approx(last, abs=1e-8)
            assert batch.best_energies[r] == pytest.approx(best, abs=1e-8)
            assert batch.best_energies[r] <= batch.last_energies[r] + 1e-9

    @pytest.mark.parametrize("name", BACKENDS)
    def test_energies_stay_consistent_after_set_fields(self, name):
        """Reprogramming fields (SAIM's hot path) must retarget read-outs."""
        machine = _machine(name)
        rng = np.random.default_rng(9)
        machine.set_fields(rng.uniform(-1, 1, size=N), offset=0.25)
        model = machine.model  # reflects the (possibly re-quantized) fields
        batch = dispatch_anneal_many(machine, SCHEDULE, 3)
        for r in range(3):
            assert batch.last_energies[r] == pytest.approx(
                model.energy(batch.last_samples[r]), abs=1e-8
            )

    @pytest.mark.parametrize("name", BACKENDS)
    def test_set_fields_copies_never_aliases(self, name):
        """The caller owns its fields array (the engine reuses one buffer
        across iterations), so a machine must copy on ``set_fields`` —
        mutating the array afterwards must not leak into the machine."""
        machine = _machine(name)
        fields = np.linspace(-1.0, 1.0, N)
        machine.set_fields(fields, offset=0.0)
        programmed = np.asarray(machine.model.fields, dtype=float).copy()
        fields[:] = 1e6  # caller reuses the buffer for something else
        np.testing.assert_array_equal(
            np.asarray(machine.model.fields, dtype=float), programmed
        )

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("replicas", [1, 8, 128])
    def test_shape_contract_at_any_replica_count(self, name, dtype, replicas):
        """R >= 128 exercises the big-R batched kernels in both dtypes."""
        model = random_ising(8, rng=2)
        machine = _machine(name, model=model, rng=4, dtype=dtype)
        schedule = linear_beta_schedule(2.0, 6)
        batch = dispatch_anneal_many(machine, schedule, replicas)
        assert batch.num_replicas == replicas
        assert batch.last_samples.shape == (replicas, 8)
        assert batch.best_samples.shape == (replicas, 8)
        assert np.all(np.isfinite(batch.last_energies))
        np.testing.assert_array_equal(np.abs(batch.last_samples), 1.0)

    def test_per_run_views(self):
        machine = _machine("pbit")
        batch = machine.anneal_many(SCHEDULE, 3)
        assert batch.num_replicas == 3
        for r in range(batch.num_replicas):
            run = batch.per_run(r)
            np.testing.assert_array_equal(run.last_sample, batch.last_samples[r])
            assert run.last_energy == batch.last_energies[r]
            assert run.num_sweeps == batch.num_sweeps

    @pytest.mark.parametrize("name", ["pbit", "metropolis", "chromatic"])
    def test_initial_state_shape_checked(self, name):
        machine = _machine(name)
        with pytest.raises(ValueError):
            machine.anneal_many(SCHEDULE, 3, initial=np.ones((2, N)))

    def test_batch_from_runs_round_trip(self):
        machine = _machine("pbit")
        runs = [machine.anneal(SCHEDULE) for _ in range(3)]
        batch = batch_from_runs(runs)
        assert batch.num_replicas == 3
        np.testing.assert_array_equal(batch.last_samples[1], runs[1].last_sample)

    def test_malformed_shapes_rejected(self):
        with pytest.raises(ValueError):
            BatchAnnealResult(
                last_samples=np.ones((2, 4)),
                last_energies=np.zeros(3),  # wrong length
                best_samples=np.ones((2, 4)),
                best_energies=np.zeros(2),
                num_sweeps=5,
            )

    def test_pt_machine_usable_via_fallback(self):
        machine = PTMachine(random_ising(N, rng=0), rng=3)
        batch = dispatch_anneal_many(machine, SCHEDULE, 3)
        assert isinstance(batch, BatchAnnealResult)
        assert batch.last_samples.shape == (3, N)


class TestSerialViewBitParity:
    """``anneal`` must be the exact R=1 view of ``anneal_many``."""

    def test_pbit_anneal_equals_anneal_many_r1(self):
        model = random_ising(12, rng=4)
        serial = PBitMachine(model, rng=77).anneal(SCHEDULE)
        batch = PBitMachine(model, rng=77).anneal_many(SCHEDULE, 1)
        np.testing.assert_array_equal(serial.last_sample, batch.last_samples[0])
        np.testing.assert_array_equal(serial.best_sample, batch.best_samples[0])
        assert serial.last_energy == batch.last_energies[0]
        assert serial.best_energy == batch.best_energies[0]

    def test_metropolis_anneal_equals_anneal_many_r1(self):
        model = random_ising(12, rng=4)
        serial = MetropolisMachine(model, rng=77).anneal(SCHEDULE)
        batch = MetropolisMachine(model, rng=77).anneal_many(SCHEDULE, 1)
        np.testing.assert_array_equal(serial.last_sample, batch.last_samples[0])
        assert serial.last_energy == batch.last_energies[0]

    def test_chromatic_anneal_equals_anneal_many_r1(self):
        sparse_model = random_sparse_ising(12, degree=3, rng=4)
        serial = ChromaticPBitMachine(sparse_model, rng=77).anneal(SCHEDULE)
        batch = ChromaticPBitMachine(sparse_model, rng=77).anneal_many(SCHEDULE, 1)
        np.testing.assert_array_equal(serial.last_sample, batch.last_samples[0])
        assert serial.last_energy == batch.last_energies[0]

    def test_chromatic_matches_independent_serial_reference(self):
        """Pin the chromatic noise stream against a from-scratch loop.

        ``anneal`` delegates to ``anneal_many`` these days, so this
        reference — the historical color-by-color serial Gibbs sweep,
        re-implemented here independently — is what keeps the shared path
        honest about its draw order (one uniform per class member per
        color per sweep, after one draw per spin for the initial state).
        """
        model = random_sparse_ising(12, degree=3, rng=4)
        machine = ChromaticPBitMachine(model, rng=77)
        result = machine.anneal(SCHEDULE)

        from repro.ising.sparse import greedy_coloring

        rng = np.random.default_rng(77)  # ensure_rng(77) is default_rng(77)
        colors = greedy_coloring(model)
        spins = rng.choice(np.array([-1.0, 1.0]), size=model.num_spins)
        best_energy = model.energy(spins)
        best_sample = spins.copy()
        for beta in SCHEDULE:
            for color in colors:
                inputs = model.coupling[color] @ spins + model.fields[color]
                noise = rng.uniform(-1.0, 1.0, size=color.size)
                spins[color] = np.where(
                    np.tanh(beta * inputs) + noise >= 0.0, 1.0, -1.0
                )
            energy = model.energy(spins)
            if energy < best_energy:
                best_energy = energy
                best_sample = spins.copy()

        np.testing.assert_array_equal(result.last_sample, spins)
        np.testing.assert_array_equal(result.best_sample, best_sample)
        assert result.best_energy == pytest.approx(best_energy, abs=1e-9)


class TestBoltzmannEquivalence:
    """Batched and repeated-serial sampling agree with exact eq. (11)."""

    @staticmethod
    def _exact_mean_energy(model, beta):
        energies = enumerate_energies(model)
        weights = np.exp(-beta * (energies - energies.min()))
        weights /= weights.sum()
        return float(weights @ energies)

    def test_batched_pbit_matches_exact_boltzmann(self):
        model = random_ising(4, rng=6, density=1.0)
        beta = 0.7
        exact = self._exact_mean_energy(model, beta)
        # Long fixed-temperature schedule: the last sample is Boltzmann.
        schedule = constant_beta_schedule(beta, 30)
        machine = PBitMachine(model, rng=11)
        batch = machine.anneal_many(schedule, 400)
        batched_mean = float(batch.last_energies.mean())

        serial_energies = [
            PBitMachine(model, rng=500 + t).anneal(schedule).last_energy
            for t in range(200)
        ]
        serial_mean = float(np.mean(serial_energies))

        spread = float(np.std(batch.last_energies))
        # Both execution paths within a few standard errors of the exact
        # Boltzmann average (and of each other).
        assert abs(batched_mean - exact) < 4.0 * spread / np.sqrt(400)
        assert abs(serial_mean - exact) < 4.0 * spread / np.sqrt(200)

    def test_float32_pbit_matches_exact_boltzmann(self):
        """The reduced-precision scan must sample the same distribution."""
        model = random_ising(4, rng=6, density=1.0)
        beta = 0.7
        exact = self._exact_mean_energy(model, beta)
        schedule = constant_beta_schedule(beta, 30)
        batch = PBitMachine(model, rng=19, dtype="float32").anneal_many(
            schedule, 400
        )
        spread = float(np.std(batch.last_energies))
        assert abs(float(batch.last_energies.mean()) - exact) \
            < 4.0 * spread / np.sqrt(400)

    def test_batched_metropolis_matches_exact_boltzmann(self):
        model = random_ising(4, rng=8, density=1.0)
        beta = 0.7
        exact = self._exact_mean_energy(model, beta)
        schedule = constant_beta_schedule(beta, 30)
        batch = MetropolisMachine(model, rng=13).anneal_many(schedule, 400)
        spread = float(np.std(batch.last_energies))
        assert abs(float(batch.last_energies.mean()) - exact) \
            < 4.0 * spread / np.sqrt(400)

    def test_batched_chromatic_matches_exact_boltzmann_on_sparse(self):
        sparse_model = random_sparse_ising(8, degree=3, rng=5)
        beta = 0.6
        machine = ChromaticPBitMachine(sparse_model, rng=17)
        assert machine.num_colors < 8  # genuinely parallel update groups
        schedule = constant_beta_schedule(beta, 30)
        batch = machine.anneal_many(schedule, 400)

        # Exact Boltzmann average over all 2^8 states of the sparse model.
        n = sparse_model.num_spins
        codes = np.arange(2 ** n)
        spins = 2.0 * ((codes[:, None] >> np.arange(n)) & 1) - 1.0
        energies = np.array([sparse_model.energy(s) for s in spins])
        weights = np.exp(-beta * (energies - energies.min()))
        weights /= weights.sum()
        exact = float(weights @ energies)

        spread = float(np.std(batch.last_energies))
        assert abs(float(batch.last_energies.mean()) - exact) \
            < 4.0 * spread / np.sqrt(400)
