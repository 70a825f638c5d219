"""Fused block-diagonal fleet annealing: packer, kernel, no-crosstalk.

The headline contract (``repro.ising.fleet``): instance ``b`` of a fused
fleet anneal is *bit-identical* to a standalone :class:`PBitMachine` run on
the same spawned stream — samples, energies, traces and flip counts, at
every dtype and replica count, whatever subset of the fleet is active, on
the compiled and the numpy ``R = 1`` scan alike.  The cross-backend
no-crosstalk property behind it is pinned separately: on a block-diagonal
Hamiltonian a backend's rows for instance A must be unaffected by instance
B's fields.
"""

import shutil

import numpy as np
import pytest

import repro
from repro.core.schedule import linear_beta_schedule
from repro.ising import _r1scan
from repro.ising._lockstep import r1_scan_info
from repro.ising.backend import dispatch_anneal_many
from repro.ising.fleet import FleetMachine, FleetProgram
from repro.ising.model import IsingModel
from repro.ising.pbit import PBitMachine
from repro.utils.rng import spawn_rngs
from tests.helpers import random_ising

# Ragged on purpose: exercises multi-block instances (n > 32), a full
# 32-aligned instance, and tiny tails inside one padded block.
SIZES = (11, 40, 17, 33, 5)
DTYPES = ("float64", "float32")


def fleet_models(sizes=SIZES, seed=0):
    return [random_ising(n, rng=seed + index) for index, n in enumerate(sizes)]


def fleet_schedule(sweeps=12):
    """Linear ramp from beta=0: includes the pure-noise sweep edge case."""
    return linear_beta_schedule(2.0, sweeps, beta_min=0.0)


def standalone_results(models, seed, num_replicas, dtype,
                       record_energy=False, sweeps=12):
    """What each instance must reproduce: its own PBitMachine on its own
    spawned stream."""
    streams = spawn_rngs(seed, len(models))
    out = []
    for model, stream in zip(models, streams):
        machine = PBitMachine(model, rng=stream, dtype=dtype)
        out.append(machine.anneal_many(
            fleet_schedule(sweeps), num_replicas,
            record_energy=record_energy,
        ))
    return out


def assert_batches_equal(actual, expected, traces=False):
    np.testing.assert_array_equal(actual.last_samples, expected.last_samples)
    np.testing.assert_array_equal(actual.best_samples, expected.best_samples)
    np.testing.assert_array_equal(
        actual.last_energies, expected.last_energies
    )
    np.testing.assert_array_equal(
        actual.best_energies, expected.best_energies
    )
    if traces:
        np.testing.assert_array_equal(
            actual.energy_traces, expected.energy_traces
        )


class TestFleetProgram:
    def test_padding_is_block_aligned(self):
        program = FleetProgram([m.coupling for m in fleet_models()])
        assert program.padded_spins == 64  # max(SIZES)=40 -> 2 blocks of 32
        assert program.max_spins == 40
        assert list(program.sizes) == list(SIZES)

    def test_sub_stacks_shapes(self):
        program = FleetProgram([m.coupling for m in fleet_models()])
        assert len(program.sub_stacks) == 2
        for stack in program.sub_stacks:
            assert stack.shape == (len(SIZES), 32, 32)

    def test_block_width(self):
        program = FleetProgram([m.coupling for m in fleet_models()])
        assert program.block_width(1, 0) == 32   # n=40: full first block
        assert program.block_width(1, 32) == 8   # ...8-row tail
        assert program.block_width(4, 0) == 5    # n=5 fits the first block
        assert program.block_width(4, 32) == 0   # ...and owns no tail rows

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one instance"):
            FleetProgram([])

    def test_set_fields_validates_shape(self):
        program = FleetProgram([m.coupling for m in fleet_models()])
        with pytest.raises(ValueError, match="shape"):
            program.set_fields(0, np.zeros(SIZES[0] + 1))

    def test_set_fields_copies(self):
        program = FleetProgram([m.coupling for m in fleet_models()])
        buf = np.ones(SIZES[0])
        program.set_fields(0, buf, 2.0)
        buf[:] = -7.0  # caller reuses the buffer; packed copy must not move
        assert program.fields[0, : SIZES[0]].max() == 1.0
        assert program.offsets[0] == 2.0


class TestFleetMachineValidation:
    def test_requires_ising_models(self):
        with pytest.raises(TypeError, match="IsingModel"):
            FleetMachine([np.eye(3)])

    def test_explicit_rngs_must_match_count(self):
        models = fleet_models()
        with pytest.raises(ValueError, match="Generators"):
            FleetMachine(models, rng=[np.random.default_rng(0)])

    def test_explicit_rngs_must_be_generators(self):
        models = fleet_models()
        with pytest.raises(ValueError, match="Generators"):
            FleetMachine(models, rng=[1] * len(models))

    def test_active_indices_validated(self):
        machine = FleetMachine(fleet_models(), rng=0)
        with pytest.raises(ValueError, match="unique"):
            machine.anneal_fleet(fleet_schedule(), active=[0, 0])
        with pytest.raises(ValueError, match="out of range"):
            machine.anneal_fleet(fleet_schedule(), active=[99])
        with pytest.raises(ValueError, match="at least one"):
            machine.anneal_fleet(fleet_schedule(), active=[])

    def test_record_energy_needs_track_best(self):
        machine = FleetMachine(fleet_models(), rng=0)
        with pytest.raises(ValueError, match="track_best"):
            machine.anneal_fleet(
                fleet_schedule(), record_energy=True, track_best=False
            )

    def test_inactive_instance_lookup_raises(self):
        machine = FleetMachine(fleet_models(), rng=0)
        result = machine.anneal_fleet(fleet_schedule(4), active=[0, 2])
        with pytest.raises(KeyError, match="not annealed"):
            result.instance(1)


@pytest.mark.usefixtures("r1_scan")
class TestFleetBitIdentity:
    """Fused per-instance chains == standalone machines, bit for bit,
    through both the compiled and the numpy R=1 scan."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("num_replicas", [1, 3])
    def test_matches_standalone(self, dtype, num_replicas):
        models = fleet_models()
        machine = FleetMachine(models, rng=42, dtype=dtype)
        fused = machine.anneal_fleet(
            fleet_schedule(), num_replicas, record_energy=True
        )
        expected = standalone_results(
            models, 42, num_replicas, dtype, record_energy=True
        )
        for index in range(len(models)):
            assert_batches_equal(
                fused.instance(index), expected[index], traces=True
            )

    @pytest.mark.parametrize("num_replicas", [1, 3])
    def test_flip_events_match_standalone(self, num_replicas):
        """Each instance's program counts the standalone run's flip
        events: spin flips at R=1, flipping scan steps at R>1."""
        models = fleet_models()
        machine = FleetMachine(models, rng=42)
        machine.anneal_fleet(fleet_schedule(), num_replicas)
        streams = spawn_rngs(42, len(models))
        for model, stream, program in zip(
            models, streams, machine.program.programs
        ):
            solo = PBitMachine(model, rng=stream)
            solo.anneal_many(fleet_schedule(), num_replicas)
            assert program.flip_events == solo.program.flip_events > 0

    def test_non_positive_betas_match_standalone(self):
        """Every beta <= 0 sweep takes the standalone sign split, so
        padding rows stay frozen at negative beta too."""
        models = fleet_models()
        schedule = np.array([-0.5, 0.0, -2.0, 1.0])
        fused = FleetMachine(models, rng=9).anneal_fleet(schedule, 1)
        streams = spawn_rngs(9, len(models))
        for index, (model, stream) in enumerate(zip(models, streams)):
            solo = PBitMachine(model, rng=stream).anneal_many(schedule, 1)
            assert_batches_equal(fused.instance(index), solo)

    def test_active_subset_is_invariant(self):
        """An instance's chain is the same whatever else is active."""
        models = fleet_models()
        full = FleetMachine(models, rng=7).anneal_fleet(fleet_schedule(), 2)
        subset = FleetMachine(models, rng=7).anneal_fleet(
            fleet_schedule(), 2, active=[1, 3]
        )
        for index in (1, 3):
            assert_batches_equal(subset.instance(index), full.instance(index))

    def test_untracked_last_equals_tracked_last(self):
        """track_best=False must not perturb the chain or its read-out."""
        models = fleet_models()
        tracked = FleetMachine(models, rng=5).anneal_fleet(
            fleet_schedule(), 2, track_best=True
        )
        untracked = FleetMachine(models, rng=5).anneal_fleet(
            fleet_schedule(), 2, track_best=False
        )
        for index in range(len(models)):
            got = untracked.instance(index)
            want = tracked.instance(index)
            np.testing.assert_array_equal(got.last_samples, want.last_samples)
            np.testing.assert_array_equal(
                got.last_energies, want.last_energies
            )
            # Untracked best_* alias the final state by contract.
            np.testing.assert_array_equal(got.best_samples, got.last_samples)

    def test_set_fields_reprograms_one_instance(self):
        """The engine's set_fields-many contract: reprogramming instance b
        changes b's chain only (other streams are untouched)."""
        models = fleet_models()
        base = FleetMachine(models, rng=3).anneal_fleet(fleet_schedule(), 1)
        moved = FleetMachine(models, rng=3)
        moved.set_fields(2, models[2].fields + 5.0, models[2].offset)
        shifted = moved.anneal_fleet(fleet_schedule(), 1)
        for index in (0, 1, 3, 4):
            assert_batches_equal(shifted.instance(index), base.instance(index))
        assert not np.array_equal(
            shifted.instance(2).last_energies, base.instance(2).last_energies
        )

    def test_energies_match_independent_recomputation(self):
        """Fused float64 energies == energies recomputed from the samples
        via the model's own Hamiltonian (to float64 accounting tolerance),
        per instance."""
        models = fleet_models()
        fused = FleetMachine(models, rng=11).anneal_fleet(fleet_schedule(), 4)
        for index, model in enumerate(models):
            batch = fused.instance(index)
            recomputed = np.array(
                [model.energy(s) for s in batch.last_samples]
            )
            np.testing.assert_allclose(
                batch.last_energies, recomputed, rtol=1e-9, atol=1e-9
            )


class TestCompiledFleetScan:
    """R=1 float64 fused anneals: the compiled scan == the numpy scan."""

    # One instance per edge of the 32-spin block grid, plus the
    # paper-size MKP encodings (~110 spins).
    SIZES = (1, 31, 32, 33, 70, 110)

    @staticmethod
    def _run(models, active, track_best):
        machine = FleetMachine(models, rng=9)
        result = machine.anneal_fleet(
            fleet_schedule(20), active=active, record_energy=track_best,
            track_best=track_best,
        )
        return result, [p.flip_events for p in machine.program.programs]

    @pytest.mark.parametrize("active", [None, [0, 2, 3, 5]])
    @pytest.mark.parametrize("track_best", [True, False])
    def test_compiled_matches_numpy(self, active, track_best, monkeypatch):
        """Samples, energies, traces and flip counts, bit for bit, from a
        beta=0 first sweep, on the whole fleet and on an active subset."""
        models = fleet_models(self.SIZES, seed=100)
        compiled, compiled_flips = self._run(models, active, track_best)
        assert r1_scan_info() == (
            "compiled" if shutil.which("cc")
            else "numpy: no C compiler (cc) on PATH"
        )
        monkeypatch.setattr(_r1scan, "compiled_scan", lambda: None)
        reference, reference_flips = self._run(models, active, track_best)
        assert compiled.indices == reference.indices
        for index in compiled.indices:
            assert_batches_equal(
                compiled.instance(index), reference.instance(index),
                traces=track_best,
            )
        assert compiled_flips == reference_flips
        for index, flips in enumerate(compiled_flips):
            assert (flips > 0) == (index in compiled.indices)


def block_diagonal(model_a: IsingModel, model_b: IsingModel,
                   b_fields=None) -> IsingModel:
    """A (+) B with B's couplings ZEROED — pure block-diagonal fixture.

    ``model_a``'s coefficients are scaled up so they dominate the global
    magnitude: the quantized backend derives its full-scale range from
    ``max(|J|, |h|)`` over the whole model, so fixtures must pin that
    maximum inside A or changing B's fields would re-quantize A's rows.
    """
    n_a, n_b = model_a.num_spins, model_b.num_spins
    coupling = np.zeros((n_a + n_b, n_a + n_b))
    coupling[:n_a, :n_a] = model_a.coupling * 5.0
    fields = np.concatenate([
        model_a.fields * 5.0,
        model_b.fields if b_fields is None else np.asarray(b_fields),
    ])
    return IsingModel(coupling, fields, offset=model_a.offset)


class TestBlockDiagonalNoCrosstalk:
    """Every backend: A's rows are deaf to B's fields across the zero block.

    This is the invariant the fused fleet is built on.  Row-identity to a
    *standalone* run of A alone is deliberately not asserted here: the
    single-stream kernels draw ``(n, R)``-shaped noise, so a different
    total ``n`` shifts every subsequent draw — that identity needs
    per-instance streams and is exactly what :class:`FleetMachine`
    provides (pinned above).  What must hold for any correct backend is
    that with zero cross-couplings, instance A's trajectory cannot depend
    on instance B's *fields*: same machine, same seed, same shapes, B's
    fields changed — A's rows bit-identical.
    """

    @pytest.mark.parametrize("name", tuple(repro.available_backends()))
    @pytest.mark.parametrize("num_replicas", [1, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_rows_ignore_b_fields(self, name, num_replicas, seed):
        if name == "pt":
            pytest.skip(
                "parallel tempering has cross-instance coupling by design: "
                "replica-exchange acceptances compare GLOBAL chain energies, "
                "so instance B's field energy steers which chains swap and "
                "A's rows move with it (the fused fleet path excludes pt "
                "for the same reason)"
            )
        model_a = random_ising(9, rng=seed)
        model_b = random_ising(6, rng=seed + 50)
        factory = repro.make_backend_factory(name)
        schedule = linear_beta_schedule(2.5, 10)
        results = []
        for b_fields in (None, -model_b.fields * 0.3 + 0.05):
            machine = factory(
                block_diagonal(model_a, model_b, b_fields), rng=seed + 7
            )
            results.append(dispatch_anneal_many(
                machine, schedule, num_replicas
            ))
        # last_samples are the chain state: any dependence on B's fields is
        # crosstalk.  best_samples are NOT asserted — "best" is selected by
        # GLOBAL chain energy, which legitimately includes B's field term,
        # so changing B's fields may pick a different sweep as best for the
        # whole chain without A's trajectory moving at all.  (The fused
        # fleet tracks best per instance, which is why it doesn't inherit
        # this ambiguity — see TestFleetBitIdentity.)
        np.testing.assert_array_equal(
            results[0].last_samples[:, :9], results[1].last_samples[:, :9]
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fleet_energy_decomposition(self, seed):
        """The fused machine on [A, B] reports exactly the energies of the
        block-diagonal model restricted to each instance's rows (float64):
        no energy leaks across the zero blocks."""
        model_a = random_ising(9, rng=seed)
        model_b = random_ising(6, rng=seed + 50)
        fused = FleetMachine([model_a, model_b], rng=seed).anneal_fleet(
            fleet_schedule(10), 4
        )
        for index, model in enumerate((model_a, model_b)):
            batch = fused.instance(index)
            recomputed = np.array(
                [model.energy(s) for s in batch.last_samples]
            )
            np.testing.assert_allclose(
                batch.last_energies, recomputed, rtol=1e-12, atol=1e-12
            )
