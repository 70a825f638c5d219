"""Worker-pool tests: residency, bit-identity, backpressure, logging."""

import io
import json

import numpy as np
import pytest

import repro
from repro.ising._lockstep import AnnealProgram, r1_scan_info
from repro.ising.pbit import PBitMachine
from repro.problems.generators import generate_qkp
from repro.runtime import SolveJob
from repro.service.codec import job_to_wire
from repro.service.log import RequestLogger
from repro.service.pool import ProgramCache, ServicePool, WorkerRuntime
from repro.service.queue import QueueFullError
from tests.helpers import random_ising

FAST = dict(num_iterations=10, mcs_per_run=60)


def wire_job(instance, seed, *, warm_start=False, **kwargs):
    job = SolveJob(instance, rng=seed, config_overrides=dict(FAST), **kwargs)
    return job_to_wire(job, warm_start=warm_start)


def counting_program(monkeypatch):
    """Spy on AnnealProgram constructions (tests/ising idiom)."""
    calls = {"count": 0}
    original = AnnealProgram.__init__

    def counting_init(self, coupling, dtype=None):
        calls["count"] += 1
        original(self, coupling, dtype=dtype)

    monkeypatch.setattr(AnnealProgram, "__init__", counting_init)
    return calls


class TestProgramCache:
    def test_cold_then_warm(self):
        cache = ProgramCache()
        model = random_ising(12, rng=0)
        first = PBitMachine(model)
        assert cache.bind(first) is False
        assert cache.cold_starts == 1
        second = PBitMachine(model)
        assert cache.bind(second) is True
        assert cache.warm_hits == 1
        # Adoption shares the prepared program object outright.
        assert second.program is first.program

    def test_adoption_builds_no_new_program(self, monkeypatch):
        cache = ProgramCache()
        model = random_ising(12, rng=0)
        calls = counting_program(monkeypatch)
        cache.bind(PBitMachine(model))
        cache.bind(PBitMachine(model))
        cache.bind(PBitMachine(model))
        assert calls["count"] == 1

    def test_serial_kernel_skipped(self):
        model = random_ising(12, rng=0)
        cache = ProgramCache()
        assert cache.bind(PBitMachine(model, kernel="serial")) is False
        assert cache.cold_starts == 0

    def test_lru_eviction(self):
        cache = ProgramCache(max_entries=1)
        model_a = random_ising(10, rng=1)
        model_b = random_ising(10, rng=2)
        cache.bind(PBitMachine(model_a))
        cache.bind(PBitMachine(model_b))
        assert cache.evictions == 1
        assert cache.bind(PBitMachine(model_a)) is False  # evicted: cold again

    def test_adopt_program_rejects_mismatches(self):
        model_a = random_ising(10, rng=1)
        model_b = random_ising(10, rng=2)
        program = PBitMachine(model_a).program
        with pytest.raises(ValueError, match="coupling"):
            PBitMachine(model_b).adopt_program(program)
        with pytest.raises(ValueError, match="dtype"):
            PBitMachine(model_a, dtype=np.float32).adopt_program(program)


class TestWorkerRuntime:
    def test_bit_identity_with_front_door(self):
        instance = generate_qkp(16, 0.5, rng=3)
        runtime = WorkerRuntime()
        response = runtime.execute(wire_job(instance, 42))
        assert response["ok"], response.get("error")
        from repro.service.codec import report_from_wire

        served = report_from_wire(response["report"])
        direct = repro.solve(instance, rng=42, **FAST)
        assert served == direct
        assert np.array_equal(served.best_x, direct.best_x)

    def test_warm_repeat_stays_bit_identical(self):
        """The residency contract: a warm-cache hit changes nothing."""
        instance = generate_qkp(16, 0.5, rng=3)
        runtime = WorkerRuntime()
        first = runtime.execute(wire_job(instance, 42))
        second = runtime.execute(wire_job(instance, 42))
        assert second["stats"]["warm_hits"] >= 1
        from repro.service.codec import report_from_wire

        # Wire dicts differ only in wall_seconds; report equality is the
        # contract (identity fields + best_x).
        assert (report_from_wire(second["report"])
                == report_from_wire(first["report"]))

    def test_program_built_once_across_requests(self, monkeypatch):
        instance = generate_qkp(16, 0.5, rng=3)
        runtime = WorkerRuntime()
        calls = counting_program(monkeypatch)
        for seed in (1, 2, 3):
            assert runtime.execute(wire_job(instance, seed))["ok"]
        assert calls["count"] == 1
        assert runtime.stats()["warm_hits"] == 2
        assert runtime.stats()["cold_starts"] == 1

    def test_warm_start_resumes_session_lambdas(self):
        instance = generate_qkp(16, 0.5, rng=3)
        runtime = WorkerRuntime()
        runtime.execute(wire_job(instance, 1))
        response = runtime.execute(wire_job(instance, 2, warm_start=True))
        assert response["ok"]
        assert response["warm_start"] is True
        stats = runtime.stats()
        assert stats["session_warm_starts"] == 1
        assert stats["lambda_entries"] >= 1

    def test_warm_start_conflicts_are_errors(self):
        instance = generate_qkp(10, 0.5, rng=3)
        runtime = WorkerRuntime()
        bad = wire_job(instance, 1, warm_start=True,
                       initial_lambdas=np.array([1.0]))
        response = runtime.execute(bad)
        assert not response["ok"]
        assert "mutually exclusive" in response["error"]["message"]
        bad = wire_job(instance, 1, warm_start=True, restart="warm")
        response = runtime.execute(bad)
        assert not response["ok"]
        assert "restart='random'" in response["error"]["message"]

    def test_client_program_cache_rejected(self):
        instance = generate_qkp(10, 0.5, rng=3)
        runtime = WorkerRuntime()
        payload = wire_job(instance, 1)
        payload["backend_options"] = {"program_cache": "mine"}
        response = runtime.execute(payload)
        assert not response["ok"]
        assert "service-managed" in response["error"]["message"]

    def test_solver_errors_travel_as_data(self):
        runtime = WorkerRuntime()
        payload = wire_job(generate_qkp(10, 0.5, rng=3), 1)
        payload["method"] = "not-a-method"
        response = runtime.execute(payload)
        assert not response["ok"]
        assert response["error"]["type"]
        assert "not-a-method" in response["error"]["message"]
        assert runtime.stats()["errors"] == 1


class TestServicePool:
    def test_submit_and_report_bit_identical(self):
        instance = generate_qkp(16, 0.5, rng=5)
        with ServicePool(num_workers=1) as pool:
            handle = pool.solve_payload(wire_job(instance, 7), timeout=60)
        assert handle.status == "done"
        assert handle.report() == repro.solve(instance, rng=7, **FAST)

    def test_process_mode_bit_identical(self):
        instance = generate_qkp(16, 0.5, rng=5)
        with ServicePool(num_workers=1, mode="process") as pool:
            first = pool.solve_payload(wire_job(instance, 7), timeout=120)
            second = pool.solve_payload(wire_job(instance, 7), timeout=120)
        assert first.report() == repro.solve(instance, rng=7, **FAST)
        # Residency survives in the long-lived child process.
        assert second.response["stats"]["warm_hits"] >= 1
        assert second.report() == first.report()
        # The child reports its own R=1 scan, fallback reason included.
        scan = second.response["stats"]["r1_scan"]
        assert scan == "compiled" or scan.startswith("numpy: ")

    def test_backpressure_rejects_above_high_water(self):
        instance = generate_qkp(10, 0.5, rng=5)
        with ServicePool(num_workers=1, queue_depth=2) as pool:
            pool.pause()
            held = []
            with pytest.raises(QueueFullError) as excinfo:
                for seed in range(10):
                    held.append(pool.submit(wire_job(instance, seed)))
            assert excinfo.value.high_water == 2
            # Pause may hold one dequeued job beyond the queued two.
            assert 2 <= len(held) <= 3
            pool.resume()
            for handle in held:
                assert handle.wait(60)
                assert handle.status == "done"

    def test_malformed_payload_never_enqueued(self):
        with ServicePool(num_workers=1) as pool:
            with pytest.raises(Exception, match="problem"):
                pool.submit({"method": "saim"})
            assert pool.queue.num_enqueued == 0

    def test_stats_shape(self):
        instance = generate_qkp(10, 0.5, rng=5)
        with ServicePool(num_workers=2) as pool:
            pool.solve_payload(wire_job(instance, 1), timeout=60)
            stats = pool.stats()
        assert stats["jobs_done"] == 1
        assert stats["queue"]["enqueued"] == 1
        assert stats["queue"]["rejected"] == 0
        assert len(stats["workers"]) == 2
        assert {"id", "mode"} <= set(stats["workers"][0])
        # The worker that solved reports which R=1 scan its process runs.
        (busy,) = [w for w in stats["workers"] if w.get("jobs_done")]
        assert busy["r1_scan"] == r1_scan_info() != "not loaded"

    def test_one_log_line_per_request_including_rejected(self):
        instance = generate_qkp(10, 0.5, rng=5)
        stream = io.StringIO()
        logger = RequestLogger(stream)
        with ServicePool(num_workers=1, queue_depth=1,
                         logger=logger) as pool:
            pool.solve_payload(wire_job(instance, 1), timeout=60)
            pool.pause()
            submitted = [pool.submit(wire_job(instance, 2))]
            with pytest.raises(QueueFullError):
                for seed in range(3, 10):
                    submitted.append(pool.submit(wire_job(instance, seed)))
            pool.resume()
            for handle in submitted:
                assert handle.wait(60)
        lines = [json.loads(line) for line in
                 stream.getvalue().splitlines()]
        assert len(lines) == len(submitted) + 2  # done jobs + one rejection
        statuses = [line["status"] for line in lines]
        assert statuses.count("rejected") == 1
        assert statuses.count("ok") == len(submitted) + 1
        for line in lines:
            assert line["event"] == "solve"
            assert "id" in line and "priority" in line

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="num_workers"):
            ServicePool(num_workers=0)
        with pytest.raises(ValueError, match="mode"):
            ServicePool(mode="greenlet")
