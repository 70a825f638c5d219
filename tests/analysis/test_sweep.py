"""Tests for the parameter-sweep helpers (repro.analysis.sweep)."""

import numpy as np
import pytest

from repro.analysis.sweep import (
    BackendSweep,
    ParameterSweep,
    SweepPoint,
    sweep_backends,
)


def quadratic_runner(x, y):
    return {"score": -(x - 2) ** 2 - (y - 3) ** 2, "sum": float(x + y)}


class TestParameterSweep:
    def test_num_points(self):
        sweep = ParameterSweep(quadratic_runner, {"x": [1, 2], "y": [1, 2, 3]})
        assert sweep.num_points == 6

    def test_run_covers_grid(self):
        sweep = ParameterSweep(quadratic_runner, {"x": [1, 2], "y": [3]})
        points = sweep.run()
        assert len(points) == 2
        assert {p.params["x"] for p in points} == {1, 2}
        assert all(p.params["y"] == 3 for p in points)

    def test_metrics_recorded(self):
        sweep = ParameterSweep(quadratic_runner, {"x": [2], "y": [3]})
        (point,) = sweep.run()
        assert point.metrics["score"] == 0
        assert point.metrics["sum"] == 5.0

    def test_best_maximize(self):
        sweep = ParameterSweep(quadratic_runner, {"x": [0, 1, 2, 3], "y": [3]})
        best = sweep.best(sweep.run(), "score")
        assert best.params["x"] == 2

    def test_best_minimize(self):
        sweep = ParameterSweep(quadratic_runner, {"x": [0, 1, 2], "y": [0, 3]})
        worst = sweep.best(sweep.run(), "score", maximize=False)
        assert worst.params == {"x": 0, "y": 0}

    def test_render_contains_params_and_metrics(self):
        sweep = ParameterSweep(quadratic_runner, {"x": [1], "y": [2]})
        table = sweep.render(sweep.run(), title="sweep test")
        assert "sweep test" in table
        assert "score" in table and "sum" in table

    def test_render_metric_subset(self):
        sweep = ParameterSweep(quadratic_runner, {"x": [1], "y": [2]})
        table = sweep.render(sweep.run(), metrics=["sum"])
        assert "sum" in table and "score" not in table

    def test_rejects_bad_runner(self):
        with pytest.raises(TypeError):
            ParameterSweep("not callable", {"x": [1]})

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            ParameterSweep(quadratic_runner, {})
        with pytest.raises(ValueError):
            ParameterSweep(quadratic_runner, {"x": []})

    def test_rejects_non_dict_metrics(self):
        sweep = ParameterSweep(lambda x: 42, {"x": [1]})
        with pytest.raises(TypeError, match="dict"):
            sweep.run()

    def test_render_empty_rejected(self):
        sweep = ParameterSweep(quadratic_runner, {"x": [1], "y": [1]})
        with pytest.raises(ValueError):
            sweep.render([])

    def test_best_missing_metric_rejected(self):
        sweep = ParameterSweep(quadratic_runner, {"x": [1], "y": [1]})
        with pytest.raises(ValueError):
            sweep.best(sweep.run(), "nonexistent")


class TestNanAndNumpyMetrics:
    """Regressions: NaN points must not poison ``best``; numpy scalars must
    render like their python counterparts."""

    def points(self):
        return [
            SweepPoint(params={"x": 0}, metrics={"score": float("nan")}),
            SweepPoint(params={"x": 1}, metrics={"score": 3.0}),
            SweepPoint(params={"x": 2}, metrics={"score": np.float64("nan")}),
            SweepPoint(params={"x": 3}, metrics={"score": -1.0}),
        ]

    def sweep(self):
        return ParameterSweep(lambda x: {"score": 0.0}, {"x": [0, 1, 2, 3]})

    def test_nan_never_wins_maximize(self):
        # Pre-fix: max() with a NaN key can return a NaN point depending
        # on comparison order.
        best = self.sweep().best(self.points(), "score", maximize=True)
        assert best.params["x"] == 1

    def test_nan_never_wins_minimize(self):
        best = self.sweep().best(self.points(), "score", maximize=False)
        assert best.params["x"] == 3

    def test_nan_first_point_does_not_shadow(self):
        points = self.points()[:2]  # NaN first, then the real value
        assert self.sweep().best(points, "score").params["x"] == 1

    def test_all_nan_rejected(self):
        points = [
            SweepPoint(params={"x": 0}, metrics={"score": float("nan")}),
        ]
        with pytest.raises(ValueError, match="comparable"):
            self.sweep().best(points, "score")

    def test_render_formats_numpy_float_like_float(self):
        sweep = ParameterSweep(lambda x: {}, {"x": [0]})
        points = [
            SweepPoint(params={"x": 0},
                       metrics={"a": np.float64(1.23456789),
                                "b": 1.23456789}),
        ]
        table = sweep.render(points, metrics=["a", "b"])
        row = table.splitlines()[-1]
        cells = [cell.strip() for cell in row.split("|")]
        assert cells[1] == cells[2] == "1.235"

    def test_render_formats_numpy_int_like_int(self):
        sweep = ParameterSweep(lambda x: {}, {"x": [0]})
        points = [
            SweepPoint(params={"x": 0}, metrics={"n": np.int64(1200)}),
        ]
        table = sweep.render(points, metrics=["n"])
        assert "1200" in table
        assert "np.int64" not in table


class TestBackendSweep:
    FAST = dict(num_iterations=8, mcs_per_run=50, eta=5.0,
                eta_decay="sqrt", normalize_step=True)

    def test_grid_and_jobs(self):
        from tests.helpers import tiny_knapsack_problem

        sweep = BackendSweep(
            tiny_knapsack_problem(), backends=["pbit", "quantized"],
            replicas=[1, 2], rng=0,
            backend_options={"quantized": {"bits": 10}}, **self.FAST,
        )
        jobs = sweep.jobs()
        assert sweep.num_points == len(jobs) == 4
        assert [(j.backend, j.num_replicas) for j in jobs] == [
            ("pbit", 1), ("pbit", 2), ("quantized", 1), ("quantized", 2),
        ]
        assert jobs[2].backend_options == {"bits": 10}
        assert jobs[0].backend_options is None

    def test_rejects_options_for_unknown_backend(self):
        from tests.helpers import tiny_knapsack_problem

        with pytest.raises(ValueError, match="not in the sweep"):
            BackendSweep(
                tiny_knapsack_problem(), backends=["pbit"],
                backend_options={"quantized": {"bits": 8}},
            )

    def test_sweep_backends_one_call_table(self):
        from tests.helpers import tiny_knapsack_problem

        report = sweep_backends(
            tiny_knapsack_problem(), backends=["pbit", "metropolis"],
            replicas=[1, 2], rng=0, title="backend comparison", **self.FAST,
        )
        assert len(report.points) == 4
        for line in ("backend comparison", "backend", "replicas",
                     "best_cost", "feasible_pct", "total_mcs", "seconds"):
            assert line in report.table
        # Rows appear in grid order with per-point accounting.
        by_params = {
            (p.params["backend"], p.params["replicas"]): p.metrics
            for p in report.points
        }
        assert by_params[("pbit", 2)]["total_mcs"] == 8 * 2 * 50
        best = report.best()
        assert best.metrics["best_cost"] == pytest.approx(-8.0)

    def test_failed_point_raises_by_default(self):
        from repro.runtime import SolveJobError
        from tests.helpers import tiny_knapsack_problem

        sweep = BackendSweep(
            tiny_knapsack_problem(), backends=["no-such-machine"], **self.FAST
        )
        with pytest.raises(SolveJobError, match="no-such-machine"):
            sweep.run()

    def test_failed_point_becomes_nan_row_when_tolerant(self):
        from tests.helpers import tiny_knapsack_problem

        sweep = BackendSweep(
            tiny_knapsack_problem(), backends=["pbit", "no-such-machine"],
            rng=0, **self.FAST,
        )
        points = sweep.run(raise_on_error=False)
        ok, failed = points
        assert ok.metrics["best_cost"] == pytest.approx(-8.0)
        assert np.isnan(failed.metrics["best_cost"])
        assert np.isnan(failed.metrics["feasible_pct"])
        # The table still renders, with the failed cell as NaN.
        assert "nan" in sweep.render(points, metrics=["best_cost"])

    def test_run_matches_front_door(self):
        import repro
        from tests.helpers import tiny_knapsack_problem

        points = BackendSweep(
            tiny_knapsack_problem(), backends=["pbit"], replicas=[2],
            rng=4, **self.FAST,
        ).run(max_workers=1)
        direct = repro.solve(
            tiny_knapsack_problem(), num_replicas=2, rng=4, **self.FAST
        )
        assert points[0].metrics["best_cost"] == direct.best_cost

    def test_base_class_run_path_still_works(self):
        """ParameterSweep.run() on a BackendSweep drives the runner hook."""
        from tests.helpers import tiny_knapsack_problem

        sweep = BackendSweep(
            tiny_knapsack_problem(), backends=["pbit"], replicas=[1],
            rng=0, **self.FAST,
        )
        (point,) = ParameterSweep.run(sweep)
        assert point.params == {"method": "saim", "backend": "pbit",
                                "replicas": 1}
        assert point.metrics["best_cost"] == pytest.approx(-8.0)


class TestMethodAxis:
    """The method × backend × replicas grid (backend-free methods collapse
    to one row each)."""

    FAST = dict(num_iterations=8, mcs_per_run=50, eta=5.0,
                eta_decay="sqrt", normalize_step=True)

    def instance(self):
        from repro.problems.generators import generate_mkp

        return generate_mkp(12, 2, rng=3)

    def test_backend_free_methods_collapse(self):
        sweep = BackendSweep(
            self.instance(), backends=["pbit", "metropolis"],
            replicas=[1, 2], methods=["saim", "greedy", "milp"],
            rng=0, **self.FAST,
        )
        points = sweep.grid_points()
        saim = [p for p in points if p["method"] == "saim"]
        assert len(saim) == 4  # 2 backends x 2 replicas
        for method in ("greedy", "milp"):
            rows = [p for p in points if p["method"] == method]
            assert rows == [{"method": method, "backend": "-", "replicas": 1}]

    def test_jobs_strip_annealing_knobs_for_baselines(self):
        sweep = BackendSweep(
            self.instance(), backends=["pbit"], replicas=[2],
            methods=["saim", "greedy"], rng=0,
            method_options={"greedy": {"improve": False}}, **self.FAST,
        )
        saim_job, greedy_job = sweep.jobs()
        assert saim_job.backend == "pbit" and saim_job.num_replicas == 2
        assert saim_job.config_overrides == self.FAST
        assert greedy_job.backend is None
        assert greedy_job.num_replicas == 1
        assert greedy_job.config is None
        assert greedy_job.config_overrides == {}
        assert greedy_job.method_options == {"improve": False}

    def test_method_comparison_table(self):
        from repro.analysis.sweep import sweep_backends

        report = sweep_backends(
            self.instance(), backends=["pbit"], replicas=[1],
            methods=["saim", "greedy", "milp"], rng=0,
            title="method comparison", **self.FAST,
        )
        assert len(report.points) == 3
        for token in ("method", "greedy", "milp", "saim", "best_cost"):
            assert token in report.table
        exact = next(p for p in report.points if p.params["method"] == "milp")
        greedy = next(p for p in report.points
                      if p.params["method"] == "greedy")
        assert greedy.metrics["best_cost"] >= exact.metrics["best_cost"] - 1e-9
        # The exact row must win (or tie) the table.
        best = report.best()
        assert best.metrics["best_cost"] == pytest.approx(
            exact.metrics["best_cost"]
        )

    def test_rejects_options_for_unknown_method(self):
        with pytest.raises(ValueError, match="not in the sweep"):
            BackendSweep(
                self.instance(), backends=["pbit"], methods=["saim"],
                method_options={"ga": {"num_children": 10}},
            )

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            BackendSweep(
                self.instance(), backends=["pbit"], methods=["quantum"],
            )


class TestSweepWithSolver:
    def test_saim_eta_sweep(self):
        """End-to-end: sweep SAIM's eta on a tiny problem."""
        from repro.core.engine import SaimEngine
        from repro.core.saim import SaimConfig
        from tests.helpers import tiny_knapsack_problem

        def runner(eta):
            config = SaimConfig(num_iterations=15, mcs_per_run=60, eta=eta)
            result = SaimEngine(config).solve(
                tiny_knapsack_problem(), rng=0
            )
            return {
                "best_cost": result.best_cost,
                "feasible": result.feasible_ratio,
            }

        sweep = ParameterSweep(runner, {"eta": [1.0, 5.0, 20.0]})
        points = sweep.run()
        assert len(points) == 3
        best = sweep.best(points, "best_cost", maximize=False)
        assert best.metrics["best_cost"] <= -8.0 + 1e-9


class TestSweepStrategy:
    """Executor-strategy pass-through and the rendered strategy column."""

    FAST = dict(num_iterations=8, mcs_per_run=50, eta=5.0,
                eta_decay="sqrt", normalize_step=True)

    def test_strategy_column_rendered(self):
        from tests.helpers import tiny_knapsack_problem

        report = sweep_backends(
            tiny_knapsack_problem(), backends=["pbit"], replicas=[1],
            rng=0, **self.FAST,
        )
        assert "strategy" in report.table
        assert all(p.metrics["strategy"] == "process" for p in report.points)

    def test_fused_single_cell_grid_matches_process(self):
        """A one-cell SAIM/pbit grid is a fleet of one: fused must run and
        agree with the process path on the same integer seed."""
        from tests.helpers import tiny_knapsack_problem

        fused = sweep_backends(
            tiny_knapsack_problem(), backends=["pbit"], replicas=[1],
            rng=4, strategy="fused", **self.FAST,
        )
        process = sweep_backends(
            tiny_knapsack_problem(), backends=["pbit"], replicas=[1],
            rng=4, strategy="process", **self.FAST,
        )
        assert fused.points[0].metrics["strategy"] == "fused"
        assert (fused.points[0].metrics["best_cost"]
                == process.points[0].metrics["best_cost"])
        assert "fused" in fused.table

    def test_fused_heterogeneous_grid_rejected(self):
        from tests.helpers import tiny_knapsack_problem

        sweep = BackendSweep(
            tiny_knapsack_problem(), backends=["pbit", "metropolis"],
            rng=0, **self.FAST,
        )
        with pytest.raises(ValueError, match="shareable"):
            sweep.run(strategy="fused")

    def test_auto_records_resolved_strategy(self):
        from tests.helpers import tiny_knapsack_problem

        # One grid point -> below the auto-fuse minimum, resolves to
        # process; the column shows the *resolved* strategy, never "auto".
        points = BackendSweep(
            tiny_knapsack_problem(), backends=["pbit"], replicas=[1],
            rng=0, **self.FAST,
        ).run(strategy="auto")
        assert points[0].metrics["strategy"] == "process"
