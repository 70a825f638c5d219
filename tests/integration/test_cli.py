"""Tests for the command-line interface (repro.cli)."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.problems.io import read_mkp, read_qkp


class TestGenerate:
    def test_generate_qkp(self, tmp_path, capsys):
        path = tmp_path / "inst.qkp"
        code = main(["generate-qkp", str(path), "--items", "12",
                     "--density", "0.5", "--seed", "3"])
        assert code == 0
        instance = read_qkp(path)
        assert instance.num_items == 12
        assert "wrote" in capsys.readouterr().out

    def test_generate_mkp(self, tmp_path):
        path = tmp_path / "inst.mkp"
        code = main(["generate-mkp", str(path), "--items", "15",
                     "--knapsacks", "3"])
        assert code == 0
        instance, _ = read_mkp(path)
        assert instance.num_constraints == 3


class TestSolve:
    @pytest.fixture
    def qkp_file(self, tmp_path):
        path = tmp_path / "small.qkp"
        main(["generate-qkp", str(path), "--items", "14", "--seed", "5"])
        return path

    @pytest.fixture
    def mkp_file(self, tmp_path):
        path = tmp_path / "small.mkp"
        main(["generate-mkp", str(path), "--items", "15", "--knapsacks", "2"])
        return path

    def test_solve_saim_qkp(self, qkp_file, capsys):
        code = main(["solve", str(qkp_file), "--solver", "saim",
                     "--iterations", "40", "--mcs", "150"])
        out = capsys.readouterr().out
        assert "SAIM penalty P" in out
        assert code == 0
        assert "best profit" in out

    def test_solve_greedy(self, qkp_file, capsys):
        assert main(["solve", str(qkp_file), "--solver", "greedy"]) == 0
        assert "greedy profit" in capsys.readouterr().out

    def test_solve_exact_small_qkp(self, qkp_file, capsys):
        assert main(["solve", str(qkp_file), "--solver", "exact"]) == 0
        assert "exact optimum" in capsys.readouterr().out

    def test_solve_exact_mkp(self, mkp_file, capsys):
        assert main(["solve", str(mkp_file), "--solver", "exact"]) == 0
        assert "exact optimum" in capsys.readouterr().out

    def test_solve_ga_mkp(self, mkp_file, capsys):
        assert main(["solve", str(mkp_file), "--solver", "ga",
                     "--iterations", "20"]) == 0
        assert "GA best profit" in capsys.readouterr().out

    def test_solve_penalty(self, qkp_file, capsys):
        assert main(["solve", str(qkp_file), "--solver", "penalty",
                     "--iterations", "20", "--mcs", "100"]) == 0
        assert "tuned penalty" in capsys.readouterr().out

    def test_ga_rejects_qkp(self, qkp_file):
        with pytest.raises(SystemExit):
            main(["solve", str(qkp_file), "--solver", "ga"])

    def test_unknown_extension_rejected(self, tmp_path):
        bad = tmp_path / "instance.txt"
        bad.write_text("nonsense")
        with pytest.raises(SystemExit):
            main(["solve", str(bad)])

    def test_solve_parallel_saim(self, qkp_file, capsys):
        code = main(["solve", str(qkp_file), "--solver", "parallel-saim",
                     "--iterations", "40", "--mcs", "120"])
        assert "SAIM penalty P" in capsys.readouterr().out
        assert code in (0, 1)

    def test_explicit_replicas_keep_requested_iterations(self, qkp_file, capsys):
        """--replicas on the plain saim solver must not silently divide the
        user's --iterations (only --solver parallel-saim buys down)."""
        code = main(["solve", str(qkp_file), "--replicas", "4",
                     "--iterations", "40", "--mcs", "120"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert f"({40 * 4 * 120} MCS total)" in out

    def test_solve_backend_option(self, qkp_file, capsys):
        code = main(["solve", str(qkp_file), "--backend", "metropolis",
                     "--iterations", "40", "--mcs", "120"])
        assert "SAIM penalty P" in capsys.readouterr().out
        assert code in (0, 1)

    def test_unknown_backend_rejected_cleanly(self, qkp_file):
        with pytest.raises(SystemExit, match="unknown backend"):
            main(["solve", str(qkp_file), "--backend", "gpu"])

    def test_bad_replicas_rejected_cleanly(self, qkp_file):
        with pytest.raises(SystemExit, match="--replicas must be >= 1"):
            main(["solve", str(qkp_file), "--replicas", "0"])

    def test_solve_saim_pt(self, qkp_file, capsys):
        code = main(["solve", str(qkp_file), "--solver", "saim-pt",
                     "--iterations", "20", "--mcs", "80"])
        assert "SAIM penalty P" in capsys.readouterr().out
        assert code in (0, 1)

    def test_sweep_backends_table(self, qkp_file, capsys):
        code = main(["sweep", str(qkp_file), "--backends", "pbit,metropolis",
                     "--replicas", "1,2", "--iterations", "30",
                     "--mcs", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Solver sweep" in out
        for token in ("method", "backend", "replicas", "best_cost",
                      "feasible_pct", "metropolis", "best:"):
            assert token in out

    def test_sweep_with_workers(self, qkp_file, capsys):
        code = main(["sweep", str(qkp_file), "--backends", "pbit",
                     "--replicas", "1,2", "--workers", "2",
                     "--iterations", "20", "--mcs", "80"])
        assert code == 0
        assert "Solver sweep" in capsys.readouterr().out

    def test_sweep_methods_comparison_table(self, mkp_file, capsys):
        """Acceptance: one table comparing SAIM against the baselines."""
        code = main(["sweep", str(mkp_file), "--methods", "saim,greedy,milp",
                     "--iterations", "25", "--mcs", "80"])
        out = capsys.readouterr().out
        assert code == 0
        for token in ("saim", "greedy", "milp", "best:"):
            assert token in out

    def test_sweep_rejects_unknown_method(self, qkp_file):
        with pytest.raises(SystemExit, match="unknown method"):
            main(["sweep", str(qkp_file), "--methods", "saim,quantum"])

    def test_sweep_rejects_unknown_backend(self, qkp_file):
        with pytest.raises(SystemExit, match="unknown backend"):
            main(["sweep", str(qkp_file), "--backends", "pbit,gpu"])

    def test_sweep_rejects_bad_replicas(self, qkp_file):
        with pytest.raises(SystemExit, match=">= 1"):
            main(["sweep", str(qkp_file), "--replicas", "0,2"])

    def test_sweep_rejects_malformed_replicas(self, qkp_file):
        with pytest.raises(SystemExit, match="malformed"):
            main(["sweep", str(qkp_file), "--replicas", "1,two"])

    def test_info_lists_registries(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for token in ("methods", "backends", "saim", "greedy", "milp",
                      "pbit", "backend-free"):
            assert token in out

    def test_solve_method_greedy(self, qkp_file, capsys):
        assert main(["solve", str(qkp_file), "--method", "greedy"]) == 0
        out = capsys.readouterr().out
        assert "greedy[-]" in out
        assert "best profit" in out

    def test_solve_method_exhaustive(self, qkp_file, capsys):
        assert main(["solve", str(qkp_file), "--method", "exhaustive"]) == 0
        assert "exhaustive[-]" in capsys.readouterr().out

    def test_solve_method_milp_mkp(self, mkp_file, capsys):
        assert main(["solve", str(mkp_file), "--method", "milp"]) == 0
        assert "milp[-]" in capsys.readouterr().out

    def test_solve_method_saim_with_backend(self, qkp_file, capsys):
        code = main(["solve", str(qkp_file), "--method", "saim",
                     "--backend", "metropolis", "--replicas", "2",
                     "--iterations", "30", "--mcs", "100"])
        assert code in (0, 1)
        assert "saim[metropolis]" in capsys.readouterr().out

    def test_method_and_solver_mutually_exclusive(self, qkp_file):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["solve", str(qkp_file), "--method", "greedy",
                  "--solver", "saim"])

    def test_unknown_method_rejected(self, qkp_file):
        with pytest.raises(SystemExit, match="unknown method"):
            main(["solve", str(qkp_file), "--method", "quantum"])

    def test_backend_free_method_rejects_backend_flags(self, qkp_file):
        with pytest.raises(SystemExit, match="backend-free"):
            main(["solve", str(qkp_file), "--method", "greedy",
                  "--backend", "pbit"])
        with pytest.raises(SystemExit, match="backend-free"):
            main(["solve", str(qkp_file), "--method", "greedy",
                  "--replicas", "2"])

    def test_backend_free_method_rejects_budget_flags(self, qkp_file):
        """--iterations/--mcs must not be silently dropped for methods
        that have no annealing budget."""
        with pytest.raises(SystemExit, match="--iterations does not apply"):
            main(["solve", str(qkp_file), "--method", "greedy",
                  "--iterations", "500"])
        with pytest.raises(SystemExit, match="--mcs does not apply"):
            main(["solve", str(qkp_file), "--method", "milp",
                  "--mcs", "200"])

    def test_solve_saim_mkp(self, mkp_file, capsys):
        code = main(["solve", str(mkp_file), "--solver", "saim",
                     "--iterations", "60", "--mcs", "150"])
        out = capsys.readouterr().out
        assert "SAIM penalty P" in out
        # Feasibility is not guaranteed at this tiny budget; both exits valid.
        assert code in (0, 1)


class TestSweepStrategyFlag:
    @pytest.fixture
    def qkp_file(self, tmp_path):
        path = tmp_path / "small.qkp"
        main(["generate-qkp", str(path), "--items", "14", "--seed", "5"])
        return path

    def test_fused_single_cell_grid(self, qkp_file, capsys):
        code = main(["sweep", str(qkp_file), "--backends", "pbit",
                     "--replicas", "1", "--strategy", "fused",
                     "--iterations", "15", "--mcs", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy" in out and "fused" in out

    def test_fused_rejects_heterogeneous_grid(self, qkp_file):
        with pytest.raises(SystemExit, match="shareable"):
            main(["sweep", str(qkp_file), "--backends", "pbit,metropolis",
                  "--strategy", "fused", "--iterations", "10",
                  "--mcs", "60"])

    def test_auto_strategy_runs(self, qkp_file, capsys):
        code = main(["sweep", str(qkp_file), "--backends", "pbit",
                     "--replicas", "1", "--strategy", "auto",
                     "--iterations", "15", "--mcs", "60"])
        assert code == 0
        assert "Solver sweep" in capsys.readouterr().out


class TestPlannerCommands:
    """`plan`, `solve --method auto`, `export-qubo`, and `.qubo` loading."""

    @pytest.fixture
    def qkp_file(self, tmp_path):
        path = tmp_path / "small.qkp"
        main(["generate-qkp", str(path), "--items", "14", "--seed", "5"])
        return path

    def test_plan_heuristic_fallback(self, qkp_file, capsys):
        # The suite env disables the host model (REPRO_PERF_MODEL=""), so
        # the decision degrades to the heuristic ladder rung.
        assert main(["plan", str(qkp_file)]) == 0
        out = capsys.readouterr().out
        assert "features: kind=quadratic n=" in out
        assert "fingerprint=" in out
        assert "plan: backend=pbit kernel=lockstep" in out
        assert "heuristic fallback" in out

    def test_plan_with_model_prints_candidate_table(self, qkp_file, tmp_path,
                                                    capsys):
        from repro.planner import PerfModel

        model_path = tmp_path / "perf_model.json"
        PerfModel({
            "pbit:lockstep:float64": [1.0, 0, 0, 0, 0],
            "chromatic:csr:float64": [1e-9, 0, 0, 0, 0],
        }).save(model_path)
        assert main(["plan", str(qkp_file), "--model-path",
                     str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "plan: backend=chromatic storage=csr" in out
        assert "<- chosen" in out
        assert "chromatic:csr:float64" in out

    def test_plan_missing_model_rejected(self, qkp_file, tmp_path):
        with pytest.raises(SystemExit):
            main(["plan", str(qkp_file), "--model-path",
                  str(tmp_path / "absent.json")])

    def test_solve_method_auto(self, qkp_file, capsys):
        code = main(["solve", str(qkp_file), "--method", "auto",
                     "--iterations", "30", "--mcs", "100"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "auto[" in out
        assert "plan: backend=pbit kernel=lockstep" in out
        assert "(source: heuristic)" in out

    def test_model_path_requires_method_auto(self, qkp_file, tmp_path):
        with pytest.raises(SystemExit, match="--method auto only"):
            main(["solve", str(qkp_file), "--model-path",
                  str(tmp_path / "model.json")])
        with pytest.raises(SystemExit, match="--method auto only"):
            main(["solve", str(qkp_file), "--method", "saim",
                  "--model-path", str(tmp_path / "model.json"),
                  "--iterations", "10", "--mcs", "50"])

    def test_export_qubo_then_solve_round_trip(self, qkp_file, tmp_path,
                                               capsys):
        qubo_path = tmp_path / "small.qubo"
        assert main(["export-qubo", str(qkp_file), str(qubo_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "slack" in out
        assert qubo_path.is_file()

        from repro.ising.qubo_io import read_qubo

        model = read_qubo(qubo_path)
        assert model.num_variables > 14  # decision + slack bits

        code = main(["solve", str(qubo_path), "--method", "auto",
                     "--iterations", "30", "--mcs", "100"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "best objective" in out or "no feasible sample" in out

    def test_export_qubo_rejects_poly(self, tmp_path):
        sat_path = tmp_path / "inst.json"
        main(["generate-max3sat", str(sat_path), "--variables", "12",
              "--clauses", "40", "--seed", "2"])
        with pytest.raises(SystemExit, match="quadratic-only"):
            main(["export-qubo", str(sat_path), str(tmp_path / "out.qubo")])



def _running(pids) -> list[int]:
    """The pids of ``pids`` still running (not exited, not zombies)."""
    alive = []
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        # The state is the first field after the parenthesised command.
        if stat.rsplit(")", 1)[1].split()[0] != "Z":
            alive.append(pid)
    return alive


def _children(pid: int) -> list[int]:
    """Running processes whose parent is ``pid``, read from /proc."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # exited while we looked
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z":
            children.append(int(entry.name))
    return children


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process children from /proc")
class TestServe:
    def test_sigterm_reaps_process_workers(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "--workers",
             "2", "--worker-mode", "process", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        workers = []
        try:
            # The banner prints once the workers run and SIGTERM is handled.
            banner = []
            reader = threading.Thread(
                target=lambda: banner.append(server.stdout.readline()),
                daemon=True,
            )
            reader.start()
            reader.join(timeout=60)
            assert banner and "repro solver service" in banner[0], (
                banner, server.poll()
            )
            workers = _children(server.pid)
            assert len(workers) >= 2
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=60)
            deadline = time.monotonic() + 5.0
            while _running(workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            orphans = _running(workers)
        finally:
            # A failed run must not leak the server or its workers (they
            # also hold the output pipes open).
            for pid in [server.pid, *_running(workers)]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            out, err = server.communicate(timeout=10)
        assert server.returncode == 0, err
        assert "service stopped" in out
        assert orphans == []
