"""Tests of the benchmark itself, at a tiny size.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import pb_refs  # noqa: E402
import pb_service  # noqa: E402
import pb_solves  # noqa: E402
import run  # noqa: E402
from pb_trace import TARGETS, Tracer  # noqa: E402

TINY_SOLVES = pb_solves.SolveSpec(
    qkp_paper=(10, 12), qkp_indices=(1, 2), qkp_large=14,
    qkp_large_indices=(1,), mkp_items=8, mkp_constraints=2,
    mkp_indices=tuple(range(6)), mkp_widths=(2, 4),
)
TINY_SERVICE = pb_service.ServiceSpec(
    size=12, pool=(1, 2), fresh=tuple(range(3, 40)),
    rates=(("low", 3.0), ("mid", 4.0), ("high", 6.0)), check_sample=2,
)


def tiny_references() -> dict:
    from repro import paper_mkp_instance, paper_qkp_instance
    from repro.baselines.exact_qkp import reference_qkp_optimum
    from repro.baselines.milp import solve_mkp_exact

    keys = [(n, i) for n in (10, 12, 14) for i in (1, 2)]
    keys += [(TINY_SERVICE.size, i) for i in TINY_SERVICE.fresh]
    qkp = {
        pb_refs.qkp_name(n, i): reference_qkp_optimum(
            paper_qkp_instance(n, pb_refs.QKP_DENSITY, i), rng=0)
        for n, i in keys
    }
    mkp = {
        pb_refs.mkp_name(8, 2, i):
        solve_mkp_exact(paper_mkp_instance(8, 2, i)).profit
        for i in TINY_SOLVES.mkp_indices
    }
    return {"qkp": qkp, "mkp": mkp}


@pytest.fixture(scope="module")
def references():
    return tiny_references()


def tiny_run(workload, trace, references, out_dir):
    spec = TINY_SERVICE if workload == "service-open-loop" else TINY_SOLVES
    seconds = 1.5 if workload == "service-open-loop" else 0.2
    return run.run_workload(workload, 3, seconds, trace, out_dir=out_dir,
                            spec=spec, references=references)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_each_workload_emits_every_metric_with_its_unit(
        workload, trace, references, tmp_path):
    result = tiny_run(workload, trace, references, tmp_path)
    record = run.finish(result, trace)
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in record["metrics"].items()} == dict(wanted)
    assert record["correct"], result.check_failures
    assert record["attempted"] >= 1 and record["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())


def _bindings():
    """Every object the tracer may rebind, keyed by where it lives."""
    found = {}
    for module_name, path, _, _ in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            found[(id(owner), attr)] = owner.__dict__[attr]
            continue
        original = getattr(module, path)
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "repro"
                                    or name.startswith("repro.")):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        found[(name, key)] = value
    return found


def test_wrappers_leave_the_patched_functions_identical(references, tmp_path):
    before = _bindings()
    result = pb_solves.run("qkp-paper-r1", 5, 0.2, True, spec=TINY_SOLVES,
                           references=references, out_dir=tmp_path)
    assert result.metrics["ising.pbit.anneal_calls"][0] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    spans = json.loads((tmp_path / "spans-qkp-paper-r1-seed5.json")
                       .read_text())["spans"]
    assert {"api.solve", "core.engine", "ising.pbit.anneal"} <= {
        s["name"] for s in spans}


def test_tracer_refuses_double_install():
    tracer = Tracer()
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.install()


def test_a_failed_output_check_raises_fail_ratio_and_exit_code(
        references, tmp_path, monkeypatch, capsys):
    from repro.problems.qkp import QkpInstance

    honest = QkpInstance.cost
    monkeypatch.setattr(QkpInstance, "cost",
                        lambda self, x: honest(self, x) + 1.0)
    result = pb_solves.run("qkp-paper-r1", 3, 0.2, False, spec=TINY_SOLVES,
                           references=references, out_dir=tmp_path)
    result.put("setup_s", 1.0, "s")
    assert run.emit(result, False) == 1
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not record["correct"]
    assert record["failed"] == record["attempted"] > 0
    assert record["metrics"]["success_pct"]["value"] < 100.0


def test_exits_nonzero_without_a_result_when_the_program_is_missing(
        tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qkp-paper-r1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
