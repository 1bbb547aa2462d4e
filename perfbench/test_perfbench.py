"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402  (needs the package sources on the path)
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PRINTED_FIGURES = (
    "setup_s", "wall_s", "reps_per_s", "train_s", "explain_rows_per_s",
    "exact_rows_per_s", "peak_rss_mb", "failed_frac",
)


@pytest.fixture
def bench(tmp_path, monkeypatch, capsys):
    """Run the benchmark in this process at tiny size; return (result, record, stdout)."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 2)

    def go(workload, trace, seed=1):
        rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                       "--trace", str(trace), "--tiny"])
        out = capsys.readouterr().out
        assert rc == 0
        result = json.loads(out.strip().splitlines()[-1])
        record = json.loads((tmp_path / f"{workload}-seed{seed}-trace{trace}.json").read_text())
        return result, record, out

    return go


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_emits_every_metric(bench, workload):
    declared = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for trace in (0, 1):
        result, record, out = bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == declared[trace]
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        env = record["environment"]
        assert env["seed"] == 1 and env["blas_threads_env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert {"numpy", "scipy", "blas", "nproc", "python", "commit"} <= set(env)
    # the summary of an untraced run names every end-to-end figure, n/a or not
    result, _, out = bench(workload, 0)
    for name in PRINTED_FIGURES:
        assert f"  {name} " in out


def test_workload_figures_appear_where_the_workload_runs_them(bench):
    _, record, _ = bench("mc_large", 0)
    figures = record["workload_figures"]
    assert figures["reps_per_s"] > 0 and figures["train_s"] == 0
    _, record, _ = bench("pipeline", 0)
    figures = record["workload_figures"]
    assert figures["reps_per_s"] == 0
    assert min(figures["train_s"], figures["explain_rows_per_s"], figures["exact_rows_per_s"]) > 0


def _corrupt_check(monkeypatch, cls, method, corrupt):
    original = getattr(cls, method)

    def corrupted(self, *args):
        corrupt(self)
        return original(self, *args)

    monkeypatch.setattr(cls, method, corrupted)


def _nan_cell(wl):
    lines = wl.grouped_shap.read_text().splitlines()
    fields = lines[3].split(",")
    fields[2] = "nan"
    lines[3] = ",".join(fields)
    wl.grouped_shap.write_text("\n".join(lines) + "\n")


def _drop_table_row(wl):
    lines = wl.table.read_text().splitlines()
    wl.table.write_text("\n".join(lines[:4] + lines[5:]) + "\n")


def test_nan_attribution_cell_counts_as_failure(bench, monkeypatch):
    def nan_in_grouped(wl):
        if wl.grouped_shap.exists():
            _nan_cell(wl)

    _corrupt_check(monkeypatch, workloads.Pipeline, "check_shap", nan_in_grouped)
    result, record, out = bench("pipeline", 0)
    assert not result["correct"]
    # the warm-up and the measured iteration each lose the grouped explain
    assert result["failed"] == 2
    assert record["failed_frac"] == result["failed"] / result["attempted"]
    assert all("explain_grouped" in f and "non-finite" in f for f in record["failures"])
    assert "FAILED explain_grouped" in out


def test_missing_table_row_counts_as_failure(bench, monkeypatch):
    _corrupt_check(monkeypatch, workloads.MonteCarlo, "check_table", _drop_table_row)
    result, record, _ = bench("mc_small", 0)
    assert result["failed"] == 2 and not result["correct"]
    assert all("missing rows" in f for f in record["failures"])


def test_efficiency_violation_counts_as_failure(tmp_path):
    wl = workloads.make("pipeline", 3, tmp_path, tiny=True)
    wl.generate_inputs()
    clean = run.run_iteration(wl)
    assert clean.failures == []
    lines = wl.exact_shap.read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    lines[1] = ",".join(fields)
    wl.exact_shap.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailed, match="prediction"):
        wl.check_shap(wl.exact_shap, wl.group_names, wl.pred_exact)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_exact_counts_repeat_for_a_seed(bench, workload):
    first, _, _ = bench(workload, 1, seed=5)
    second, record, _ = bench(workload, 1, seed=5)
    for name in tracing.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    layers = record["per_layer"]
    assert layers["trace.valid"] == 1.0
    if workload == "pipeline":
        assert layers["shapley.value_function.calls"] > 0 and layers["tree.train_gbm.nodes"] > 0
        assert layers["simgen.generate.calls"] == 0
    else:
        grid = workloads.TINY_GRIDS[workload]
        assert layers["simgen.generate.calls"] == grid.cells * grid.reps
        assert layers["inference.moments.calls"] == grid.cells * grid.reps
        assert layers["tree.train_gbm.nodes"] == 0
    if workload == "mc_large":  # one S of the two is <= K
        assert layers["inference.wald.degenerate_frac"] == 0.5


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S(0, "outer", None, 0.0, 10.0, 1, None),
        S(1, "a", 0, 1.0, 4.0, 1, None),
        S(2, "a", 0, 3.0, 6.0, 2, None),  # overlaps its sibling on another thread
        S(3, "b", 2, 3.5, 4.5, 2, None),
    ]
    selfs = tracing.self_times(spans)
    assert selfs["outer"] == pytest.approx(5.0)
    assert selfs["a"] == pytest.approx(3.0 + 2.0)
    assert selfs["b"] == pytest.approx(1.0)


def test_span_recording_is_thread_safe():
    tracer = tracing.Tracer()
    calls, threads = 2000, 6
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def worker():
            for _ in range(calls):
                tracer.call("leaf", lambda: None)

        def outer():
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in pool)

        tracer.call("outer", outer)
    finally:
        sys.setswitchinterval(old)
    spans = tracer.take()
    assert len(spans) == threads * calls + 1
    assert len({s.id for s in spans}) == len(spans)
    (root,) = [s for s in spans if s.name == "outer"]
    assert all(s.parent == root.id for s in spans if s.name == "leaf")


def test_installed_names_are_restored():
    from groupshap import cli, experiments, shapley, tree

    before = (cli.train_gbm, experiments.generate, shapley.value_function,
              tree.TreeEnsemble.predict_many)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert cli.train_gbm is not before[0]
            raise RuntimeError
    after = (cli.train_gbm, experiments.generate, shapley.value_function,
             tree.TreeEnsemble.predict_many)
    assert after == before


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert Path(tmp_path / ".bench_out").exists() is False
