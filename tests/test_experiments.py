"""Monte Carlo driver, ARE, concentration measures, table emission."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshap import experiments
from groupshap.errors import (
    AREUnavailable,
    DegenerateConcentration,
    ShapeError,
)
from groupshap.experiments import (
    are_metric,
    corr_determinant,
    emit_tables,
    format_grid_table,
    grid_specs,
    lorenz_gini,
    run_power_grid,
    run_size_grid,
    write_grid_csv,
)


def test_are_exact_values():
    assert are_metric([0.05, 0.05], 0.05) == 0.0
    assert are_metric([0.06, 0.04], 0.05) == pytest.approx(20.0)


def test_are_excludes_degenerate_and_rejects_empty():
    assert are_metric([None, 0.06], 0.05) == pytest.approx(20.0)
    with pytest.raises(AREUnavailable):
        are_metric([None, None], 0.05)


# --------------------------------------------------------------------------
# Lorenz / Gini


def test_equal_values_give_diagonal_and_zero_gini():
    rep = lorenz_gini(np.full(5, 3.0))
    assert rep.gini == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(rep.lorenz[:, 1], np.linspace(0, 1, 6), atol=1e-12)


def test_two_zeros_one_value_gini():
    # trapezoid area under (0,0),(1/3,0),(2/3,0),(1,1) is 1/6
    rep = lorenz_gini([0.0, 0.0, 1.0])
    assert rep.gini == pytest.approx(2 / 3, abs=1e-12)


def test_single_value_gini_zero():
    assert lorenz_gini([7.0]).gini == pytest.approx(0.0, abs=1e-12)


def test_all_zero_concentration_degenerate():
    with pytest.raises(DegenerateConcentration):
        lorenz_gini([0.0, 0.0])


# Normal floats only: scaling a subnormal rounds it to a coarse grid (c * 5e-324
# is 0 for c < 0.5), so neither the Lorenz curve nor its Gini is scale-invariant
# there, and an all-subnormal input can scale to an all-zero vector.
@given(
    st.lists(st.floats(0.0, 100.0, allow_subnormal=False), min_size=1, max_size=20).filter(
        lambda v: sum(v) > 0
    ),
    st.floats(0.1, 10.0),
)
@settings(max_examples=40, deadline=None)
def test_lorenz_invariants_and_scale_invariance(values, c):
    rep = lorenz_gini(values)
    y = rep.lorenz[:, 1]
    assert rep.lorenz[0, 0] == 0.0 and rep.lorenz[0, 1] == 0.0
    assert rep.lorenz[-1, 0] == 1.0 and rep.lorenz[-1, 1] == pytest.approx(1.0, abs=1e-12)
    assert (np.diff(y) >= -1e-12).all()  # nondecreasing
    assert (np.diff(y, 2) >= -1e-12).all()  # convex ordering (sorted ascending)
    assert 0.0 <= rep.gini <= 1.0
    # power-of-two scalings round-trip bit-exactly; general c to 1 ulp-ish
    assert lorenz_gini(4.0 * np.asarray(values)).gini == rep.gini
    assert lorenz_gini(c * np.asarray(values)).gini == pytest.approx(rep.gini, abs=1e-12)


# --------------------------------------------------------------------------
# correlation determinant


def test_uncorrelated_columns_determinant_near_one(rng):
    m = rng.standard_normal((4000, 3))
    assert corr_determinant(m) == pytest.approx(1.0, abs=0.05)


def test_duplicated_column_kills_determinant(rng):
    a = rng.standard_normal((50, 1))
    m = np.hstack([a, a, rng.standard_normal((50, 1))])
    assert abs(corr_determinant(m)) <= 1e-12


def test_zero_variance_column_is_named():
    m = np.ones((10, 2))
    m[:, 0] = np.arange(10)
    with pytest.raises(DegenerateConcentration, match="grp_b"):
        corr_determinant(m, names=["grp_a", "grp_b"])


def test_more_columns_than_rows_rejected(rng):
    with pytest.raises(ShapeError):
        corr_determinant(rng.standard_normal((3, 5)))


def test_grouping_correlated_triplets_raises_determinant(rng):
    # 6 features in 2 correlated triplets; summing each triplet decorrelates
    lat = rng.standard_normal((300, 2))
    block0 = lat[:, [0]] + 0.4 * rng.standard_normal((300, 3))
    block1 = lat[:, [1]] + 0.4 * rng.standard_normal((300, 3))
    cols = np.hstack([block0, block1])
    grouped = np.column_stack([block0.sum(axis=1), block1.sum(axis=1)])
    assert corr_determinant(grouped) > corr_determinant(cols)


# --------------------------------------------------------------------------
# grids


def _tiny_size_specs(reps=60, seed=42):
    return grid_specs(
        models=["normal"],
        ks=[5, 30],
        ss=[20],
        rhos=[0.2],
        alternative="null",
        replications=reps,
        master_seed=seed,
        alpha=0.05,
    )


def test_size_grid_structure_and_wald_degeneracy():
    result = run_size_grid(_tiny_size_specs(), tests=("wald", "cq", "gs"), master_seed=42)
    assert len(result.cells) == 6  # 2 cells x 3 tests
    wald_small = next(c for c in result.cells if c.test == "wald" and c.K == 5)
    assert wald_small.degenerate_count == 0
    wald_big = next(c for c in result.cells if c.test == "wald" and c.K == 30)
    assert wald_big.degenerate_count == 60  # K >= S in every replication
    assert wald_big.rejection_rate is None
    gs = next(c for c in result.cells if c.test == "gs" and c.K == 5)
    assert gs.rejection_rate == gs.rejections / 60


def test_grid_deterministic_across_schedules(monkeypatch):
    monkeypatch.setattr(experiments, "POOL_MIN_CELL_SIZE", math.inf)
    serial = run_size_grid(_tiny_size_specs(), tests=("cq", "gs"), master_seed=42)
    pools = []

    class Pool(experiments.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(experiments, "POOL_MIN_CELL_SIZE", 0)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", Pool)
    pooled = run_size_grid(_tiny_size_specs(), tests=("cq", "gs"), master_seed=42)
    assert pools == [2]  # two cells, so two threads
    assert serial.cells == pooled.cells


def test_size_grid_requires_null_cells():
    specs = grid_specs(["normal"], [5], [20], [0.2], "sparse", 10, 1)
    with pytest.raises(ValueError):
        run_size_grid(specs)
    with pytest.raises(ValueError):
        run_power_grid(grid_specs(["normal"], [5], [20], [0.2], "null", 10, 1))


def test_power_monotone_in_sample_size_dense():
    # sigma2 = 1 makes the dense shift detectable at these sizes
    reps = 300
    specs = grid_specs(
        ["normal"], [20], [50, 300], [0.5], "dense", reps, 7, sigma2=1.0
    )
    result = run_power_grid(specs, tests=("gs",), master_seed=7)
    low = result.rate("gs", "normal", 20, 50, 0.5, "dense")
    high = result.rate("gs", "normal", 20, 300, 0.5, "dense")
    se = math.sqrt(max(low * (1 - low), high * (1 - high)) / reps)
    assert high >= low - 3 * se


def test_emit_tables_writes_nan_and_best_flags(tmp_path):
    result = run_size_grid(_tiny_size_specs(reps=20), tests=("wald", "cq", "gs"), master_seed=42)
    written = emit_tables(result, tmp_path)
    names = {p.split("/")[-1] for p in written}
    assert names == {"size_table.csv", "size_table.txt", "are.csv"}
    text = (tmp_path / "size_table.txt").read_text()
    assert "NaN" in text  # the K=30 >= S=20 Wald cell
    csv_text = (tmp_path / "size_table.csv").read_text()
    assert "NaN" in csv_text
    are_text = (tmp_path / "are.csv").read_text()
    assert "wald,0.2,NaN" in are_text.replace(" ", "")
    # exactly one best flag per (model, K, S, rho) block
    import csv as csvmod

    with open(tmp_path / "size_table.csv") as fh:
        rows = list(csvmod.DictReader(fh))
    for key in {(r["model"], r["K"], r["S"], r["rho"]) for r in rows}:
        block = [r for r in rows if (r["model"], r["K"], r["S"], r["rho"]) == key]
        assert sum(int(r["best"]) for r in block) == 1


def test_best_flag_marks_size_closest_to_alpha(tmp_path):
    result = run_size_grid(_tiny_size_specs(reps=60), tests=("cq", "gs"), master_seed=42)
    flags_path = tmp_path / "t.csv"
    write_grid_csv(result, flags_path)
    import csv as csvmod

    with open(flags_path) as fh:
        rows = list(csvmod.DictReader(fh))
    for key in {(r["model"], r["K"], r["S"], r["rho"]) for r in rows}:
        block = [r for r in rows if (r["model"], r["K"], r["S"], r["rho"]) == key]
        rated = [(abs(float(r["rejection_rate"]) - 0.05), r) for r in block]
        best_expected = min(rated, key=lambda t: t[0])[1]
        assert best_expected["best"] == "1"


def test_format_grid_table_layout():
    result = run_size_grid(_tiny_size_specs(reps=20), tests=("cq", "gs"), master_seed=42)
    text = format_grid_table(result, tests=("cq", "gs"))
    lines = text.splitlines()
    assert "rho=0.2" in lines[1]
    assert "cq" in lines[2] and "gs" in lines[2]
    assert lines[-1].startswith("ARE")
