"""Acceptance criteria: one test per criterion, one PASS/FAIL line each.

The Monte Carlo regressions share a module-scoped 27-cell null grid
(three innovation models x {20,100,500} x {50,300,600} at rho = 0.5,
2000 replications) plus 18 extra Gaussian cells at rho = 0.2 and 0.8.
"""

import math

import numpy as np
import pytest
from scipy import stats

from groupshap.cli import pipeline_demo
from groupshap.experiments import (
    are_metric,
    grid_specs,
    lorenz_gini,
    run_power_grid,
    run_size_grid,
)
from groupshap.inference import cq_test, gs_test, moments, outcomes_from_moments, wald_test
from groupshap.shapley import FeatureGrouping, base_value, exact_group_shapley, tree_group_shap
from groupshap.simgen import SimSpec, ZModel, draw_z, generate, replication_rng

from conftest import random_ensemble, random_partition, random_stump_ensemble

MASTER_SEED = 20250809
GRID_REPS = 2000
ALPHA = 0.05
MODELS = ["normal", "symmetric", "skewed"]
KS = [20, 100, 500]
SS = [50, 300, 600]

# reference empirical sizes (in %) for the GS statistic at rho = 0.5
REFERENCE_SIZE = {
    ("normal", 20, 300): 5.16,
    ("normal", 100, 50): 5.30,
    ("normal", 500, 300): 5.69,
    ("symmetric", 20, 300): 5.34,
    ("symmetric", 100, 50): 5.78,
    ("symmetric", 500, 300): 5.02,
    ("skewed", 20, 300): 5.47,
    ("skewed", 100, 50): 5.08,
    ("skewed", 500, 300): 5.09,
}

# reference empirical power (in %) for normal, K=100, S=300, rho=0.5
REFERENCE_POWER_SPARSE = {"wald": 52.25, "cq": 50.31, "gs": 68.44}
REFERENCE_POWER_DENSE = {"wald": 93.50, "cq": 94.50, "gs": 92.86}


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def rho05_grid():
    specs = grid_specs(MODELS, KS, SS, [0.5], "null", GRID_REPS, MASTER_SEED, ALPHA)
    return run_size_grid(specs, tests=("wald", "cq", "gs"), master_seed=MASTER_SEED)


@pytest.fixture(scope="module")
def gaussian_side_grid():
    specs = grid_specs(["normal"], KS, SS, [0.2, 0.8], "null", GRID_REPS, MASTER_SEED + 1, ALPHA)
    return run_size_grid(specs, tests=("gs",), master_seed=MASTER_SEED + 1)


def test_criterion_1_size_regression(rho05_grid):
    """GS size within +-1.5pp of the reference at nine anchor cells; Wald
    degenerate whenever K >= S."""
    failures = []
    for (model, K, S), target in REFERENCE_SIZE.items():
        rate = 100.0 * rho05_grid.rate("gs", model, K, S, 0.5)
        ok = abs(rate - target) <= 1.5
        _report(
            f"criterion 1 [{model} K={K} S={S}]",
            ok,
            f"gs size {rate:.2f}% vs reference {target:.2f}% (tolerance 1.5pp)",
        )
        if not ok:
            failures.append((model, K, S, rate, target))
    for model in MODELS:
        for K in KS:
            for S in SS:
                if K >= S:
                    cell = next(
                        c for c in rho05_grid.cells
                        if c.test == "wald" and c.model == model and c.K == K and c.S == S
                    )
                    ok = cell.rejection_rate is None and cell.degenerate_count == GRID_REPS
                    if not ok:
                        failures.append((model, K, S, "wald not degenerate"))
    _report("criterion 1 [wald degeneracy]", not any(len(f) == 4 and f[3] == "wald not degenerate" for f in failures),
            "all K >= S cells degenerate")
    assert not failures, f"size regression failures: {failures}"


def test_criterion_2_power_ordering():
    """Power at normal/K=100/S=300/rho=0.5, 1000 replications, against the
    reference table. Wald's Hotelling-F power rises with S mu' Sigma^-1 mu; the
    reference rows need about 33.7 (sparse) and 70.1 (dense), but
    simgen.alternative_mu gives a dense/sparse ratio of at most 0.62 for every
    sigma2 and rho, and the screen's 9 delta cannot drop to delta (it would fire
    in 17-23% of null replications), so this criterion fails as stated."""
    reps = 1000
    tests = ("wald", "cq", "gs")
    sparse_specs = grid_specs(["normal"], [100], [300], [0.5], "sparse", reps, MASTER_SEED + 2, ALPHA)
    dense_specs = grid_specs(["normal"], [100], [300], [0.5], "dense", reps, MASTER_SEED + 3, ALPHA)
    result = run_power_grid(sparse_specs + dense_specs, tests=tests, master_seed=MASTER_SEED + 2)
    failures = []

    sparse = {t: 100.0 * result.rate(t, "normal", 100, 300, 0.5, "sparse") for t in tests}
    ok = abs(sparse["gs"] - REFERENCE_POWER_SPARSE["gs"]) <= 5.0
    _report("criterion 2 [sparse gs level]", ok,
            f"gs power {sparse['gs']:.2f}% vs reference {REFERENCE_POWER_SPARSE['gs']}% (tolerance 5pp)")
    if not ok:
        failures.append(("sparse gs", sparse["gs"]))
    ok = sparse["gs"] > sparse["cq"]
    _report("criterion 2 [sparse gs > cq]", ok,
            f"gs {sparse['gs']:.2f}% vs cq {sparse['cq']:.2f}% (reference cq {REFERENCE_POWER_SPARSE['cq']}%)")
    if not ok:
        failures.append(("sparse ordering", sparse["gs"], sparse["cq"]))

    dense = {t: 100.0 * result.rate(t, "normal", 100, 300, 0.5, "dense") for t in tests}
    for t in tests:
        ok = abs(dense[t] - REFERENCE_POWER_DENSE[t]) <= 5.0
        _report(f"criterion 2 [dense {t}]", ok,
                f"{t} power {dense[t]:.2f}% vs reference {REFERENCE_POWER_DENSE[t]}% (tolerance 5pp)")
        if not ok:
            failures.append((f"dense {t}", dense[t]))
    assert not failures, f"power regression failures: {failures}"


def test_criterion_3_are(rho05_grid):
    """GS column ARE over the 27-cell rho=0.5 grid inside [5, 13] and
    strictly below the CQ column's ARE."""
    gs_are = are_metric(rho05_grid.column("gs", 0.5), ALPHA)
    cq_are = are_metric(rho05_grid.column("cq", 0.5), ALPHA)
    ok_band = 5.0 <= gs_are <= 13.0
    ok_order = gs_are < cq_are
    _report("criterion 3 [gs ARE band]", ok_band, f"gs ARE {gs_are:.2f} in [5, 13]")
    _report("criterion 3 [gs < cq ARE]", ok_order, f"gs {gs_are:.2f} vs cq {cq_are:.2f}")
    assert ok_band and ok_order


def test_criterion_4_oracle_equivalence():
    """Path attribution equals exact enumeration on stump ensembles; both
    satisfy row efficiency on depth-3 ensembles."""
    rng = np.random.default_rng(MASTER_SEED)
    worst_gap = 0.0
    for _ in range(50):
        n_features = int(rng.integers(2, 9))
        n_groups = int(rng.integers(1, min(6, n_features) + 1))
        model = random_stump_ensemble(rng, n_features, int(rng.integers(1, 7)))
        grouping = FeatureGrouping(random_partition(rng, n_features, n_groups), n_features)
        x = rng.uniform(size=n_features)
        tree_phi = tree_group_shap(model, [x], grouping).values[0]
        exact_phi = exact_group_shapley(model, x, grouping).values[0]
        worst_gap = max(worst_gap, float(np.abs(tree_phi - exact_phi).max()))
    ok_stumps = worst_gap <= 1e-9
    _report("criterion 4 [stump agreement]", ok_stumps, f"max |tree - exact| = {worst_gap:.3g}")

    worst_eff = 0.0
    for _ in range(50):
        n_features = int(rng.integers(2, 7))
        model = random_ensemble(rng, n_features, int(rng.integers(1, 5)), 3)
        grouping = FeatureGrouping(
            random_partition(rng, n_features, int(rng.integers(1, n_features + 1))), n_features
        )
        x = rng.uniform(size=n_features)
        pred = model.predict_many(x)[0]
        base = base_value(model)
        tree_phi = tree_group_shap(model, [x], grouping)
        worst_eff = max(
            worst_eff,
            abs(float(tree_phi.values[0].sum() + tree_phi.base_values[0]) - pred),
            abs(float(exact_group_shapley(model, x, grouping).values[0].sum()) + base - pred),
        )
    ok_eff = worst_eff <= 1e-8
    _report("criterion 4 [efficiency]", ok_eff, f"max |sum(phi) + base - prediction| = {worst_eff:.3g}")
    assert ok_stumps and ok_eff


def test_criterion_5_identity_suite():
    """Pairwise identity of the raw statistic, cumulant back-substitution,
    and Monte Carlo unbiasedness of the trace estimators."""
    rng = np.random.default_rng(MASTER_SEED + 10)
    worst_rel = 0.0
    for _ in range(100):
        S = int(rng.integers(4, 30))
        K = int(rng.integers(1, 10))
        phi = rng.normal(size=(S, K)) * rng.uniform(0.2, 5.0)
        details = gs_test(phi).details
        raw = details["t1_raw"] * details["scale"] ** 2
        total = 0.0
        for i in range(S):
            for j in range(S):
                if i != j:
                    total += float(phi[i] @ phi[j])
        oracle = total / (S * (S - 1))
        worst_rel = max(worst_rel, abs(raw - oracle) / max(abs(oracle), 1e-30))
    ok_identity = worst_rel <= 1e-10
    _report("criterion 5 [pairwise identity]", ok_identity, f"max relative gap {worst_rel:.3g}")

    worst_resid = 0.0
    for _ in range(100):
        phi = rng.normal(size=(int(rng.integers(5, 40)), int(rng.integers(1, 8))))
        a = gs_test(phi).approx
        if a.normal_fallback:
            continue
        worst_resid = max(
            worst_resid,
            abs(2 * a.beta1**2 * a.d - a.k2_hat) / abs(a.k2_hat),
            abs(8 * a.beta1**3 * a.d - a.k3_hat) / abs(a.k3_hat),
        )
    ok_match = worst_resid <= 1e-12
    _report("criterion 5 [cumulant match]", ok_match, f"max back-substitution residual {worst_resid:.3g}")

    reps, block = 100_000, 10_000
    S = 50
    root = np.diag([1.0, math.sqrt(2.0)])
    t2s = np.empty(reps)
    t3s = np.empty(reps)
    mc = np.random.default_rng(MASTER_SEED + 11)
    # a block of stacked samples draws what as many single draws would
    for start in range(0, reps, block):
        m = moments(mc.standard_normal((block, S, 2)) @ root)
        t2s[start:start + block] = m.tr2_hat * m.scale**4
        t3s[start:start + block] = m.tr3_hat * m.scale**6
    ok_mc = True
    for est, truth, label in ((t2s, 5.0, "tr2"), (t3s, 9.0, "tr3")):
        se = est.std(ddof=1) / math.sqrt(reps)
        gap = abs(est.mean() - truth)
        ok = gap <= 3 * se
        _report(f"criterion 5 [{label} unbiased]", ok,
                f"mean {est.mean():.5f} vs {truth} (|gap| {gap:.5f} <= 3se {3 * se:.5f})")
        ok_mc &= ok
    assert ok_identity and ok_match and ok_mc


def test_criterion_6_null_calibration():
    """Kolmogorov distance between the null normalized statistic and its
    fitted shifted-scaled chi-square reference, Gaussian data, K=50, S=100."""
    K, S, reps, block = 50, 100, 10_000, 500
    spec = SimSpec(model="normal", K=K, S=S, rho=0.0, sigma2=4.0, seed=MASTER_SEED + 20)
    tns = np.empty(reps)
    ds = np.empty(reps)
    # replications start .. start + block - 1 as one stack, as the grid runs them
    for start in range(0, reps, block):
        phi = generate(spec, start, start + block)
        (gs,) = outcomes_from_moments(moments(phi), ALPHA, ("gs",))
        tns[start:start + block] = gs.extra["t1_normalized"]
        ds[start:start + block] = gs.extra["d"]
    d_fit = float(np.median(ds))
    x = np.sort(tns)
    ref = stats.chi2.cdf(d_fit + math.sqrt(2 * d_fit) * x, d_fit)
    n = len(x)
    ks = max(
        float(np.abs(np.arange(1, n + 1) / n - ref).max()),
        float(np.abs(np.arange(0, n) / n - ref).max()),
    )
    ok = ks <= 0.02
    _report("criterion 6 [null calibration]", ok, f"KS distance {ks:.4f} <= 0.02 (fitted d {d_fit:.1f})")
    assert ok


def test_criterion_7_properties(rho05_grid, gaussian_side_grid):
    """Invariances, concentration invariants, generator moments, determinism,
    constructed-data concentration analogues, and Gaussian size bands."""
    rng = np.random.default_rng(MASTER_SEED + 30)
    ok_all = True

    # scale and permutation invariance of the decision statistics
    worst = 0.0
    for _ in range(20):
        phi = rng.normal(size=(15, 4))
        c = float(rng.uniform(0.2, 9.0))
        rows = rng.permutation(15)
        cols = rng.permutation(4)
        for fn in (gs_test, cq_test, wald_test):
            a, b = fn(phi, ALPHA), fn(c * phi, ALPHA)
            worst = max(worst, abs(a.statistic - b.statistic), abs(a.p_value - b.p_value))
            r = fn(phi[rows], ALPHA)
            worst = max(worst, abs(a.statistic - r.statistic))
        for fn in (gs_test, cq_test):
            a, p = fn(phi, ALPHA), fn(phi[:, cols], ALPHA)
            worst = max(worst, abs(a.statistic - p.statistic))
    ok = worst <= 1e-8
    _report("criterion 7 [invariances]", ok, f"max statistic drift {worst:.3g}")
    ok_all &= ok

    # concentration invariants
    rep_eq = lorenz_gini([2.0, 2.0, 2.0])
    rep_101 = lorenz_gini([0.0, 0.0, 1.0])
    ok = (
        abs(rep_eq.gini) <= 1e-12
        and abs(rep_101.gini - 2 / 3) <= 1e-12
        and rep_101.lorenz[0].tolist() == [0.0, 0.0]
        and rep_101.lorenz[-1].tolist() == [1.0, 1.0]
    )
    _report("criterion 7 [lorenz/gini]", ok, "diagonal, (0,0,1) -> 2/3, endpoints")
    ok_all &= ok

    # generator moments at one million draws per model
    ok_gen = True
    for model, check in (
        (ZModel.NORMAL, lambda z: abs(z.mean()) < 0.004 and abs(z.var() - 1) < 0.01),
        (ZModel.SYMMETRIC, lambda z: abs(z.mean()) < 0.005 and abs(z.var() - 1) < 0.01),
        (ZModel.SKEWED, lambda z: abs(z.var() - 1) < 0.01
         and abs(float(np.mean(z**3) / np.mean(z**2) ** 1.5) - math.sqrt(8)) < 0.05),
    ):
        z = draw_z(model, 1000, 1000, replication_rng(MASTER_SEED + 31, 0)).ravel()
        ok_gen &= bool(check(z))
    _report("criterion 7 [generator moments]", ok_gen, "mean/variance/skewness at 1e6 draws")
    ok_all &= ok_gen

    # determinism under seed
    spec = SimSpec(model="skewed", K=6, S=30, rho=0.4, seed=MASTER_SEED)
    ok = np.array_equal(generate(spec, 7), generate(spec, 7))
    demo_a = pipeline_demo(seed=11, n=250, n_groups=5)
    demo_b = pipeline_demo(seed=11, n=250, n_groups=5)
    ok &= demo_a == demo_b
    _report("criterion 7 [determinism]", ok, "generator and demo reproduce under fixed seed")
    ok_all &= ok

    # constructed-data concentration analogues
    ok = demo_a["gini_group"] < demo_a["gini_individual"]
    _report("criterion 7 [grouped gini < individual]", ok,
            f"{demo_a['gini_group']:.3f} < {demo_a['gini_individual']:.3f}")
    ok_all &= ok
    ok = demo_a["det_group"] > demo_a["det_individual"]
    _report("criterion 7 [grouped corr det > individual]", ok,
            f"{demo_a['det_group']:.3f} > {demo_a['det_individual']:.3f}")
    ok_all &= ok

    # Gaussian empirical size inside [3.5, 6.5] for every grid cell
    rates = [
        (c.K, c.S, c.rho, 100.0 * c.rejection_rate)
        for grid in (rho05_grid, gaussian_side_grid)
        for c in grid.cells
        if c.test == "gs" and c.model == "normal"
    ]
    bad = [r for r in rates if not 3.5 <= r[3] <= 6.5]
    ok = not bad and len(rates) == 27
    _report("criterion 7 [gaussian size bands]", ok,
            f"{len(rates)} cells in [3.5, 6.5]" + (f"; violations {bad}" if bad else ""))
    ok_all &= ok

    assert ok_all
