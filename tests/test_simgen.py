"""Factor-model generators: innovation moments, covariance root, streams."""

import math

import numpy as np
import pytest

from groupshap.errors import InvalidCorrelation
from groupshap.simgen import (
    Alternative,
    SimSpec,
    ZModel,
    alternative_mu,
    covariance_root,
    draw_z,
    generate,
    read_simspec_file,
    replication_rng,
    synth_regression,
)
from groupshap.shapley import tree_group_shap
from groupshap.tree import train_gbm

N_DRAWS = 1_000_000


def test_normal_innovations_standardized():
    z = draw_z(ZModel.NORMAL, 1000, 1000, replication_rng(1, 0)).ravel()
    assert abs(z.mean()) <= 4 / math.sqrt(N_DRAWS)
    assert abs(z.var() - 1.0) <= 0.01


def test_symmetric_innovations_unit_variance():
    # t4 has variance 2, so the sqrt(2) scaling normalizes exactly; fourth
    # moments diverge, so only mean and variance are checked
    z = draw_z(ZModel.SYMMETRIC, 1000, 1000, replication_rng(2, 0)).ravel()
    assert abs(z.mean()) <= 5 / math.sqrt(N_DRAWS)
    assert abs(z.var() - 1.0) <= 0.01
    assert abs(np.median(z)) <= 0.005  # symmetry about zero


def test_skewed_innovations_moments():
    z = draw_z(ZModel.SKEWED, 1000, 1000, replication_rng(3, 0)).ravel()
    assert abs(z.mean()) <= 4 / math.sqrt(N_DRAWS)
    assert abs(z.var() - 1.0) <= 0.01
    # skewness of a centered, scaled chisq_1 equals sqrt(8): standardized
    # moments are affine-invariant
    skew = float(np.mean(z**3) / np.mean(z**2) ** 1.5)
    assert abs(skew - math.sqrt(8.0)) <= 0.05


def test_covariance_root_two_by_two():
    root = covariance_root(2, 0.5, 4.0)
    np.testing.assert_allclose(root @ root, [[4.0, 2.0], [2.0, 4.0]], atol=1e-12)


def test_covariance_root_uncorrelated_is_scaled_identity():
    np.testing.assert_allclose(covariance_root(3, 0.0, 4.0), 2.0 * np.eye(3))


@pytest.mark.parametrize("K,rho", [(2, 0.3), (17, 0.8), (500, 0.5)])
def test_covariance_root_reconstruction(K, rho):
    sigma2 = 4.0
    root = covariance_root(K, rho, sigma2)
    target = sigma2 * ((1 - rho) * np.eye(K) + rho * np.ones((K, K)))
    assert np.abs(root @ root - target).max() <= 1e-10


def test_invalid_correlation_rejected():
    with pytest.raises(InvalidCorrelation):
        covariance_root(3, 1.0, 4.0)
    with pytest.raises(InvalidCorrelation):
        SimSpec(rho=1.0)


def test_alternative_mu_patterns():
    sparse = alternative_mu(Alternative.SPARSE, 100, 300)
    assert (sparse != 0).sum() == 1 and sparse[0] == 0.5
    dense = alternative_mu(Alternative.DENSE, 100, 300)
    assert (dense != 0).sum() == 10
    np.testing.assert_allclose(dense[:10], math.sqrt(math.log(100) / 300))
    assert dense[0] == pytest.approx(0.12390, abs=5e-6)
    assert not alternative_mu(Alternative.NULL, 10, 5).any()


def test_generate_is_deterministic():
    spec = SimSpec(model="skewed", K=7, S=20, rho=0.4, seed=99)
    a = generate(spec, 5)
    b = generate(spec, 5)
    np.testing.assert_array_equal(a, b)
    c = generate(spec, 6)
    assert not np.array_equal(a, c)


def test_generate_matches_matrix_root_application():
    spec = SimSpec(model="normal", K=9, S=40, rho=0.6, sigma2=2.5,
                   alternative="sparse", seed=11)
    sample = generate(spec, 3)
    z = draw_z(spec.model, spec.S, spec.K, replication_rng(spec.seed, 3))
    mu = alternative_mu(spec.alternative, spec.K, spec.S)
    expected = mu + z @ covariance_root(spec.K, spec.rho, spec.sigma2)
    np.testing.assert_allclose(sample, expected, atol=1e-10)


@pytest.mark.parametrize("model", ["normal", "symmetric", "skewed"])
def test_block_rows_are_the_single_replications(model):
    # a replication's draws do not depend on the block it is generated in; a
    # block resets one generator per replication, for any 64-bit seed
    for seed in (4, 2**63 + 7, 2**64 - 1):
        spec = SimSpec(model=model, K=6, S=15, rho=0.3, alternative="dense", seed=seed)
        block = generate(spec, 3, 10)
        assert block.shape == (7, 15, 6)
        mu = alternative_mu(spec.alternative, spec.K, spec.S)
        for i in range(7):
            z = draw_z(spec.model, spec.S, spec.K, replication_rng(spec.seed, 3 + i))
            s_small = math.sqrt(spec.sigma2 * (1.0 - spec.rho))
            s_big = math.sqrt(spec.sigma2 * (1.0 - spec.rho + spec.rho * spec.K))
            one = mu + (s_small * z + (s_big - s_small) / spec.K * z.sum(axis=1, keepdims=True))
            assert np.array_equal(block[i], one)
            assert np.array_equal(block[i], generate(spec, 3 + i))


def test_generate_null_column_means_near_zero():
    spec = SimSpec(model="normal", K=3, S=100, rho=0.5, seed=5)
    pooled = np.vstack([generate(spec, r) for r in range(100)])
    se = 2.0 / math.sqrt(pooled.shape[0])  # per-column sd = sigma = 2
    assert np.abs(pooled.mean(axis=0)).max() <= 4 * se * math.sqrt(1 + 0.5 * 2)


def test_pooled_covariance_reconstructs_sigma():
    spec = SimSpec(model="normal", K=4, S=1000, rho=0.5, seed=17)
    pooled = np.vstack([generate(spec, r) for r in range(1000)])
    target = 4.0 * ((1 - 0.5) * np.eye(4) + 0.5)
    sample = np.cov(pooled, rowvar=False)
    assert np.abs(sample / target - 1.0).max() <= 0.02


def test_simspec_config_file(tmp_path):
    path = tmp_path / "spec.cfg"
    path.write_text("model = skewed\nK = 50\ns = 200\nrho = 0.8\n# comment\nreplications = 12\n")
    overrides = read_simspec_file(path)
    assert overrides == {"model": "skewed", "k": 50, "s": 200, "rho": 0.8, "replications": 12}
    bad = tmp_path / "bad.cfg"
    bad.write_text("nope = 3\n")
    with pytest.raises(ValueError):
        read_simspec_file(bad)


def test_synth_regression_grouping_and_determinism():
    data, grouping = synth_regression(120, 4, seed=3)
    assert grouping.n_groups == 4
    assert data.n_features == grouping.n_features
    assert data.y is not None and data.n_rows == 120
    data2, _ = synth_regression(120, 4, seed=3)
    np.testing.assert_array_equal(data.X, data2.X)
    np.testing.assert_array_equal(data.y, data2.y)


def test_synth_regression_null_groups_stay_small():
    # ground truth by construction: only the first two groups drive y
    data, grouping = synth_regression(300, 5, seed=8)
    model = train_gbm(data, n_trees=40, max_depth=3)
    shap = tree_group_shap(model, data.X, grouping)
    mean_abs = np.abs(shap.values).mean(axis=0)
    active = mean_abs[:2]
    null = mean_abs[2:]
    assert null.max() < 0.2 * active.min()
