"""Statistics: moments, trace estimators, cumulant matching, tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from groupshap.errors import SampleTooSmall, ShapeError
from groupshap.inference import (
    SampleMoments,
    cq_test,
    group_joint_test,
    gs_test,
    moments,
    outcomes_from_moments,
    run_tests_from_moments,
    wald_test,
)
from groupshap.shapley import FeatureGrouping
from groupshap.simgen import SimSpec, generate

from conftest import reference_moments, reference_run_tests

FIVE_POINTS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])[:, None]


def _pairwise_u(phi):
    """Independent oracle: the pairwise mean inner product, two explicit loops."""
    S = phi.shape[0]
    total = 0.0
    for i in range(S):
        for j in range(S):
            if i != j:
                total += float(phi[i] @ phi[j])
    return total / (S * (S - 1))


# --------------------------------------------------------------------------
# moments


def test_moments_hand_example_five_points():
    m = moments(FIVE_POINTS)
    # the fields are in units of phi / scale; the centred peak 2 gives scale 4
    assert m.scale == 4.0
    assert m.cov[0, 0] * m.scale**2 == pytest.approx(2.5)
    assert m.tr1 * m.scale**2 == pytest.approx(2.5)
    # (S-1)^2/((S-2)(S+1)) * (6.25 - 6.25/4) = 8/9 * 4.6875 = 25/6
    assert m.tr2_hat * m.scale**4 == pytest.approx(25 / 6, rel=1e-12)
    # (S-1)^4/((S^2+S-6)(S^2-2S-3)) * (15.625 - 11.71875 + 1.953125) = 8/9 * 375/64
    assert m.tr3_hat * m.scale**6 == pytest.approx(125 / 24, rel=1e-12)


def test_moments_identical_rows_are_flat():
    phi = np.tile([1.0, -2.0, 3.0], (6, 1))
    m = moments(phi)
    np.testing.assert_allclose(m.cov, 0.0, atol=1e-14)
    assert m.tr2_hat == pytest.approx(0.0, abs=1e-14)
    assert m.tr3_hat == pytest.approx(0.0, abs=1e-14)


def test_moments_requires_four_rows():
    with pytest.raises(SampleTooSmall):
        moments(np.ones((3, 2)))


def test_moments_covariance_is_symmetric_and_matches_gram_path(rng):
    phi = rng.normal(size=(10, 25))  # S < K triggers the Gram route
    m = moments(phi)
    assert m.cov is None
    direct = np.cov(phi / m.scale, rowvar=False)  # exact: scale is a power of two
    np.testing.assert_allclose(m.tr1, np.trace(direct), rtol=1e-10)
    np.testing.assert_allclose(m.diag, np.diag(direct), rtol=1e-10)
    # trace statistics agree with the explicit covariance powers
    t2 = np.trace(direct @ direct)
    t3 = np.trace(direct @ direct @ direct)
    S = 10
    np.testing.assert_allclose(
        m.tr2_hat, (S - 1) ** 2 / ((S - 2) * (S + 1)) * (t2 - np.trace(direct) ** 2 / (S - 1)),
        rtol=1e-9,
    )
    np.testing.assert_allclose(
        m.tr3_hat,
        (S - 1) ** 4
        / ((S**2 + S - 6) * (S**2 - 2 * S - 3))
        * (t3 - 3 * np.trace(direct) * t2 / (S - 1) + 2 * np.trace(direct) ** 3 / (S - 1) ** 2),
        rtol=1e-9,
    )


def test_trace_estimators_unbiased_small_mc():
    # oracle: true traces of Sigma = diag(1, 2); full-size check in acceptance.
    # One stack draws the same 20000 samples as 20000 draws of one sample.
    reps = 20000
    root = np.diag([1.0, math.sqrt(2.0)])
    rng = np.random.default_rng(7)
    m = moments(rng.standard_normal((reps, 20, 2)) @ root)
    t2s, t3s = m.tr2_hat * m.scale**4, m.tr3_hat * m.scale**6
    for est, truth in ((t2s, 5.0), (t3s, 9.0)):
        se = est.std(ddof=1) / math.sqrt(reps)
        assert abs(est.mean() - truth) <= 3 * se


# --------------------------------------------------------------------------
# T1, read from the GS report


def test_t1_hand_example():
    rep = gs_test(FIVE_POINTS)
    scale = rep.details["scale"]
    assert rep.details["t1_raw"] * scale**2 == pytest.approx(-0.5)
    assert rep.approx.k2_hat * scale**4 == pytest.approx(2 * (25 / 6) / 20, rel=1e-12)
    assert rep.components["t1_normalized"] == pytest.approx(-math.sqrt(0.6), rel=1e-9)  # -0.77460


def test_t1_antithetic_rows_hit_plugin_floor(rng):
    a = rng.normal(size=(6, 3))
    phi = np.vstack([a, -a])
    m = moments(phi)
    raw = run_tests_from_moments(m, 0.05, ("gs",))[0].details["t1_raw"]
    assert raw == pytest.approx(-m.tr1 / 12, rel=1e-12)


def test_t1_degenerate_on_constant_data():
    # T1 is normalised by tr2_hat = 0: both T1-based reports carry the tag
    for rep in run_tests_from_moments(moments(np.ones((8, 2))), 0.05, ("gs", "cq")):
        assert rep.degenerate == "DegenerateVariance"
        assert rep.p_value is None and rep.reject is None


def test_t1_matches_pairwise_oracle(rng):
    for _ in range(20):
        S = int(rng.integers(4, 12))
        K = int(rng.integers(1, 6))
        phi = rng.normal(size=(S, K)) * rng.uniform(0.5, 3)
        details = gs_test(phi).details
        raw = details["t1_raw"] * details["scale"] ** 2
        oracle = _pairwise_u(phi)
        assert raw == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_t1_zero_mean_under_null():
    # one stack draws the same 4000 samples as 4000 draws of one sample
    rng = np.random.default_rng(3)
    reps = 4000
    (gs,) = outcomes_from_moments(moments(rng.standard_normal((reps, 20, 5))), 0.05, ("gs",))
    raws = gs.extra["t1_raw"]
    se = raws.std(ddof=1) / math.sqrt(reps)
    assert abs(raws.mean()) <= 3 * se


# --------------------------------------------------------------------------
# chi-square approximation, read from the GS report


def _synthetic_moments(S, K, tr2_hat, tr3_hat, mean=None, tr1=0.0):
    mean = np.zeros(K) if mean is None else np.asarray(mean, dtype=float)
    return SampleMoments(
        mean=mean, S=S, tr1=tr1, tr2_hat=tr2_hat, tr3_hat=tr3_hat, diag=np.ones(K)
    )


def _gs(m):
    return run_tests_from_moments(m, 0.05, ("gs",))[0]


def test_cumulant_match_direct_substitution():
    # k2 = 2, k3 = 8 -> beta0 = -1, beta1 = 1, d = 1
    S = 10
    m = _synthetic_moments(S, 4, tr2_hat=S * (S - 1), tr3_hat=S**2 * (S - 1) ** 2 / (8 * (S - 2)) * 8)
    a = _gs(m).approx
    assert a.k2_hat == pytest.approx(2.0, rel=1e-12)
    assert a.k3_hat == pytest.approx(8.0, rel=1e-12)
    assert a.beta0 == pytest.approx(-1.0, rel=1e-12)
    assert a.beta1 == pytest.approx(1.0, rel=1e-12)
    assert a.d == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("S,K", [(10, 3), (50, 20), (301, 7)])
def test_identity_covariance_closed_form(S, K):
    # exact traces of Sigma = I plugged in; closed forms derived by exact
    # fraction arithmetic from the matching equations
    m = _synthetic_moments(S, K, tr2_hat=K, tr3_hat=K)
    a = _gs(m).approx
    k2 = Fraction(2 * K, S * (S - 1))
    k3 = Fraction(8 * (S - 2) * K, S**2 * (S - 1) ** 2)
    assert a.beta0 == pytest.approx(float(-2 * k2**2 / k3), rel=1e-12)
    assert a.beta1 == pytest.approx(float(k3 / (4 * k2)), rel=1e-12)
    assert a.d == pytest.approx(float(8 * k2**3 / k3**2), rel=1e-12)
    # simplified forms
    assert a.beta0 == pytest.approx(-K / (S - 2), rel=1e-12)
    assert a.beta1 == pytest.approx((S - 2) / (S * (S - 1)), rel=1e-12)
    assert a.d == pytest.approx(K * S * (S - 1) / (S - 2) ** 2, rel=1e-12)


def test_back_substitution_reproduces_cumulants(rng):
    for _ in range(20):
        phi = rng.normal(size=(rng.integers(5, 40), rng.integers(1, 8)))
        a = gs_test(phi).approx
        if a.normal_fallback:
            continue
        assert 2 * a.beta1**2 * a.d == pytest.approx(a.k2_hat, rel=1e-12)
        assert 8 * a.beta1**3 * a.d == pytest.approx(a.k3_hat, rel=1e-12)
        assert a.beta0 + a.beta1 * a.d == pytest.approx(0.0, abs=1e-12 * abs(a.beta0))
        assert (a.beta1 > 0) == (a.k3_hat > 0)


def test_skewless_fallback():
    a = _gs(_synthetic_moments(10, 2, tr2_hat=5.0, tr3_hat=0.0)).approx
    assert a.normal_fallback
    assert math.isinf(a.d)


# --------------------------------------------------------------------------
# T0, read from the GS report


def test_t0_cutoff_numbers():
    rep = _gs(_synthetic_moments(300, 100, tr2_hat=1.0, tr3_hat=1.0))
    # the cutoff is 9 delta
    assert rep.details["screen_cutoff"] / 9 == pytest.approx(13.961, abs=5e-4)
    assert rep.details["screen_cutoff"] == pytest.approx(125.65, abs=5e-3)
    assert rep.components["t0"] == 0.0


def test_t0_single_extreme_coordinate():
    mean = np.zeros(100)
    mean[0] = 3.0
    rep = _gs(_synthetic_moments(300, 100, tr2_hat=1.0, tr3_hat=1.0, mean=mean))
    # h = 300 * 9 / 1 = 2700 above the cutoff; T0 = sqrt(100) * 2700
    assert rep.details["n_screened"] == 1
    assert rep.components["t0"] == pytest.approx(27000.0, rel=1e-12)


def test_t0_skips_zero_variance_coordinates():
    mean = np.array([1.0, 0.0])
    m = SampleMoments(
        mean=mean, S=50, tr1=1.0, tr2_hat=1.0, tr3_hat=1.0, diag=np.array([0.0, 1.0])
    )
    rep = _gs(m)
    assert rep.details.get("skipped_coordinates", ()) == (0,)
    assert rep.components["t0"] == 0.0


def test_t0_positive_cutoff_at_k_equal_one():
    # ln K would vanish at K = 1; the screen must keep a positive cutoff
    m = _synthetic_moments(100, 1, tr2_hat=1.0, tr3_hat=1.0)
    assert _gs(m).details["screen_cutoff"] > 10.0


# --------------------------------------------------------------------------
# gs / wald / cq reports


def test_gs_formula_reference_point():
    # T0 = 0, normalized T1 = 0, d = 1, so 1 + sqrt(2) T ~ F(1, S-1) = t_{S-1}^2.
    # S = 10: p = P(t_9^2 >= 1) = 2 P(t_9 >= 1) = 0.3434 and
    # c = (t_{9,0.975}^2 - 1)/sqrt(2) = 2.9114, both from the t law.
    # S = 10^6, the chi-square limit: p = P(chi2_1 >= 1), c = (3.8415-1)/sqrt(2).
    t9_p = 2.0 * stats.t.sf(1.0, 9)
    t9_c = (stats.t.isf(0.025, 9) ** 2 - 1.0) / math.sqrt(2.0)
    assert (round(t9_p, 4), round(t9_c, 4)) == (0.3434, 2.9114)
    for S, p_ref, c_ref in ((10, t9_p, t9_c), (10**6, 0.3173, 2.0092)):
        m = _synthetic_moments(
            S, 4, tr2_hat=S * (S - 1), tr3_hat=S**2 * (S - 1) ** 2 / (S - 2), tr1=0.0
        )
        rep = run_tests_from_moments(m, 0.05, ("gs",))[0]
        assert rep.approx.d == pytest.approx(1.0, rel=1e-12)
        assert rep.statistic == pytest.approx(0.0, abs=1e-15)
        assert rep.p_value == pytest.approx(p_ref, abs=5e-5)
        assert rep.critical_value == pytest.approx(c_ref, abs=5e-5)
        assert rep.reject is False


def test_gs_falls_back_to_normal_when_f_quantile_is_not_finite():
    # k2 = 2 and k3 = 8e-9 give d = 8 k2^3 / k3^2 = 1e18, where the F(d, 49 d)
    # quantile is nan; the d -> infinity limit, N(0, 1), takes over
    S, K = 50, 100
    m = _synthetic_moments(
        S, K, tr2_hat=S * (S - 1), tr3_hat=1e-9 * S**2 * (S - 1) ** 2 / (S - 2),
        mean=np.full(K, math.sqrt(2.0 * math.sqrt(2.0) / K)),
    )
    rep = run_tests_from_moments(m, 0.05, ("gs",))[0]
    assert rep.approx.d == pytest.approx(1e18, rel=1e-9)
    assert rep.approx.normal_fallback and rep.details["normal_fallback"]
    assert rep.statistic == pytest.approx(2.0, rel=1e-12)
    assert rep.critical_value == pytest.approx(stats.norm.isf(0.05), rel=1e-12)
    assert rep.p_value == pytest.approx(stats.norm.sf(2.0), rel=1e-12)
    assert rep.reject is True


def test_gs_decision_consistency(rng):
    for _ in range(30):
        phi = rng.normal(size=(rng.integers(6, 40), rng.integers(1, 8)))
        alpha = float(rng.uniform(0.01, 0.2))
        rep = gs_test(phi, alpha)
        assert rep.reject == (rep.statistic >= rep.critical_value)
        assert rep.reject == (rep.p_value <= alpha)


def test_gs_null_size_small_grid():
    rng = np.random.default_rng(12)
    reps = 2000
    rejects = sum(gs_test(rng.standard_normal((50, 10)), 0.05).reject for _ in range(reps))
    assert 0.035 <= rejects / reps <= 0.065


def test_gs_sparse_shift_fires_screen():
    rng = np.random.default_rng(4)
    phi = rng.standard_normal((300, 100))
    phi[:, 0] += 3.0
    rep = gs_test(phi, 0.05)
    assert rep.components["t0"] > 0
    assert rep.reject


def test_gs_degenerate_on_constant_data():
    rep = gs_test(np.ones((6, 3)), 0.05)
    assert rep.degenerate == "DegenerateVariance"
    assert rep.p_value is None and rep.reject is None


def test_wald_degenerate_when_k_at_least_s(rng):
    rep = wald_test(rng.normal(size=(10, 10)), 0.05)
    assert rep.degenerate == "SingularCovariance"
    rep = wald_test(rng.normal(size=(10, 25)), 0.05)
    assert rep.degenerate == "SingularCovariance"


def test_wald_degenerate_on_collinear_columns(rng):
    a = rng.normal(size=(30, 1))
    rep = wald_test(np.hstack([a, a]), 0.05)
    assert rep.degenerate == "SingularCovariance"


def test_wald_k1_matches_t_test(rng):
    # oracle: two-sided one-sample t test
    agree = 0
    for i in range(300):
        x = rng.normal(loc=rng.choice([0.0, 0.6]), size=12)
        rep = wald_test(x[:, None], 0.05)
        t = stats.ttest_1samp(x, 0.0)
        assert rep.p_value == pytest.approx(t.pvalue, rel=1e-10)
        agree += rep.reject == (t.pvalue <= 0.05)
    assert agree == 300


def test_wald_reports_eq5_statistic(rng):
    phi = rng.normal(size=(40, 3))
    m_mean = phi.mean(0)
    cov = np.cov(phi, rowvar=False)
    expected = float(m_mean @ np.linalg.solve(cov, m_mean)) / math.sqrt(40)
    rep = wald_test(phi, 0.05)
    assert rep.statistic == pytest.approx(expected, rel=1e-9)
    assert rep.reject == (rep.p_value <= 0.05) == (rep.statistic >= rep.critical_value)


def test_cq_antithetic_rows_never_reject(rng):
    a = rng.normal(size=(8, 4))
    rep = cq_test(np.vstack([a, -a]), 0.5)
    assert rep.statistic < 0
    assert not rep.reject


def test_cq_statistic_is_normalized_u(rng):
    phi = rng.normal(size=(15, 3))
    rep = cq_test(phi, 0.05)
    assert rep.statistic == pytest.approx(gs_test(phi).components["t1_normalized"], rel=1e-12)
    u = rep.details["u_statistic"] * rep.details["scale"] ** 2
    assert u == pytest.approx(_pairwise_u(phi), rel=1e-10)


# --------------------------------------------------------------------------
# calibration: the tests call scipy.special kernels, scipy.stats is the oracle


def test_gs_calibration_equals_scipy_stats_bit_for_bit():
    rng = np.random.default_rng(20250106)
    for _ in range(400):
        S, K = int(rng.integers(4, 400)), int(rng.integers(1, 60))
        alpha = float(10 ** rng.uniform(-6, math.log10(0.5)))
        # k2 and d drawn directly; k3 follows from d = 8 k2^3 / k3^2
        k2, d = float(10 ** rng.uniform(-3, 3)), float(10 ** rng.uniform(-1, 8))
        k3 = rng.choice([-1.0, 1.0]) * math.sqrt(8.0 * k2**3 / d)
        m = _synthetic_moments(
            S, K, tr2_hat=k2 * S * (S - 1) / 2, tr3_hat=k3 * S**2 * (S - 1) ** 2 / (8 * (S - 2)),
            mean=rng.normal(scale=float(10 ** rng.uniform(-2, 0.5)), size=K),
            tr1=float(rng.uniform(0.0, 3.0 * K)),
        )
        rep = run_tests_from_moments(m, alpha, ("gs",))[0]
        d_hat, dfd = rep.approx.d, (S - 1) * rep.approx.d
        assert not rep.approx.normal_fallback
        f_crit = stats.f.isf(alpha, d_hat, dfd)
        assert rep.critical_value == (f_crit - 1.0) * math.sqrt(d_hat / 2.0)
        x = 1.0 + math.sqrt(2.0 / d_hat) * rep.statistic
        assert rep.p_value == stats.f.sf(x, d_hat, dfd)
        assert rep.reject == (rep.p_value <= alpha)


def test_gs_p_value_is_one_where_f_argument_is_not_positive():
    # d = 1, k2 = 2, mean 0 and tr1 = 30 at S = 10: T = -3 / sqrt(2), so the
    # F argument 1 + sqrt(2) T = -2 lies below the support of F(1, 9)
    S = 10
    m = _synthetic_moments(
        S, 4, tr2_hat=S * (S - 1), tr3_hat=S**2 * (S - 1) ** 2 / (S - 2), tr1=30.0
    )
    rep = run_tests_from_moments(m, 0.05, ("gs",))[0]
    assert 1.0 + math.sqrt(2.0 / rep.approx.d) * rep.statistic == pytest.approx(-2.0)
    assert rep.p_value == 1.0 == stats.f.sf(-2.0, 1.0, 9.0)
    assert rep.reject is False


def test_wald_and_cq_calibration_equal_scipy_stats_bit_for_bit():
    rng = np.random.default_rng(20250107)
    for _ in range(300):
        S = int(rng.integers(5, 80))
        K = int(rng.integers(1, S))
        alpha = float(10 ** rng.uniform(-6, math.log10(0.5)))
        phi = rng.normal(loc=rng.normal(scale=0.5, size=K), size=(S, K))
        m = moments(phi)
        wald = run_tests_from_moments(m, alpha, ("wald",))[0]
        assert wald.degenerate is None
        dfn, dfd = wald.details["df"]
        assert wald.p_value == stats.f.sf(wald.details["f_statistic"], dfn, dfd)
        crit = stats.f.isf(alpha, dfn, dfd) * K * (S - 1) / ((S - K) * S**1.5)
        assert wald.critical_value == crit
        cq = run_tests_from_moments(m, alpha, ("cq",))[0]
        assert cq.critical_value == stats.norm.isf(alpha)
        assert cq.p_value == stats.norm.sf(cq.statistic)


# --------------------------------------------------------------------------
# per-group testing


def test_single_feature_group_joint_equals_reduced(rng):
    shap = rng.normal(size=(30, 3))
    grouping = FeatureGrouping([("a", [0]), ("b", [1]), ("c", [2])], 3)
    joint = group_joint_test(shap, grouping, mode="joint")
    reduced = group_joint_test(shap, grouping, mode="reduced")
    for j, r in zip(joint, reduced):
        assert j.statistic == pytest.approx(r.statistic, rel=1e-12)
        assert j.p_value == pytest.approx(r.p_value, rel=1e-12)


def test_null_group_rejection_rate_near_alpha():
    rng = np.random.default_rng(9)
    grouping = FeatureGrouping([("g", [0, 1, 2])], 3)
    alpha = 0.1
    reps = 600
    hits = 0
    for _ in range(reps):
        reports = group_joint_test(rng.standard_normal((60, 3)), grouping, alpha=alpha)
        hits += reports[0].reject
    rate = hits / reps
    se = math.sqrt(alpha * (1 - alpha) / reps)
    assert abs(rate - alpha) <= 3.5 * se


def test_joint_detects_sparse_column_reduced_does_not():
    rng = np.random.default_rng(1)
    shap = rng.standard_normal((200, 100))
    shap[:, 0] += 0.5  # one shifted column among 100
    grouping = FeatureGrouping([("g", list(range(100)))], 100)
    (joint,) = group_joint_test(shap, grouping, alpha=0.05, mode="joint")
    (reduced,) = group_joint_test(shap, grouping, alpha=0.05, mode="reduced")
    assert joint.reject
    assert not reduced.reject
    assert joint.p_value < reduced.p_value


@pytest.mark.parametrize("test", [gs_test, cq_test, wald_test], ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_cell_is_rejected(test, bad):
    phi = np.random.default_rng(4).normal(size=(20, 3))
    phi[7, 1] = bad
    with pytest.raises(ShapeError, match="non-finite"):
        test(phi)
    name = test.__name__.removesuffix("_test")
    with pytest.raises(ShapeError, match="non-finite"):
        group_joint_test(phi, FeatureGrouping.singletons(3), tests=(name,))


def test_group_joint_requires_enough_rows():
    grouping = FeatureGrouping([("g", [0])], 1)
    with pytest.raises(SampleTooSmall):
        group_joint_test(np.ones((3, 1)), grouping)


# --------------------------------------------------------------------------
# invariances


@given(st.floats(0.1, 50.0), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_scale_invariance_of_decisions(c, seed):
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=(12, 4))
    for fn in (gs_test, cq_test, wald_test):
        a = fn(phi, 0.05)
        b = fn(c * phi, 0.05)
        assert b.statistic == pytest.approx(a.statistic, rel=1e-9, abs=1e-9)
        assert b.p_value == pytest.approx(a.p_value, rel=1e-9, abs=1e-12)
        assert b.reject == a.reject


@pytest.mark.parametrize(
    "scale,S",
    [
        *(pytest.param(s, 30, id=str(s)) for s in (1e-100, 1e-40, 1e30, 1e60, 1e100, 1e160)),
        # column sums that overflow unless the sample is divided before its mean
        pytest.param(1e307, 300, id="300x3-1e+307"),
        pytest.param(7e307, 30, id="30x3-peak-1.7e+308"),
    ],
)
def test_scale_outside_the_float_range_is_degenerate_not_an_error(scale, S):
    # moments divides such a sample by a power of two, which is exact, so
    # every test gives the unit-scale result
    unit = np.random.default_rng(5).normal(size=(S, 3))
    phi = unit * scale
    m, m_unit = moments(phi), moments(unit)
    # scale is the power of two that brings the centred peak into [0.5, 1),
    # or into [0.5, 4) where it is clamped at 2^1023
    for x, sample in ((m, phi), (m_unit, unit)):
        mantissa, _ = math.frexp(x.scale)
        spread = np.abs(sample / x.scale - x.mean).max()
        assert mantissa == 0.5 and 0.5 <= spread < (4.0 if x.scale == 2.0**1023 else 1.0)
    gs, gs_unit = (run_tests_from_moments(x, 0.05, ("gs",))[0] for x in (m, m_unit))
    t1, t1_unit = (rep.components["t1_normalized"] for rep in (gs, gs_unit))
    assert math.isclose(t1, t1_unit, rel_tol=1e-9)
    assert math.isclose(gs.approx.d, gs_unit.approx.d, rel_tol=1e-9)
    grouping = FeatureGrouping.singletons(3)
    want = group_joint_test(unit, grouping, tests=ALL_TESTS)
    got = group_joint_test(phi, grouping, tests=ALL_TESTS)
    for rep, ref in zip(got, want):
        assert rep.degenerate is None, (rep.test, rep.group)
        for name in ("statistic", "p_value"):
            assert math.isclose(getattr(rep, name), getattr(ref, name), rel_tol=1e-9)
    # GS and CQ name the scale of their raw fields on every report
    both = got + want
    assert [("scale" in rep.details) for rep in both] == [rep.test != "wald" for rep in both]
    assert gs_test(phi).details["scale"] == cq_test(phi).details["scale"] == m.scale


@pytest.mark.parametrize("seed,S,K", [(5, 30, 3), (1, 12, 4), (2, 50, 20), (3, 300, 5), (4, 8, 1)])
def test_every_scale_is_degenerate_or_the_unit_scale_result(seed, S, K):
    # all three tests are scale invariant: a report at 10^k is that of the
    # same sample divided by an exact power of two to unit spread (a
    # subnormal sample is a different sample from the unit-scale one)
    phi = np.random.default_rng(seed).normal(size=(S, K))
    scales = 10.0 ** np.arange(-323, 308)
    stack = phi * scales[:, None, None]
    stacked = outcomes_from_moments(moments(stack), 0.05, ALL_TESTS)
    for r, sample in enumerate(stack):
        exponent = math.frexp(np.abs(sample).max())[1]
        want = run_tests_from_moments(moments(np.ldexp(sample, -exponent)), 0.05, ALL_TESTS)
        for o, ref in zip(stacked, want):
            rep = o.report(r)
            assert ref.degenerate is None
            assert rep.degenerate is None, (o.test, scales[r])
            for name in ("statistic", "p_value"):
                got = getattr(rep, name)
                assert math.isclose(got, getattr(ref, name), rel_tol=1e-9), (o.test, scales[r], name)


def test_scale_stays_finite_at_the_top_of_the_float_range(rng):
    # one entry above 2^1023, where 2^1024 would overflow to inf
    phi = rng.normal(size=(30, 3))
    phi[0, 0] = 1.7e308
    assert moments(phi).scale == 2.0**1023
    for test in (gs_test, cq_test):
        rep, ref = test(phi), test(np.ldexp(phi, -1000))
        assert rep.details["scale"] == 2.0**1023
        assert math.isclose(rep.statistic, ref.statistic, rel_tol=1e-9)


@pytest.mark.parametrize("S,K", [(30, 3), (12, 20)])
def test_every_power_of_two_scale_gives_the_same_bits(S, K):
    # moments divides sample * 2^k by the same powers of two, times 2^k, as
    # the sample itself, so every test sees the same normalised numbers
    phi = np.random.default_rng(S * K).normal(size=(S, K))
    k = np.arange(-900, 901)
    stack = np.ldexp(phi, k[:, None, None].astype(np.intc))
    want = outcomes_from_moments(moments(phi), 0.05, ALL_TESTS)
    for o, ref in zip(outcomes_from_moments(moments(stack), 0.05, ALL_TESTS), want):
        assert np.array_equal(o.flag, np.full(len(k), ref.flag))
        for name in ("statistic", "critical_value", "p_value"):
            got, one = getattr(o, name), getattr(ref, name)
            assert np.array_equal(got, np.full(len(k), one), equal_nan=True), (o.test, name)
    unit = run_tests_from_moments(moments(phi), 0.05, ALL_TESTS)
    for r in (0, 450, 900, 1350, 1800):  # one sample at a time, as the CLI runs it
        for rep, ref in zip(run_tests_from_moments(moments(stack[r]), 0.05, ALL_TESTS), unit):
            assert (rep.statistic, rep.critical_value, rep.p_value, rep.degenerate) == (
                ref.statistic, ref.critical_value, ref.p_value, ref.degenerate
            )


def test_spread_tiny_beside_the_level_is_not_lost():
    # a constant column at 2^-30 and two columns of noise 2^-302 below it:
    # the centred sample is normalised on its own peak, so the noise keeps
    # its bits and GS and CQ give the result of the sample times 2^664
    rng = np.random.default_rng(11)
    phi = np.empty((300, 3))
    phi[:, 0] = 2.0**-30
    phi[:, 1:] = np.ldexp(rng.normal(size=(300, 2)), -332)
    for test in (gs_test, cq_test):
        rep, ref = test(phi), test(np.ldexp(phi, 664))
        assert rep.degenerate is None and ref.degenerate is None
        assert (rep.statistic, rep.critical_value, rep.p_value) == (
            ref.statistic, ref.critical_value, ref.p_value
        )
        assert rep.details["scale"] == np.ldexp(ref.details["scale"], -664)
    # with the noise 2^-634 below the level, the squared mean norm is about
    # 2^1268 times the spread: the spread is seen, and the statistic, too
    # large for a float, is an infinite one that rejects
    phi[:, 1:] = np.ldexp(phi[:, 1:], -332)
    for test in (gs_test, cq_test):
        rep = test(phi)
        assert rep.degenerate is None and rep.reject
        assert (rep.statistic, rep.p_value) == (math.inf, 0.0)
        assert math.isfinite(rep.critical_value)


def test_columns_2_to_the_600_apart_leave_wald_singular(rng):
    # the small column's squares underflow to zero at the large column's
    # scale: its variance is 0, so the covariance is singular, while GS and
    # CQ test the sample's spread, all of it in the large column
    phi = rng.normal(size=(40, 2))
    phi[:, 1] = np.ldexp(phi[:, 1], -600)
    gs, wald, cq = run_tests_from_moments(moments(phi), 0.05, ALL_TESTS)
    assert gs.degenerate is None and cq.degenerate is None
    assert math.isfinite(gs.statistic) and math.isfinite(cq.statistic)
    assert gs.details["skipped_coordinates"] == (1,)
    assert wald.degenerate == "SingularCovariance"
    unit = run_tests_from_moments(moments(phi[:, :1]), 0.05, ("cq",))[0]
    assert math.isclose(cq.statistic, unit.statistic, rel_tol=1e-9)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=(10, 5))
    rows = rng.permutation(10)
    cols = rng.permutation(5)
    for fn in (gs_test, cq_test, wald_test):
        a = fn(phi, 0.05)
        b = fn(phi[rows], 0.05)
        assert b.statistic == pytest.approx(a.statistic, rel=1e-9)
    for fn in (gs_test, cq_test):
        a = fn(phi, 0.05)
        b = fn(phi[:, cols], 0.05)
        assert b.statistic == pytest.approx(a.statistic, rel=1e-9)


# --------------------------------------------------------------------------
# stacked kernel against the one-sample reference

ALL_TESTS = ("gs", "wald", "cq")


def _assert_stack_matches_reference(stack, alpha=0.05):
    """One call on the R-stack, and each sample as a stack of one, give the
    reference's tags and, where a test ran, its exact numbers."""
    outcomes = outcomes_from_moments(moments(stack), alpha, ALL_TESTS)
    refs = [reference_run_tests(reference_moments(phi), alpha, ALL_TESTS) for phi in stack]
    for j, o in enumerate(outcomes):
        ref = [row[j] for row in refs]
        assert [o.report(r).degenerate for r in range(len(stack))] == [
            r.degenerate for r in ref
        ], o.test
        ran = o.flag == 0
        for name in ("statistic", "critical_value", "p_value", "reject"):
            want = [getattr(r, name) for r in ref if r.degenerate is None]
            assert np.array_equal(getattr(o, name)[ran], np.array(want, dtype=float)), (o.test, name)
    for phi, ref in zip(stack, refs):
        reports = run_tests_from_moments(moments(phi), alpha, ALL_TESTS)
        for rep, r in zip(reports, ref):
            assert (rep.degenerate, rep.statistic, rep.critical_value, rep.p_value, rep.reject) == (
                r.degenerate, r.statistic, r.critical_value, r.p_value, r.reject
            )


@pytest.mark.parametrize("model", ["normal", "symmetric", "skewed"])
@pytest.mark.parametrize("K,S", [(20, 50), (5, 300), (1, 12), (25, 10), (40, 40)])
def test_stacked_kernel_matches_reference_bit_for_bit(model, K, S):
    # K < S takes the covariance branch, K >= S the Gram branch
    spec = SimSpec(model=model, K=K, S=S, rho=0.5, seed=17)
    _assert_stack_matches_reference(generate(spec, 0, 12))


def test_stacked_kernel_isolates_singular_samples(rng):
    stack = rng.normal(size=(9, 30, 4))
    stack[3, :, 3] = stack[3, :, 1]  # collinear columns: condition number
    stack[4, :, 2] = 1.5  # a constant column: no Cholesky factor
    stack[6] = 2.0  # constant: no variance at all
    _assert_stack_matches_reference(stack)
    gs, wald, cq = outcomes_from_moments(moments(stack), 0.05, ALL_TESTS)
    singular = "SingularCovariance"
    assert [wald.report(r).degenerate for r in range(9)] == (
        [None] * 3 + [singular] * 2 + [None, singular, None, None]
    )
    assert gs.report(6).degenerate == cq.report(6).degenerate == "DegenerateVariance"
    assert wald.report(4).details["reason"] == "covariance not positive definite"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stacked_kernel_matches_reference_across_float_range():
    # the matrix of test_scale_outside_the_float_range_is_degenerate_not_an_error,
    # at every power of ten
    scales = 10.0 ** np.arange(-323, 308)
    stack = np.random.default_rng(5).normal(size=(30, 3)) * scales[:, None, None]
    _assert_stack_matches_reference(stack)


@pytest.mark.parametrize("R,S,K", [(5, 50, 20), (3, 12, 30), (2, 300, 100), (2, 60, 500)])
def test_stacked_products_are_exactly_symmetric(R, S, K):
    # moments relies on this: it takes the traces and the Cholesky factor of
    # the Gram or covariance product without symmetrizing it
    centered = np.random.default_rng(R * S * K).normal(size=(R, S, K))
    transposed = centered.transpose(0, 2, 1)
    for a in (centered @ transposed, transposed @ centered):
        assert np.array_equal(a, a.transpose(0, 2, 1))
    for c in centered:  # one sample, as a block of one runs it
        for a in (c @ c.T, c.T @ c):
            assert np.array_equal(a, a.T)
    m = moments(centered)
    if m.cov is not None:
        assert np.array_equal(m.cov, m.cov.transpose(0, 2, 1))


@pytest.mark.parametrize("fn", [gs_test, cq_test, wald_test])
def test_one_sample_tests_reject_a_stack(fn):
    # a stack's reports would be those of its first sample alone
    stack = np.random.default_rng(3).normal(size=(3, 30, 4))
    with pytest.raises(ShapeError):
        fn(stack)
    with pytest.raises(ShapeError):
        run_tests_from_moments(moments(stack), 0.05, ALL_TESTS)
