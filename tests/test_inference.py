"""Statistics: moments, trace estimators, cumulant matching, tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from groupshap.errors import DegenerateVariance, SampleTooSmall, ShapeError
from groupshap.inference import (
    SampleMoments,
    chi_sq_approx,
    cq_test,
    group_joint_test,
    gs_test,
    moments,
    outcomes_from_moments,
    run_tests_from_moments,
    t0_statistic,
    t1_statistic,
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
    assert m.cov[0, 0] == pytest.approx(2.5)
    assert m.tr1 == pytest.approx(2.5)
    # (S-1)^2/((S-2)(S+1)) * (6.25 - 6.25/4) = 8/9 * 4.6875 = 25/6
    assert m.tr2_hat == pytest.approx(25 / 6, rel=1e-12)
    # (S-1)^4/((S^2+S-6)(S^2-2S-3)) * (15.625 - 11.71875 + 1.953125) = 8/9 * 375/64
    assert m.tr3_hat == pytest.approx(125 / 24, rel=1e-12)


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
    direct = np.cov(phi, rowvar=False)
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
    # oracle: true traces of Sigma = diag(1, 2); full-size check in acceptance
    reps = 20000
    root = np.diag([1.0, math.sqrt(2.0)])
    rng = np.random.default_rng(7)
    t2s = np.empty(reps)
    t3s = np.empty(reps)
    for r in range(reps):
        phi = rng.standard_normal((20, 2)) @ root
        m = moments(phi)
        t2s[r] = m.tr2_hat
        t3s[r] = m.tr3_hat
    for est, truth in ((t2s, 5.0), (t3s, 9.0)):
        se = est.std(ddof=1) / math.sqrt(reps)
        assert abs(est.mean() - truth) <= 3 * se


# --------------------------------------------------------------------------
# T1


def test_t1_hand_example():
    t1 = t1_statistic(moments(FIVE_POINTS))
    assert t1.raw == pytest.approx(-0.5)
    assert t1.k2_hat == pytest.approx(2 * (25 / 6) / 20, rel=1e-12)
    assert t1.normalized == pytest.approx(-math.sqrt(0.6), rel=1e-9)  # -0.77460


def test_t1_antithetic_rows_hit_plugin_floor(rng):
    a = rng.normal(size=(6, 3))
    phi = np.vstack([a, -a])
    m = moments(phi)
    assert t1_statistic(m).raw == pytest.approx(-m.tr1 / 12, rel=1e-12)


def test_t1_degenerate_on_constant_data():
    with pytest.raises(DegenerateVariance):
        t1_statistic(moments(np.ones((8, 2))))


def test_t1_matches_pairwise_oracle(rng):
    for _ in range(20):
        S = int(rng.integers(4, 12))
        K = int(rng.integers(1, 6))
        phi = rng.normal(size=(S, K)) * rng.uniform(0.5, 3)
        raw = t1_statistic(moments(phi)).raw
        oracle = _pairwise_u(phi)
        assert raw == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_t1_zero_mean_under_null():
    rng = np.random.default_rng(3)
    reps = 4000
    raws = np.empty(reps)
    for r in range(reps):
        raws[r] = t1_statistic(moments(rng.standard_normal((20, 5)))).raw
    se = raws.std(ddof=1) / math.sqrt(reps)
    assert abs(raws.mean()) <= 3 * se


# --------------------------------------------------------------------------
# chi-square approximation


def _synthetic_moments(S, K, tr2_hat, tr3_hat, mean=None, tr1=0.0):
    mean = np.zeros(K) if mean is None else np.asarray(mean, dtype=float)
    return SampleMoments(
        mean=mean, S=S, tr1=tr1, tr2_hat=tr2_hat, tr3_hat=tr3_hat, diag=np.ones(K)
    )


def test_cumulant_match_direct_substitution():
    # k2 = 2, k3 = 8 -> beta0 = -1, beta1 = 1, d = 1
    S = 10
    m = _synthetic_moments(S, 4, tr2_hat=S * (S - 1), tr3_hat=S**2 * (S - 1) ** 2 / (8 * (S - 2)) * 8)
    a = chi_sq_approx(m)
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
    a = chi_sq_approx(m)
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
        a = chi_sq_approx(moments(phi))
        if a.normal_fallback:
            continue
        assert 2 * a.beta1**2 * a.d == pytest.approx(a.k2_hat, rel=1e-12)
        assert 8 * a.beta1**3 * a.d == pytest.approx(a.k3_hat, rel=1e-12)
        assert a.beta0 + a.beta1 * a.d == pytest.approx(0.0, abs=1e-12 * abs(a.beta0))
        assert (a.beta1 > 0) == (a.k3_hat > 0)


def test_skewless_fallback():
    a = chi_sq_approx(_synthetic_moments(10, 2, tr2_hat=5.0, tr3_hat=0.0))
    assert a.normal_fallback
    assert math.isinf(a.d)


# --------------------------------------------------------------------------
# T0


def test_t0_cutoff_numbers():
    m = _synthetic_moments(300, 100, tr2_hat=1.0, tr3_hat=1.0)
    t0 = t0_statistic(m)
    assert t0.delta == pytest.approx(13.961, abs=5e-4)
    assert t0.cutoff == pytest.approx(125.65, abs=5e-3)
    assert t0.value == 0.0


def test_t0_single_extreme_coordinate():
    mean = np.zeros(100)
    mean[0] = 3.0
    m = _synthetic_moments(300, 100, tr2_hat=1.0, tr3_hat=1.0, mean=mean)
    t0 = t0_statistic(m)
    # h = 300 * 9 / 1 = 2700 above the cutoff; T0 = sqrt(100) * 2700
    assert t0.n_screened == 1
    assert t0.value == pytest.approx(27000.0, rel=1e-12)


def test_t0_skips_zero_variance_coordinates():
    mean = np.array([1.0, 0.0])
    m = SampleMoments(
        mean=mean, S=50, tr1=1.0, tr2_hat=1.0, tr3_hat=1.0, diag=np.array([0.0, 1.0])
    )
    t0 = t0_statistic(m)
    assert t0.skipped == (0,)
    assert t0.value == 0.0


def test_t0_positive_cutoff_at_k_equal_one():
    # ln K would vanish at K = 1; the screen must keep a positive cutoff
    m = _synthetic_moments(100, 1, tr2_hat=1.0, tr3_hat=1.0)
    assert t0_statistic(m).cutoff > 10.0


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
    m = moments(phi)
    t1 = t1_statistic(m)
    assert rep.statistic == pytest.approx(t1.normalized, rel=1e-12)
    assert rep.details["u_statistic"] == pytest.approx(_pairwise_u(phi), rel=1e-10)


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


@pytest.mark.parametrize("scale", [1e-100, 1e-40, 1e30, 1e60, 1e100, 1e160])
def test_scale_outside_the_float_range_is_degenerate_not_an_error(scale):
    # GS cumulants are degree 6 in phi: they underflow or overflow first
    phi = np.random.default_rng(5).normal(size=(30, 3)) * scale
    assert gs_test(phi).degenerate == "FloatRange"
    m = moments(phi)
    with pytest.raises(OverflowError):
        chi_sq_approx(m)
    # T1's variance is degree 4: normal floats from about 1e-77 to 1e77
    if 1e-75 < scale < 1e75:
        t1 = t1_statistic(m)
        assert all(map(math.isfinite, (t1.raw, t1.normalized, t1.k2_hat)))
    else:
        with pytest.raises(OverflowError):
            t1_statistic(m)
    for rep in group_joint_test(phi, FeatureGrouping.singletons(3), tests=("gs", "wald", "cq")):
        assert rep.degenerate or math.isfinite(rep.statistic) and math.isfinite(rep.p_value)


@pytest.mark.parametrize("seed,S,K", [(5, 30, 3), (1, 12, 4), (2, 50, 20), (3, 300, 5), (4, 8, 1)])
def test_every_scale_is_degenerate_or_the_unit_scale_result(seed, S, K):
    # all three tests are scale invariant: a report at 10^k either matches the
    # unit-scale one or says that the sample left the float range
    phi = np.random.default_rng(seed).normal(size=(S, K))
    scales = 10.0 ** np.arange(-323, 308)
    unit = run_tests_from_moments(moments(phi), 0.05, ALL_TESTS)
    stacked = outcomes_from_moments(moments(phi * scales[:, None, None]), 0.05, ALL_TESTS)
    for want, o in zip(unit, stacked):
        assert want.degenerate is None and o.flag[scales == 1.0] == 0
        for r in np.flatnonzero(o.flag == 0):
            for name in ("statistic", "p_value"):
                got = float(getattr(o, name)[r])
                assert math.isclose(got, getattr(want, name), rel_tol=1e-9), (o.test, scales[r], name)


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
    _assert_stack_matches_reference(generate(spec, 0, 12).phi)


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
