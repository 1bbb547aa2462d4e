"""Significance tests for attribution matrices.

The main test adds a screening term for sparse signals to a trace-normalized
quadratic statistic and calibrates it against a three-cumulant chi-square
match. Because the normalizing variance is itself estimated, the matched
chi2_d / d is replaced by the studentized F(d, (S-1) d), which tends to it as
S grows. Classical Hotelling/Wald and the trace-normalized normal-reference
test are included as baselines. All statistics are functions of the sample
moments, so one moments pass feeds every test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import linalg, special

from .errors import DegenerateVariance, SampleTooSmall, ShapeError
from .shapley import FeatureGrouping

WALD_MIN_RCOND = 1e-13


class SampleMoments:
    """Mean, covariance and trace statistics of an S x K sample.

    tr2_hat and tr3_hat are the unbiased estimates of tr(Sigma^2) and
    tr(Sigma^3). The trace statistics only need the smaller of the K x K
    covariance and the S x S Gram matrix, so cov is None when S <= K, where
    Wald is degenerate and nothing reads it.
    """

    def __init__(self, mean, S, tr1, tr2_hat, tr3_hat, diag, cov=None):
        self.mean = np.asarray(mean, dtype=float)
        self.S = int(S)
        self.K = self.mean.shape[0]
        self.tr1 = float(tr1)
        self.tr2_hat = float(tr2_hat)
        self.tr3_hat = float(tr3_hat)
        self.diag = np.asarray(diag, dtype=float)
        self.cov = cov


def _as_phi(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if phi.ndim == 1:
        phi = phi[:, None]
    if phi.ndim != 2:
        raise ShapeError(f"expected an S x K matrix, got ndim={phi.ndim}")
    if not np.isfinite(phi).all():
        raise ShapeError("attribution matrix holds a non-finite value")
    return phi


def moments(phi) -> SampleMoments:
    """Sample mean, covariance (divisor S-1) and unbiased trace estimates.

    The tr(Sigma^3) estimator's constant has roots at S=3, hence S >= 4.
    """
    phi = _as_phi(phi)
    S, K = phi.shape
    if S <= 3:
        raise SampleTooSmall(f"need S >= 4 observations, got {S}")
    mean = phi.mean(axis=0)
    centered = phi - mean
    diag = (centered * centered).sum(axis=0) / (S - 1)
    # traces on the smaller of the S x S Gram and the K x K covariance matrix:
    # both have the same nonzero spectrum
    gram = S <= K
    a = (centered @ centered.T if gram else centered.T @ centered) / (S - 1)
    a = (a + a.T) / 2.0
    tr1 = float(np.trace(a))
    t2 = float((a * a).sum())
    t3 = float(((a @ a) * a).sum())
    try:
        tr2_hat = (S - 1) ** 2 / ((S - 2) * (S + 1)) * (t2 - tr1**2 / (S - 1))
        tr3_hat = (
            (S - 1) ** 4
            / ((S**2 + S - 6) * (S**2 - 2 * S - 3))
            * (t3 - 3 * tr1 * t2 / (S - 1) + 2 * tr1**3 / (S - 1) ** 2)
        )
    except OverflowError:  # tr1 beyond the float range when cubed
        tr2_hat = tr3_hat = math.nan
    return SampleMoments(
        mean=mean,
        S=S,
        tr1=tr1,
        tr2_hat=tr2_hat,
        tr3_hat=tr3_hat,
        diag=diag,
        cov=None if gram else a,
    )


@dataclass
class T1Stat:
    raw: float  # ||mean||^2 - tr(cov)/S == mean pairwise inner product
    normalized: float  # raw / sqrt(estimated null variance)
    k2_hat: float


def t1_statistic(m: SampleMoments) -> T1Stat:
    """Trace-centered squared mean norm, plus its variance-normalized form.

    raw equals the pairwise U-statistic [S(S-1)]^-1 sum_{i!=j} phi_i' phi_j
    identically; the centering tr(cov)/S makes its null expectation zero.
    """
    raw = float(m.mean @ m.mean) - m.tr1 / m.S
    k2 = 2.0 * m.tr2_hat / (m.S * (m.S - 1))
    if k2 <= 0.0:
        raise DegenerateVariance("estimated null variance is not positive")
    return T1Stat(raw=raw, normalized=raw / math.sqrt(k2), k2_hat=k2)


@dataclass
class ChiSqApprox:
    """Parameters of the matched reference beta0 + beta1 * chisq(d)."""

    beta0: float
    beta1: float
    d: float
    k2_hat: float
    k3_hat: float
    normal_fallback: bool = False


def chi_sq_approx(m: SampleMoments) -> ChiSqApprox:
    """Match the first three null cumulants to a shifted, scaled chi-square.

    k3 = 0 (no estimated skewness) degrades to the normal reference, the
    d -> infinity limit; the fallback is recorded on the result.
    """
    k2 = 2.0 * m.tr2_hat / (m.S * (m.S - 1))
    if k2 <= 0.0:
        raise DegenerateVariance("estimated null variance is not positive")
    k3 = 8.0 * (m.S - 2) * m.tr3_hat / (m.S**2 * (m.S - 1) ** 2)
    if k3 == 0.0:
        return ChiSqApprox(
            beta0=math.nan,
            beta1=math.nan,
            d=math.inf,
            k2_hat=k2,
            k3_hat=k3,
            normal_fallback=True,
        )
    beta0 = -2.0 * k2**2 / k3
    beta1 = k3 / (4.0 * k2)
    d = 8.0 * k2**3 / k3**2
    return ChiSqApprox(beta0=beta0, beta1=beta1, d=d, k2_hat=k2, k3_hat=k3)


@dataclass
class T0Stat:
    """Screening sum of studentized squared means above the sparse cutoff."""

    value: float
    delta: float
    cutoff: float
    n_screened: int
    skipped: tuple[int, ...]  # zero-variance coordinates left out


def t0_statistic(m: SampleMoments) -> T0Stat:
    if m.S <= math.e:
        raise SampleTooSmall("screening cutoff needs S >= 3")
    # ln K floored at ln 2: at K = 1 the literal cutoff would be zero and the
    # screen would fire on any data, destroying the null calibration.
    delta = math.log(math.log(m.S)) ** 2 * math.log(max(m.K, 2))
    cutoff = 9.0 * delta
    positive = m.diag > 0.0
    skipped = tuple(int(i) for i in np.nonzero(~positive)[0])
    h = np.zeros(m.K)
    h[positive] = m.S * m.mean[positive] ** 2 / m.diag[positive]
    fired = positive & (h >= cutoff)
    value = math.sqrt(m.K) * float(h[fired].sum())
    return T0Stat(
        value=value,
        delta=delta,
        cutoff=cutoff,
        n_screened=int(fired.sum()),
        skipped=skipped,
    )


@dataclass
class TestReport:
    """Outcome of one significance test on one attribution matrix."""

    test: str
    alpha: float
    statistic: float | None = None
    critical_value: float | None = None
    p_value: float | None = None
    reject: bool | None = None
    components: dict = field(default_factory=dict)
    approx: ChiSqApprox | None = None
    degenerate: str | None = None
    group: str | None = None
    details: dict = field(default_factory=dict)


def _degenerate_report(test: str, alpha: float, tag: str, **details) -> TestReport:
    return TestReport(test=test, alpha=alpha, degenerate=tag, details=details)


def gs_test(phi, alpha: float = 0.05) -> TestReport:
    """Screened, trace-normalized test with chi-square-matched calibration.

    The statistic x = T0 + T1/sqrt(k2_hat) is referred, through
    1 + sqrt(2/d) x, to F(d, (S-1) d), where d is the three-cumulant chi-square
    match; _gs_from_moments derives the denominator degrees of freedom. As
    S -> infinity the reference tends to chi2_d / d, i.e. x to
    (chi2_d - d)/sqrt(2 d).
    """
    return run_tests_from_moments(moments(phi), alpha, ("gs",))[0]


def _gs_from_moments(m: SampleMoments, alpha: float) -> TestReport:
    """GS report from precomputed moments.

    With k2 known, the matched null law of the normalized U-statistic T is
    (chi2_d - d)/sqrt(2 d), so 1 + sqrt(2/d) T ~ chi2_d / d. But T divides by
    sqrt(k2_hat), and k2_hat is built from tr2_hat: T is studentized, and the
    chi-square reference ignores the noise of its denominator. When d is small
    that noise is large: with one dominant eigenvalue lambda of Sigma (d -> 1),
    phi_i ~ sqrt(lambda) z_i v, tr2_hat ~ lambda^2 s^4 (S-1)/(S+1) with s^2 the
    sample variance of the z_i, and 1 + sqrt(2) T = 1 + (t^2 - 1) sqrt((S+1)/S)
    with t = sqrt(S) zbar / s ~ t_{S-1}; so 1 + sqrt(2) T ~ F(1, S-1) up to
    O(1/S), not chi2_1. Reading d as the number of equally weighted directions,
    tr2_hat pools S-1 degrees of freedom from each, so the denominator carries
    (S-1) d of them, and 1 + sqrt(2/d) T is referred to F(d, (S-1) d). The
    numerator d is still the three-cumulant match; as S -> infinity the
    reference tends to chi2_d / d. As d -> infinity at fixed S it tends to
    N(0, S/(S-1)) on the T scale, slightly conservative where d is large.
    The critical value and p-value are mapped back to the T scale, so
    reject <=> statistic >= critical_value.
    """
    try:
        t1 = t1_statistic(m)
        approx = chi_sq_approx(m)
    except DegenerateVariance as exc:
        return _degenerate_report("gs", alpha, "DegenerateVariance", reason=str(exc))
    t0 = t0_statistic(m)
    stat = t0.value + t1.normalized
    if not approx.normal_fallback:
        d = approx.d
        dfd = (m.S - 1) * d
        f_crit = float(special.fdtri(d, dfd, 1.0 - alpha))
        if math.isfinite(f_crit):
            crit = (f_crit - 1.0) * math.sqrt(d / 2.0)
            p = float(special.fdtrc(d, dfd, max(1.0 + math.sqrt(2.0 / d) * stat, 0.0)))
        else:
            # the F quantile is nan from d ~ 1e17: use the normal reference
            approx = replace(approx, normal_fallback=True)
    if approx.normal_fallback:
        crit = float(-special.ndtri(alpha))
        p = float(special.ndtr(-stat))
    report = TestReport(
        test="gs",
        alpha=alpha,
        statistic=float(stat),
        critical_value=crit,
        p_value=p,
        reject=bool(stat >= crit),
        components={"t0": t0.value, "t1_normalized": t1.normalized},
        approx=approx,
    )
    report.details["t1_raw"] = t1.raw
    report.details["screen_cutoff"] = t0.cutoff
    report.details["n_screened"] = t0.n_screened
    if t0.skipped:
        report.details["skipped_coordinates"] = t0.skipped
    if approx.normal_fallback:
        report.details["normal_fallback"] = True
    return report


def wald_test(phi, alpha: float = 0.05) -> TestReport:
    """Classical mean test through the inverse sample covariance.

    The reported statistic is mean' cov^-1 mean / sqrt(S); the decision uses
    the exact Hotelling F calibration of S * mean' cov^-1 mean, mapped back
    to the statistic scale so reject <=> statistic >= critical_value.
    Returns a degenerate report whenever K >= S or the covariance is
    numerically singular.
    """
    return run_tests_from_moments(moments(phi), alpha, ("wald",))[0]


def _wald_from_moments(m: SampleMoments, alpha: float) -> TestReport:
    S, K = m.S, m.K
    if K >= S:
        return _degenerate_report(
            "wald", alpha, "SingularCovariance", reason=f"K={K} >= S={S}"
        )
    try:
        chol = np.linalg.cholesky(m.cov)
    except np.linalg.LinAlgError:
        return _degenerate_report(
            "wald", alpha, "SingularCovariance", reason="covariance not positive definite"
        )
    dl = np.diag(chol)
    if (dl.min() / dl.max()) ** 2 < WALD_MIN_RCOND:
        return _degenerate_report(
            "wald",
            alpha,
            "SingularCovariance",
            reason="covariance condition number too large",
        )
    z = linalg.solve_triangular(chol, m.mean, lower=True, check_finite=False)
    quad = float(z @ z)
    stat = quad / math.sqrt(S)
    t2 = S * quad
    f_stat = (S - K) / (K * (S - 1)) * t2
    dfn, dfd = K, S - K
    p = float(special.fdtrc(dfn, dfd, f_stat))
    f_crit = float(special.fdtri(dfn, dfd, 1.0 - alpha))
    crit = f_crit * K * (S - 1) / ((S - K) * S**1.5)
    return TestReport(
        test="wald",
        alpha=alpha,
        statistic=stat,
        critical_value=crit,
        p_value=p,
        reject=bool(stat >= crit),
        details={"hotelling_t2": t2, "f_statistic": f_stat, "df": (dfn, dfd)},
    )


def cq_test(phi, alpha: float = 0.05) -> TestReport:
    """Pairwise U-statistic standardized by the unbiased tr(Sigma^2) estimate,
    referenced to the standard normal."""
    return run_tests_from_moments(moments(phi), alpha, ("cq",))[0]


def _cq_from_moments(m: SampleMoments, alpha: float) -> TestReport:
    try:
        t1 = t1_statistic(m)
    except DegenerateVariance as exc:
        return _degenerate_report("cq", alpha, "DegenerateVariance", reason=str(exc))
    stat = t1.normalized
    crit = float(-special.ndtri(alpha))
    p = float(special.ndtr(-stat))
    return TestReport(
        test="cq",
        alpha=alpha,
        statistic=float(stat),
        critical_value=crit,
        p_value=p,
        reject=bool(stat >= crit),
        details={"u_statistic": t1.raw},
    )


TESTS = {"gs": _gs_from_moments, "wald": _wald_from_moments, "cq": _cq_from_moments}


def _checked_report(test: str, m: SampleMoments, alpha: float) -> TestReport:
    """One test's report, degenerate if its arithmetic left the float range.

    The cumulants are degree 4 and 6 in the attributions, so magnitudes beyond
    about 1e25 overflow them and below about 1e-27 underflow them.
    """
    try:
        rep = TESTS[test](m, alpha)
        if rep.degenerate is None and not (
            math.isfinite(rep.statistic) and math.isfinite(rep.p_value)
        ):
            raise OverflowError("non-finite statistic or p-value")
    except (OverflowError, ZeroDivisionError) as exc:
        return _degenerate_report(test, alpha, "FloatRange", reason=str(exc))
    return rep


def run_tests_from_moments(m: SampleMoments, alpha: float, tests) -> list[TestReport]:
    """Dispatch several tests against one precomputed moments object."""
    unknown = [t for t in tests if t not in TESTS]
    if unknown:
        raise ValueError(f"unknown tests: {unknown}; choose from {sorted(TESTS)}")
    return [_checked_report(t, m, alpha) for t in tests]


def group_joint_test(
    individual_shap,
    grouping: FeatureGrouping,
    alpha: float = 0.05,
    mode: str = "joint",
    tests=("gs",),
) -> list[TestReport]:
    """Per-group significance tests on an S x F individual-attribution matrix.

    joint mode tests the S x |g| column block of each group; reduced mode
    tests the single summed column (which is exactly the group attribution
    for path-based matrices). The reduced form discards the within-group
    structure and tends to lose power on sparse signals.
    """
    if mode not in ("joint", "reduced"):
        raise ValueError("mode must be 'joint' or 'reduced'")
    shap = _as_phi(individual_shap)
    if shap.shape[1] != grouping.n_features:
        raise ShapeError("SHAP matrix width does not match grouping")
    reports = []
    for name, idx in grouping.groups:
        block = shap[:, list(idx)]
        if mode == "reduced":
            block = block.sum(axis=1, keepdims=True)
        m = moments(block)
        for rep in run_tests_from_moments(m, alpha, tests):
            rep.group = name
            rep.details["mode"] = mode
            reports.append(rep)
    return reports
