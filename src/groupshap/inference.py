"""Significance tests for attribution matrices.

The main test adds a screening term for sparse signals to a trace-normalized
quadratic statistic and calibrates it against a three-cumulant chi-square
match. Because the normalizing variance is itself estimated, the matched
chi2_d / d is replaced by the studentized F(d, (S-1) d), which tends to it as
S grows. Classical Hotelling/Wald and the trace-normalized normal-reference
test are included as baselines. All statistics are functions of the sample
moments, so one moments pass feeds every test. Moments and tests take an
R x S x K stack of samples as well as one S x K sample: every per-sample
quantity then gains a leading axis of length R, so a block of Monte Carlo
replications is one pass, and one sample's quantities are numpy scalars.

Every test is scale invariant, and moments divides every sample by exact
powers of two and every statistic is built from products, so each test gives
the same bits for a sample and for that sample times any power of two that
leaves no entry subnormal. Raw moments and report fields are in units of
phi / scale.

A test's result is read in one place: a TestReport, or for a stack its
Outcomes. GS reports its parts there too: the screening term T0 and the
normalized T1 as components, the raw T1, the screen's cutoff and count as
details, and the three-cumulant chi-square match as approx. A sample a test
cannot run on gets a degenerate tag, not an exception; only malformed input
raises.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import linalg, special

from .errors import SampleTooSmall, ShapeError
from .shapley import FeatureGrouping

WALD_MIN_RCOND = 1e-13


class SampleMoments:
    """Mean, covariance and trace statistics of an S x K sample, or of each
    sample of an R x S x K stack.

    tr2_hat and tr3_hat estimate tr(Sigma^2) and tr(Sigma^3); they are
    unbiased for Gaussian rows only. Under heavier tails tr2_hat is biased
    upwards: its mean over the truth measured 1.53 for scaled-t4 rows at
    K=500, S=50, rho=0 (2000 draws). The trace statistics only need the
    smaller of the K x K covariance and the S x S Gram matrix, so cov is None
    when S <= K, where Wald is degenerate and nothing reads it. For a stack
    every field gains a leading axis of length R: mean is R x K, tr1 has
    length R. The fields are the moments of phi / scale, where scale is the
    power of two that moments divided the sample by, one per sample.
    """

    def __init__(self, mean, S, tr1, tr2_hat, tr3_hat, diag, cov=None, scale=1.0):
        self.mean = np.asarray(mean, dtype=float)
        self.S = int(S)
        self.K = self.mean.shape[-1]
        # [()] turns one sample's 0-d arrays into numpy float scalars
        self.tr1 = np.asarray(tr1, dtype=float)[()]
        self.tr2_hat = np.asarray(tr2_hat, dtype=float)[()]
        self.tr3_hat = np.asarray(tr3_hat, dtype=float)[()]
        self.diag = np.asarray(diag, dtype=float)
        self.cov = cov
        self.scale = np.asarray(scale, dtype=float)[()]

    @cached_property
    def t1(self) -> tuple:
        """The trace-centered squared mean norm raw, its variance-normalized
        form raw / sqrt(k2_hat), and k2_hat, per sample; GS and CQ share them.

        raw = ||mean||^2 - tr(cov)/S equals the pairwise U-statistic
        [S(S-1)]^-1 sum_{i!=j} phi_i' phi_j identically, so its null
        expectation is zero. k2_hat <= 0 marks a degenerate sample.
        """
        raw = np.vecdot(self.mean, self.mean) - self.tr1 / self.S
        k2 = 2.0 * self.tr2_hat / (self.S * (self.S - 1))
        return raw, raw / np.sqrt(k2), k2


def _as_phi(phi, stacked: bool = False) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if phi.ndim == 1:
        phi = phi[:, None]
    if phi.ndim != 2 and not (stacked and phi.ndim == 3):
        raise ShapeError(f"expected an S x K matrix, got ndim={phi.ndim}")
    if not np.isfinite(phi).all():
        raise ShapeError("attribution matrix holds a non-finite value")
    return phi


def _peak_exponent(x):
    """The binary exponent of each sample's largest |entry|, which lies in
    [2^(e-1), 2^e); frexp gives int32 exponents, which ldexp takes without a
    cast, and 0 for a zero sample, so a constant sample keeps its zeros."""
    return np.frexp(np.maximum(x.max(axis=(-2, -1)), -x.min(axis=(-2, -1))))[1]


def moments(phi) -> SampleMoments:
    """Sample mean, covariance (divisor S-1) and trace estimates (unbiased
    for Gaussian rows) of an S x K sample, or of each sample of an R x S x K
    stack, in units of phi / scale.

    The tr(Sigma^3) estimator's constant has roots at S=3, hence S >= 4.
    Each sample is divided by the power of two that brings its largest
    |entry| into [0.5, 1) before its mean is taken, so no sum overflows, and
    then by the one that does the same for its centred entries, so a spread
    tiny beside the level does not underflow. scale is the total divisor,
    clamped to [2^-1074, 2^1023] to stay finite and nonzero (the centred
    peak then lies in [0.5, 4) at the top of the float range).
    """
    phi = _as_phi(phi, stacked=True)
    *lead, S, K = phi.shape
    if S <= 3:
        raise SampleTooSmall(f"need S >= 4 observations, got {S}")
    first = _peak_exponent(phi)
    # a new array, so it is centred and divided again in place
    centered = np.ldexp(phi, -first[..., None, None])
    mean = centered.mean(axis=-2)
    centered -= mean[..., None, :]
    exponent = np.clip(first + _peak_exponent(centered), -1074, 1023)
    second = exponent - first
    np.ldexp(centered, -second[..., None, None], out=centered)
    mean = np.ldexp(mean, -second[..., None])
    diag = (centered * centered).sum(axis=-2) / (S - 1)
    # traces on the smaller of the S x S Gram and the K x K covariance matrix:
    # both have the same nonzero spectrum
    gram = S <= K
    transposed = centered.swapaxes(-1, -2)
    # every product of a matrix with its own transpose goes to BLAS syrk,
    # which fills one triangle and mirrors it, so a is exactly symmetric
    a = (centered @ transposed if gram else transposed @ centered) / (S - 1)
    tr1 = np.trace(a, axis1=-2, axis2=-1)
    t2 = (a * a).reshape(*lead, -1).sum(axis=-1)
    t3 = ((a @ a.swapaxes(-1, -2)) * a).reshape(*lead, -1).sum(axis=-1)
    tr2_hat = (S - 1) ** 2 / ((S - 2) * (S + 1)) * (t2 - tr1 * tr1 / (S - 1))
    tr3_hat = (
        (S - 1) ** 4
        / ((S**2 + S - 6) * (S**2 - 2 * S - 3))
        * (t3 - 3 * tr1 * t2 / (S - 1) + 2 * (tr1 * tr1 * tr1) / (S - 1) ** 2)
    )
    scale = np.ldexp(1.0, exponent)
    return SampleMoments(mean, S, tr1, tr2_hat, tr3_hat, diag, None if gram else a, scale)


@dataclass
class ChiSqApprox:
    """Parameters of the matched reference beta0 + beta1 * chisq(d).

    k3 = 0 (no estimated skewness) degrades to the normal reference, the
    d -> infinity limit, as does a d whose F quantile is not finite;
    normal_fallback records either.
    """

    beta0: float
    beta1: float
    d: float
    k2_hat: float
    k3_hat: float
    normal_fallback: bool = False


def _t0(m: SampleMoments) -> dict:
    """The screening term T0, the sum of the studentized squared means
    h = S mean^2 / var that reach the sparse cutoff, times sqrt(K), per
    sample; with the report fields screen_cutoff and n_screened, and the
    mask of positive-variance coordinates (zero-variance ones are skipped)."""
    if m.S <= math.e:
        raise SampleTooSmall("screening cutoff needs S >= 3")
    # ln K floored at ln 2: at K = 1 the literal cutoff would be zero and the
    # screen would fire on any data, destroying the null calibration.
    cutoff = 9.0 * (math.log(math.log(m.S)) ** 2 * math.log(max(m.K, 2)))
    positive = m.diag > 0.0
    h = m.S * m.mean**2 / m.diag
    fired = positive & (h >= cutoff)
    n_screened = fired.sum(axis=-1)
    total = np.zeros(n_screened.shape)
    if np.count_nonzero(n_screened):
        # summed over the fired coordinates alone, as numpy pairs them
        rows, fired_rows, sums = h.reshape(-1, m.K), fired.reshape(-1, m.K), total.reshape(-1)
        for r in np.flatnonzero(n_screened):
            sums[r] = rows[r, fired_rows[r]].sum()
    return {"t0": math.sqrt(m.K) * total, "screen_cutoff": cutoff,
            "n_screened": n_screened, "positive": positive}


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


@dataclass
class Outcomes:
    """One test on a sample, or on each sample of a stack: entry r of each
    array is sample r (for one sample the entries are numpy scalars).

    flag is 0 where the test ran, and i where it did not for the reason
    flags[i - 1] = (tag, reason). extra holds the test's other per-sample
    values in one flat dict, under the names of the TestReport fields that
    fields builds from them: for GS, t0 and t1_normalized (components),
    t1_raw, screen_cutoff and n_screened (details), d, k2_hat, k3_hat and
    normal_fallback (approx).
    """

    test: str
    alpha: float
    statistic: np.ndarray
    critical_value: np.ndarray
    p_value: np.ndarray
    reject: np.ndarray
    flag: np.ndarray
    flags: tuple[tuple[str, str], ...]
    extra: dict
    fields: Callable[[dict, object], dict] | None

    def report(self, r=()) -> TestReport:
        """The report on sample r of a stack, or on the one sample."""
        code = int(self.flag[r])
        if code:
            tag, reason = self.flags[code - 1]
            return TestReport(
                test=self.test, alpha=self.alpha, degenerate=tag, details={"reason": reason}
            )
        return TestReport(
            test=self.test,
            alpha=self.alpha,
            statistic=float(self.statistic[r]),
            critical_value=float(self.critical_value[r]),
            p_value=float(self.p_value[r]),
            reject=bool(self.reject[r]),
            **self.fields(self.extra, r),
        )


def _outcomes(test, alpha, stat, crit, p, masks, reasons, extra=None, fields=None) -> Outcomes:
    """Outcomes whose degenerate samples follow `masks`, in falling
    precedence, with the (tag, reason) pairs `reasons`. A sample none of
    them flags is tagged FloatRange if its statistic or p-value is nan. An
    infinite statistic is a decision: a sample whose mean is huge beside its
    spread (moments normalises each sample, but the statistic of a spread
    2^-634 below the level does not fit a float) rejects with p = 0."""
    # p is a probability or nan, so stat + p is nan exactly where either is
    masks = (*masks, np.isnan(stat + p))
    flag = np.zeros(stat.shape, dtype=np.intp)
    for i in range(len(masks), 0, -1):
        flag[masks[i - 1]] = i
    reasons = (*reasons, ("FloatRange", "non-finite statistic or p-value"))
    return Outcomes(test, alpha, stat, crit, p, stat >= crit, flag, reasons, extra, fields)


def _gs_outcomes(m: SampleMoments, alpha: float) -> Outcomes:
    """Screened, trace-normalized GS per sample.

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
    Where the F quantile is not finite (d from about 1e17) the normal
    reference is used. The critical value and p-value are mapped back to the
    T scale, so reject <=> statistic >= critical_value.
    """
    S = m.S
    raw, normalized, k2 = m.t1
    # the three-cumulant match; 8 * (a / b) has the bits of 8 * a / b, and d
    # is inf at k3 = 0, as k2^3 > 0 after scaling
    k3 = 8.0 * (S - 2) * m.tr3_hat / (S**2 * (S - 1) ** 2)
    d = 8.0 * (k2 * k2 * k2 / (k3 * k3))
    extra = _t0(m)
    stat = extra["t0"] + normalized
    dfd = (S - 1) * d
    f_crit = special.fdtri(d, dfd, 1.0 - alpha)
    crit = (f_crit - 1.0) * np.sqrt(d / 2.0)
    p = special.fdtrc(d, dfd, np.maximum(1.0 + np.sqrt(2.0 / d) * stat, 0.0))
    normal = (k3 == 0.0) | ~np.isfinite(f_crit)
    if np.count_nonzero(normal):
        crit = np.where(normal, -special.ndtri(alpha), crit)
        p = np.where(normal, special.ndtr(-stat), p)
    extra.update(t1_raw=raw, t1_normalized=normalized, d=d, k2_hat=k2, k3_hat=k3,
                 normal_fallback=normal, scale=m.scale)
    reasons = (("DegenerateVariance", "estimated null variance is not positive"),)
    return _outcomes("gs", alpha, stat, crit, p, (k2 <= 0.0,), reasons, extra, _gs_fields)


def _gs_fields(x: dict, r) -> dict:
    k2, k3 = float(x["k2_hat"][r]), float(x["k3_hat"][r])
    beta0 = beta1 = math.nan
    if k3 != 0.0:
        beta0, beta1 = -2.0 * k2 * k2 / k3, k3 / (4.0 * k2)
    fallback = bool(x["normal_fallback"][r])
    approx = ChiSqApprox(beta0, beta1, float(x["d"][r]), k2, k3, fallback)
    details = {
        "t1_raw": float(x["t1_raw"][r]),
        "screen_cutoff": x["screen_cutoff"],
        "n_screened": int(x["n_screened"][r]),
        "scale": float(x["scale"][r]),  # t1_raw is in units of (phi / scale)^2
    }
    skipped = tuple(np.flatnonzero(~x["positive"][r]).tolist())
    if skipped:
        details["skipped_coordinates"] = skipped
    if fallback:
        details["normal_fallback"] = True
    components = {"t0": float(x["t0"][r]), "t1_normalized": float(x["t1_normalized"][r])}
    return {"components": components, "approx": approx, "details": details}


def gs_test(phi, alpha: float = 0.05) -> TestReport:
    """Screened, trace-normalized test with chi-square-matched calibration.

    The statistic x = T0 + T1/sqrt(k2_hat) is referred, through
    1 + sqrt(2/d) x, to F(d, (S-1) d), where d is the three-cumulant chi-square
    match; _gs_outcomes derives the denominator degrees of freedom. As
    S -> infinity the reference tends to chi2_d / d, i.e. x to
    (chi2_d - d)/sqrt(2 d).
    """
    return run_tests_from_moments(moments(phi), alpha, ("gs",))[0]


def _wald_outcomes(m: SampleMoments, alpha: float) -> Outcomes:
    """Hotelling/Wald per sample.

    The reported statistic is mean' cov^-1 mean / sqrt(S); the decision uses
    the exact Hotelling F calibration of S * mean' cov^-1 mean, mapped back
    to the statistic scale so reject <=> statistic >= critical_value.
    """
    S, K, lead = m.S, m.K, m.mean.shape[:-1]
    if K >= S:
        nan = np.full(lead, math.nan)
        reasons = (("SingularCovariance", f"K={K} >= S={S}"),)
        return _outcomes("wald", alpha, nan, nan, nan, (np.ones(lead, dtype=bool),), reasons)
    singular = np.zeros(lead, dtype=bool)
    try:
        chol = np.linalg.cholesky(m.cov)
    except np.linalg.LinAlgError:  # some sample's covariance: find which
        chol = np.full_like(m.cov, math.nan)
        for r in np.ndindex(lead):
            try:
                chol[r] = np.linalg.cholesky(m.cov[r])
            except np.linalg.LinAlgError:
                singular[r] = True
    dl = np.diagonal(chol, axis1=-2, axis2=-1)
    ratio = np.minimum.reduce(dl, axis=-1) / np.maximum.reduce(dl, axis=-1)
    ill = ratio * ratio < WALD_MIN_RCOND
    z = np.full(m.mean.shape, math.nan)
    zs, factors, means = z.reshape(-1, K), chol.reshape(-1, K, K), m.mean.reshape(-1, K)
    for r, solvable in enumerate(np.ravel(~(singular | ill)).tolist()):
        if solvable:
            # the LAPACK call of scipy.linalg.solve_triangular on a C-ordered
            # lower factor: its transpose is an F-ordered upper one, solved
            # transposed
            zs[r] = linalg.lapack.dtrtrs(factors[r].T, means[r], lower=0, trans=1)[0]
    quad = np.vecdot(z, z)
    stat = quad / math.sqrt(S)
    t2 = S * quad
    f_stat = (S - K) / (K * (S - 1)) * t2
    dfn, dfd = K, S - K
    p = special.fdtrc(dfn, dfd, f_stat)
    f_crit = float(special.fdtri(dfn, dfd, 1.0 - alpha))
    crit = np.full(lead, f_crit * K * (S - 1) / ((S - K) * S**1.5))
    extra = {"hotelling_t2": t2, "f_statistic": f_stat, "df": (dfn, dfd)}
    masks = (singular, ill)
    reasons = (
        ("SingularCovariance", "covariance not positive definite"),
        ("SingularCovariance", "covariance condition number too large"),
    )
    return _outcomes("wald", alpha, stat, crit, p, masks, reasons, extra, _wald_fields)


def _wald_fields(x: dict, r) -> dict:
    details = {
        "hotelling_t2": float(x["hotelling_t2"][r]),
        "f_statistic": float(x["f_statistic"][r]),
        "df": x["df"],
    }
    return {"details": details}


def wald_test(phi, alpha: float = 0.05) -> TestReport:
    """Classical mean test through the inverse sample covariance.

    Returns a degenerate report whenever K >= S or the covariance is
    numerically singular; _wald_outcomes gives the calibration.
    """
    return run_tests_from_moments(moments(phi), alpha, ("wald",))[0]


def _cq_outcomes(m: SampleMoments, alpha: float) -> Outcomes:
    """CQ per sample."""
    raw, stat, k2 = m.t1
    crit = np.full(stat.shape, -special.ndtri(alpha))
    p = special.ndtr(-stat)
    reasons = (("DegenerateVariance", "estimated null variance is not positive"),)
    extra = {"u_statistic": raw, "scale": m.scale}
    return _outcomes("cq", alpha, stat, crit, p, (k2 <= 0.0,), reasons, extra, _cq_fields)


def _cq_fields(x: dict, r) -> dict:
    # u is in units of (phi / scale)^2
    details = {"u_statistic": float(x["u_statistic"][r]), "scale": float(x["scale"][r])}
    return {"details": details}


def cq_test(phi, alpha: float = 0.05) -> TestReport:
    """Pairwise U-statistic standardized by the unbiased tr(Sigma^2) estimate,
    referenced to the standard normal."""
    return run_tests_from_moments(moments(phi), alpha, ("cq",))[0]


TESTS = {"gs": _gs_outcomes, "wald": _wald_outcomes, "cq": _cq_outcomes}


def outcomes_from_moments(m: SampleMoments, alpha: float, tests) -> list[Outcomes]:
    """Several tests on one moments object, of one sample or of a stack."""
    unknown = [t for t in tests if t not in TESTS]
    if unknown:
        raise ValueError(f"unknown tests: {unknown}; choose from {sorted(TESTS)}")
    # constant samples give nan and inf here; their tests are tagged
    with np.errstate(all="ignore"):
        return [TESTS[t](m, alpha) for t in tests]


def run_tests_from_moments(m: SampleMoments, alpha: float, tests) -> list[TestReport]:
    """Reports of several tests on the moments of one sample."""
    if m.mean.ndim != 1:
        raise ShapeError(f"expected the moments of one S x K sample, got a stack of {len(m.mean)}")
    return [o.report() for o in outcomes_from_moments(m, alpha, tests)]


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

    Every test's null hypothesis is that the group's attributions have mean
    zero on these rows: a mean test of signed attributions asks whether the
    group moves the average prediction on the rows given, not whether the
    model uses the group. Path attributions of a model's own training rows
    are centred by construction (the cover-weighted deltas of every split
    cancel over the rows that reach it), so on those rows every group gets
    p near 1.
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
