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

A test is tagged FloatRange, not run, where a quantity it uses has left the
normal float range (see moments); for unit-spread attributions Wald runs from
about 1e-153 to 1e153, CQ from 1e-77 to 1e77 and GS from 1e-25 to 1e26.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import linalg, special

from .errors import DegenerateVariance, SampleTooSmall, ShapeError
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
    length R.
    """

    def __init__(self, mean, S, tr1, tr2_hat, tr3_hat, diag, cov=None):
        self.mean = np.asarray(mean, dtype=float)
        self.S = int(S)
        self.K = self.mean.shape[-1]
        # [()] turns one sample's 0-d arrays into numpy float scalars
        self.tr1 = np.asarray(tr1, dtype=float)[()]
        self.tr2_hat = np.asarray(tr2_hat, dtype=float)[()]
        self.tr3_hat = np.asarray(tr3_hat, dtype=float)[()]
        self.diag = np.asarray(diag, dtype=float)
        self.cov = cov

    @cached_property
    def t1(self) -> tuple:
        """The T1Stat fields raw, normalized and k2_hat, per sample; GS and
        CQ share them. k2_hat <= 0 marks a degenerate sample."""
        raw = np.vecdot(self.mean, self.mean) - self.tr1 / self.S
        k2 = 2.0 * self.tr2_hat / (self.S * (self.S - 1))
        return raw, raw / np.sqrt(k2), k2


def _one_sample(m: SampleMoments) -> SampleMoments:
    if m.mean.ndim != 1:
        raise ShapeError(f"expected the moments of one S x K sample, got a stack of {len(m.mean)}")
    return m


def _as_phi(phi, stacked: bool = False) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if phi.ndim == 1:
        phi = phi[:, None]
    if phi.ndim != 2 and not (stacked and phi.ndim == 3):
        raise ShapeError(f"expected an S x K matrix, got ndim={phi.ndim}")
    if not np.isfinite(phi).all():
        raise ShapeError("attribution matrix holds a non-finite value")
    return phi


def _pow(x, n: int):
    """x**n element by element with Python's float power, which calls the C
    library's pow (numpy's power rounds differently in the last bit); inf
    where it overflows, which Python reports by raising."""

    def power(v):
        try:
            return v**n
        except OverflowError:
            return math.inf

    if not isinstance(x, np.ndarray) or x.ndim == 0:
        return np.float64(power(float(x)))
    return np.array([power(v) for v in x.tolist()])


def _normal(x):
    """Where x, zero or positive, is a normal float: at least finfo.tiny and
    finite (False at nan)."""
    return (x >= np.finfo(float).tiny) & (x <= np.finfo(float).max)


def moments(phi) -> SampleMoments:
    """Sample mean, covariance (divisor S-1) and trace estimates (unbiased
    for Gaussian rows) of an S x K sample, or of each sample of an R x S x K
    stack.

    The tr(Sigma^3) estimator's constant has roots at S=3, hence S >= 4.
    A quantity whose inputs left the normal float range is nan: a variance
    rounded to 0 from nonzero terms, and tr2_hat or tr3_hat where one of the
    degree-4 or degree-6 terms behind it is inf, below finfo.tiny or rounded
    to 0, unless the sample is constant (then they are exactly 0).
    """
    phi = _as_phi(phi, stacked=True)
    *lead, S, K = phi.shape
    if S <= 3:
        raise SampleTooSmall(f"need S >= 4 observations, got {S}")
    with np.errstate(all="ignore"):  # overflow and inf - inf beyond the float range
        mean = phi.mean(axis=-2)
        centered = phi - mean[..., None, :]
        diag = (centered * centered).sum(axis=-2) / (S - 1)
        zero = diag == 0.0
        if np.count_nonzero(zero):  # a constant column, or squares that underflowed
            diag = np.where(zero & (centered != 0.0).any(axis=-2), math.nan, diag)
        # traces on the smaller of the S x S Gram and the K x K covariance matrix:
        # both have the same nonzero spectrum
        gram = S <= K
        transposed = centered.swapaxes(-1, -2)
        # both products go to BLAS syrk, which fills one triangle and mirrors it,
        # so a is exactly symmetric
        a = (centered @ transposed if gram else transposed @ centered) / (S - 1)
        tr1 = np.trace(a, axis1=-2, axis2=-1)
        t2 = (a * a).reshape(*lead, -1).sum(axis=-1)
        t3 = ((a @ a) * a).reshape(*lead, -1).sum(axis=-1)
        tr1_sq, tr1_cubed = _pow(tr1, 2), _pow(tr1, 3)
        tr2_hat = (S - 1) ** 2 / ((S - 2) * (S + 1)) * (t2 - tr1_sq / (S - 1))
        tr3_hat = (
            (S - 1) ** 4
            / ((S**2 + S - 6) * (S**2 - 2 * S - 3))
            * (t3 - 3 * tr1 * t2 / (S - 1) + 2 * tr1_cubed / (S - 1) ** 2)
        )
    # t2 <= tr1**2 and t3 <= tr1 * t2 <= tr1**3: the least and the greatest
    # term of each degree bound the others
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    constant = (diag == 0.0).all(axis=-1)
    tr2_hat = np.where((t2 >= tiny) & (tr1_sq <= huge) | constant, tr2_hat, math.nan)
    tr3_hat = np.where((t3 >= tiny) & (tr1_cubed <= huge) | constant, tr3_hat, math.nan)
    return SampleMoments(mean, S, tr1, tr2_hat, tr3_hat, diag, None if gram else a)


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
    with np.errstate(all="ignore"):
        raw, normalized, k2 = _one_sample(m).t1
    if k2 <= 0.0:
        raise DegenerateVariance("estimated null variance is not positive")
    if not all(map(math.isfinite, (raw, normalized, k2))):
        raise OverflowError("trace statistic outside the float range")
    return T1Stat(raw=float(raw), normalized=float(normalized), k2_hat=float(k2))


@dataclass
class ChiSqApprox:
    """Parameters of the matched reference beta0 + beta1 * chisq(d)."""

    beta0: float
    beta1: float
    d: float
    k2_hat: float
    k3_hat: float
    normal_fallback: bool = False


def _chi_sq(m: SampleMoments, k2) -> tuple[dict, object]:
    """The ChiSqApprox fields d, k2_hat, k3_hat and normal_fallback per
    sample, and where the match's powers left the normal float range (it is
    then undefined). beta0 and beta1 only go into reports: _approx computes
    them."""
    S = m.S
    k3 = 8.0 * (S - 2) * m.tr3_hat / (S**2 * (S - 1) ** 2)
    fallback = k3 == 0.0
    # k2**2 in beta0 is in the normal range where k2**3 is
    k2_cubed, k3_sq = _pow(k2, 3), _pow(k3, 2)
    # 8 * (a / b) has the bits of 8 * a / b, without 8 * a overflowing first
    d = 8.0 * (k2_cubed / k3_sq)
    if np.count_nonzero(fallback):
        d = np.where(fallback, math.inf, d)
    approx = {"d": d, "k2_hat": k2, "k3_hat": k3, "normal_fallback": fallback}
    return approx, ~(_normal(k2_cubed) & _normal(k3_sq) | fallback)


def _approx(approx: dict, r=()) -> ChiSqApprox:
    """Sample r's ChiSqApprox, where its match is in the float range."""
    k2, k3 = float(approx["k2_hat"][r]), float(approx["k3_hat"][r])
    beta0 = beta1 = math.nan
    if k3 != 0.0:
        beta0, beta1 = -2.0 * k2**2 / k3, k3 / (4.0 * k2)
    d, fallback = float(approx["d"][r]), bool(approx["normal_fallback"][r])
    return ChiSqApprox(beta0, beta1, d, k2, k3, fallback)


def chi_sq_approx(m: SampleMoments) -> ChiSqApprox:
    """Match the first three null cumulants to a shifted, scaled chi-square.

    k3 = 0 (no estimated skewness) degrades to the normal reference, the
    d -> infinity limit; the fallback is recorded on the result.
    """
    with np.errstate(all="ignore"):
        k2 = _one_sample(m).t1[2]
        approx, out_of_range = _chi_sq(m, k2)
    if k2 <= 0.0:
        raise DegenerateVariance("estimated null variance is not positive")
    if out_of_range:
        raise OverflowError("cumulant match outside the float range")
    return _approx(approx)


@dataclass
class T0Stat:
    """Screening sum of studentized squared means above the sparse cutoff."""

    value: float
    delta: float
    cutoff: float
    n_screened: int
    skipped: tuple[int, ...]  # zero-variance coordinates left out


def _t0(m: SampleMoments) -> dict:
    """The T0Stat fields per sample, with in place of skipped the mask of
    positive-variance coordinates (shaped like mean)."""
    if m.S <= math.e:
        raise SampleTooSmall("screening cutoff needs S >= 3")
    # ln K floored at ln 2: at K = 1 the literal cutoff would be zero and the
    # screen would fire on any data, destroying the null calibration.
    delta = math.log(math.log(m.S)) ** 2 * math.log(max(m.K, 2))
    cutoff = 9.0 * delta
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
    return {"value": math.sqrt(m.K) * total, "delta": delta, "cutoff": cutoff,
            "n_screened": n_screened, "positive": positive}


def t0_statistic(m: SampleMoments) -> T0Stat:
    with np.errstate(all="ignore"):
        t0 = _t0(_one_sample(m))
    return T0Stat(
        value=float(t0["value"]),
        delta=t0["delta"],
        cutoff=t0["cutoff"],
        n_screened=int(t0["n_screened"]),
        skipped=tuple(np.flatnonzero(~t0["positive"]).tolist()),
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


@dataclass
class Outcomes:
    """One test on a sample, or on each sample of a stack: entry r of each
    array is sample r (for one sample the entries are numpy scalars).

    flag is 0 where the test ran, and i where it did not for the reason
    flags[i - 1] = (tag, reason). extra holds the test's other per-sample
    values, from which fields builds the components, approx and details of a
    TestReport.
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
    them flags is tagged FloatRange if its statistic or p-value is not
    finite, which is how a moment made nan outside the normal float range
    (see moments) surfaces."""
    # p is a probability where it is finite, so stat + p is finite exactly
    # where both are
    masks = (*masks, ~np.isfinite(stat + p))
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
    raw, normalized, k2 = m.t1
    approx, out_of_range = _chi_sq(m, k2)
    t0 = _t0(m)
    stat = t0["value"] + normalized
    d = approx["d"]
    dfd = (m.S - 1) * d
    f_crit = special.fdtri(d, dfd, 1.0 - alpha)
    crit = (f_crit - 1.0) * np.sqrt(d / 2.0)
    p = special.fdtrc(d, dfd, np.maximum(1.0 + np.sqrt(2.0 / d) * stat, 0.0))
    normal = approx["normal_fallback"] = approx["normal_fallback"] | ~np.isfinite(f_crit)
    if np.count_nonzero(normal):
        crit = np.where(normal, -special.ndtri(alpha), crit)
        p = np.where(normal, special.ndtr(-stat), p)
    extra = {"t0": t0, "t1_raw": raw, "t1_normalized": normalized, "approx": approx}
    masks = (k2 <= 0.0, out_of_range)
    reasons = (
        ("DegenerateVariance", "estimated null variance is not positive"),
        ("FloatRange", "cumulant match outside the float range"),
    )
    return _outcomes("gs", alpha, stat, crit, p, masks, reasons, extra, _gs_fields)


def _gs_fields(x: dict, r) -> dict:
    approx = _approx(x["approx"], r)
    t0 = x["t0"]
    details = {
        "t1_raw": float(x["t1_raw"][r]),
        "screen_cutoff": t0["cutoff"],
        "n_screened": int(t0["n_screened"][r]),
    }
    skipped = tuple(np.flatnonzero(~t0["positive"][r]).tolist())
    if skipped:
        details["skipped_coordinates"] = skipped
    if approx.normal_fallback:
        details["normal_fallback"] = True
    components = {"t0": float(t0["value"][r]), "t1_normalized": float(x["t1_normalized"][r])}
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
    # a variance outside the normal float range, unless a constant column's 0
    variances = np.diagonal(m.cov, axis1=-2, axis2=-1)
    out_of_range = ~(_normal(variances) | (m.diag == 0.0)).all(axis=-1)
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
    ill = _pow(np.minimum.reduce(dl, axis=-1) / np.maximum.reduce(dl, axis=-1), 2)
    ill = ill < WALD_MIN_RCOND
    z = np.full(m.mean.shape, math.nan)
    zs, factors, means = z.reshape(-1, K), chol.reshape(-1, K, K), m.mean.reshape(-1, K)
    for r, solvable in enumerate(np.ravel(~(out_of_range | singular | ill)).tolist()):
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
    masks = (out_of_range, singular, ill)
    reasons = (
        ("FloatRange", "covariance outside the float range"),
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
    return _outcomes("cq", alpha, stat, crit, p, (k2 <= 0.0,), reasons, {"u": raw}, _cq_fields)


def _cq_fields(x: dict, r) -> dict:
    return {"details": {"u_statistic": float(x["u"][r])}}


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
    # a sample outside the float range overflows here; its tests are tagged
    with np.errstate(all="ignore"):
        return [TESTS[t](m, alpha) for t in tests]


def run_tests_from_moments(m: SampleMoments, alpha: float, tests) -> list[TestReport]:
    """Reports of several tests on the moments of one sample."""
    return [o.report() for o in outcomes_from_moments(_one_sample(m), alpha, tests)]


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
