"""Synthetic data generators for the size/power study and pipeline tests.

Attribution-like samples follow a factor model: row = mu + root(Sigma) * z
with compound-symmetric Sigma and unit-variance innovations drawn from a
normal, scaled-t4 or centered chi-square-1 model. Streams are counter-based
(Philox keyed by seed and replication index), so parallel and serial runs
produce identical output. Replications are generated in blocks: a block of R
replications is one R x S x K stack, each of whose samples is drawn from its
own stream, so a replication is the same whatever block it falls in.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidCorrelation
from .shapley import FeatureGrouping
from .tree import Dataset, read_key_lines


class ZModel(str, enum.Enum):
    NORMAL = "normal"
    SYMMETRIC = "symmetric"
    SKEWED = "skewed"


class Alternative(str, enum.Enum):
    NULL = "null"
    SPARSE = "sparse"
    DENSE = "dense"


@dataclass
class SimSpec:
    """One Monte Carlo cell: distribution, shape, covariance, shift, seed."""

    model: ZModel = ZModel.NORMAL
    K: int = 20
    S: int = 50
    rho: float = 0.5
    sigma2: float = 4.0
    alternative: Alternative = Alternative.NULL
    replications: int = 2000
    seed: int = 0
    alpha: float = 0.05

    def __post_init__(self):
        self.model = ZModel(self.model)
        self.alternative = Alternative(self.alternative)
        if not 0.0 <= self.rho < 1.0:
            raise InvalidCorrelation(f"rho must be in [0, 1), got {self.rho}")
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        # the larger eigenvalue of Sigma, under the covariance root
        if not math.isfinite(self.sigma2 * (1.0 - self.rho + self.rho * self.K)):
            raise ValueError(
                f"sigma2 = {self.sigma2} overflows the covariance root at K={self.K}, rho={self.rho}"
            )
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.K < 1 or self.S < 4:  # moments needs S >= 4
            raise ValueError(f"need K >= 1 and S >= 4, got K={self.K}, S={self.S}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


@dataclass
class FactorSample:
    phi: np.ndarray  # S x K, or R x S x K for a block of replications
    mu: np.ndarray  # length K
    spec: SimSpec = field(repr=False)


def replication_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, replication index).

    Distinct keys give non-overlapping streams by construction, so results
    do not depend on how replications are scheduled across workers.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_z(model: ZModel, S: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. innovations with mean 0 and variance 1 under all three models.

    t4 has variance 2 and chisq_1 has mean 1, variance 2, so the stated
    scalings normalize exactly.
    """
    model = ZModel(model)
    if model is ZModel.NORMAL:
        return rng.standard_normal((S, K))
    if model is ZModel.SYMMETRIC:
        return rng.standard_t(4, (S, K)) / math.sqrt(2.0)
    return (rng.chisquare(1, (S, K)) - 1.0) / math.sqrt(2.0)


def covariance_root(K: int, rho: float, sigma2: float) -> np.ndarray:
    """Symmetric square root of sigma2 * [(1-rho) I + rho J].

    Closed form from the two eigenvalues: sigma2(1-rho) off the all-ones
    direction, sigma2(1-rho+rho K) on it.
    """
    if not 0.0 <= rho < 1.0:
        raise InvalidCorrelation(f"rho must be in [0, 1), got {rho}")
    s_small = math.sqrt(sigma2 * (1.0 - rho))
    s_big = math.sqrt(sigma2 * (1.0 - rho + rho * K))
    return s_small * np.eye(K) + (s_big - s_small) / K * np.ones((K, K))


def _apply_root(z: np.ndarray, K: int, rho: float, sigma2: float) -> np.ndarray:
    # z @ root without forming the K x K matrix, in z's memory (a block's
    # temporaries are most of a grid thread's memory)
    s_small = math.sqrt(sigma2 * (1.0 - rho))
    s_big = math.sqrt(sigma2 * (1.0 - rho + rho * K))
    total = z.sum(axis=-1, keepdims=True)
    z *= s_small
    z += (s_big - s_small) / K * total
    return z


def alternative_mu(kind: Alternative, K: int, S: int) -> np.ndarray:
    """Mean shift: none, few large coordinates, or many small ones."""
    kind = Alternative(kind)
    mu = np.zeros(K)
    if kind is Alternative.SPARSE:
        mu[: math.ceil(K / S)] = 0.5
    elif kind is Alternative.DENSE:
        mu[: math.ceil(math.sqrt(K))] = math.sqrt(math.log(K) / S)
    return mu


def generate(spec: SimSpec, replication_index: int, stop: int | None = None) -> FactorSample:
    """Replication `replication_index` of a cell, a deterministic function of
    (spec.seed, replication_index). Given `stop`, the block of replications
    replication_index .. stop - 1 as an R x S x K stack."""
    rng = replication_rng(spec.seed, replication_index)
    state = rng.bit_generator.state
    z = []
    for r in range(replication_index, replication_index + 1 if stop is None else stop):
        # reset to replication r's fresh stream (counter 0, key (seed, r), an
        # empty buffer): a new Philox would first seed itself from OS entropy
        state["state"]["key"][1] = r
        rng.bit_generator.state = state
        z.append(draw_z(spec.model, spec.S, spec.K, rng))
    z = z[0] if stop is None else np.stack(z)
    mu = alternative_mu(spec.alternative, spec.K, spec.S)
    phi = _apply_root(z, spec.K, spec.rho, spec.sigma2)
    phi += mu
    return FactorSample(phi=phi, mu=mu, spec=spec)


def read_simspec_file(path) -> dict:
    """`key = value` config text; returns raw overrides for SimSpec fields."""
    fields = {
        "model": str,
        "k": int,
        "s": int,
        "rho": float,
        "sigma2": float,
        "alternative": str,
        "replications": int,
        "seed": int,
        "alpha": float,
    }
    out: dict = {}
    for lineno, key, value in read_key_lines(path, "=", ValueError):
        key = key.lower()
        if key not in fields:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = fields[key](value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value {value!r} for {key!r}") from None
    return out


# --------------------------------------------------------------------------
# synthetic regression data for end-to-end pipeline tests


def synth_regression(
    n: int, f_groups: int = 5, seed: int = 0
) -> tuple[Dataset, FeatureGrouping]:
    """Grouped tabular data with a known sparse nonlinear target.

    Features come in correlated blocks of three (one latent factor per
    group); only the first two groups enter the target, so the remaining
    groups are null players by construction.
    """
    if n < 50:
        raise ValueError("need n >= 50")
    if f_groups < 2:
        raise ValueError("need at least two groups (one signal, one null)")
    rng = replication_rng(seed, 0)
    per_group = 3
    names: list[str] = []
    groups: list[tuple[str, list[int]]] = []
    blocks = []
    for g in range(f_groups):
        latent = rng.standard_normal((n, 1))
        block = 0.7 * latent + 0.7 * rng.standard_normal((n, per_group))
        blocks.append(block)
        idx = list(range(g * per_group, (g + 1) * per_group))
        groups.append((f"g{g}", idx))
        names.extend(f"g{g}_x{i}" for i in range(per_group))
    X = np.hstack(blocks)
    y = (
        2.0 * np.sin(2.0 * X[:, 0])
        + X[:, 1] ** 2
        + 1.5 * X[:, per_group]
        + 0.1 * rng.standard_normal(n)
    )
    data = Dataset(X=X, y=y, columns=names)
    return data, FeatureGrouping(groups, n_features=f_groups * per_group)
