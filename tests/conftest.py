"""Shared tree builders and independent oracles for the test suite."""

import os

# One BLAS thread, set before numpy loads: the grid's thread pool already
# occupies the cores, and BLAS threads on top of it oversubscribe them.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg, special

from groupshap.tree import LEAF, Tree, TreeEnsemble


def leaf_tree(value, cover=10.0) -> Tree:
    return Tree(
        feature=np.array([LEAF]),
        threshold=np.array([math.nan]),
        left=np.array([LEAF]),
        right=np.array([LEAF]),
        value=np.array([float(value)]),
        cover=np.array([float(cover)]),
    )


def stump(feature, threshold, left_value, right_value, left_cover=50.0, right_cover=50.0) -> Tree:
    cover = left_cover + right_cover
    root_value = (left_cover * left_value + right_cover * right_value) / cover
    return Tree(
        feature=np.array([feature, LEAF, LEAF]),
        threshold=np.array([float(threshold), math.nan, math.nan]),
        left=np.array([1, LEAF, LEAF]),
        right=np.array([2, LEAF, LEAF]),
        value=np.array([root_value, float(left_value), float(right_value)]),
        cover=np.array([cover, float(left_cover), float(right_cover)]),
    )


def build_tree(spec) -> Tree:
    """Build a tree from a nested spec.

    A leaf is (value, cover); an internal node is
    (feature, threshold, left_spec, right_spec). Internal values and covers
    are derived bottom-up so the node invariants hold by construction.
    """
    feature, threshold, left, right, value, cover = [], [], [], [], [], []

    def add(node):
        i = len(feature)
        feature.append(LEAF)
        threshold.append(math.nan)
        left.append(LEAF)
        right.append(LEAF)
        value.append(0.0)
        cover.append(0.0)
        if len(node) == 2:
            value[i], cover[i] = float(node[0]), float(node[1])
        else:
            f, thr, lspec, rspec = node
            feature[i] = f
            threshold[i] = float(thr)
            l = add(lspec)
            r = add(rspec)
            left[i], right[i] = l, r
            cover[i] = cover[l] + cover[r]
            value[i] = (cover[l] * value[l] + cover[r] * value[r]) / cover[i]
        return i

    add(spec)
    return Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=float),
        cover=np.array(cover, dtype=float),
    )


def chain_tree(features) -> Tree:
    """A tree that splits on each of `features` in turn down its left spine."""
    spec = (0.0, 1.0)
    for i, f in enumerate(reversed(list(features))):
        spec = (f, 0.5, spec, (float(i + 1), 1.0))
    return build_tree(spec)


def random_tree(rng, n_features, depth) -> Tree:
    """Random full-ish tree with valid covers and cover-weighted values."""

    def spec(d):
        if d == 0 or rng.random() < 0.2:
            return (float(rng.normal()), float(rng.integers(1, 30)))
        f = int(rng.integers(0, n_features))
        thr = float(rng.uniform(0.2, 0.8))
        return (f, thr, spec(d - 1), spec(d - 1))

    node = spec(depth)
    if len(node) == 2:  # force at least one split
        node = (
            int(rng.integers(0, n_features)),
            float(rng.uniform(0.2, 0.8)),
            (float(rng.normal()), float(rng.integers(1, 30))),
            (float(rng.normal()), float(rng.integers(1, 30))),
        )
    return build_tree(node)


def random_ensemble(rng, n_features, n_trees, depth) -> TreeEnsemble:
    return TreeEnsemble(
        trees=[random_tree(rng, n_features, depth) for _ in range(n_trees)],
        n_features=n_features,
        base_score=float(rng.normal()),
    )


def random_stump_ensemble(rng, n_features, n_trees) -> TreeEnsemble:
    trees = [
        stump(
            int(rng.integers(0, n_features)),
            float(rng.uniform(0.2, 0.8)),
            float(rng.normal()),
            float(rng.normal()),
            float(rng.integers(1, 40)),
            float(rng.integers(1, 40)),
        )
        for _ in range(n_trees)
    ]
    return TreeEnsemble(trees=trees, n_features=n_features, base_score=float(rng.normal()))


def random_partition(rng, n_features, n_groups):
    """Random exhaustive partition with every group nonempty."""
    assert n_groups <= n_features
    perm = list(rng.permutation(n_features))
    cuts = sorted(rng.choice(np.arange(1, n_features), size=n_groups - 1, replace=False)) if n_groups > 1 else []
    bounds = [0, *cuts, n_features]
    return [
        (f"g{j}", [int(i) for i in perm[bounds[j] : bounds[j + 1]]])
        for j in range(n_groups)
    ]


# --------------------------------------------------------------------------
# independent oracle: coalition enumeration coded from scratch


def _oracle_tree_value(tree: Tree, x, active_features, i=None):
    if i is None:
        i = tree.root
    f = tree.feature[i]
    if f == LEAF:
        return tree.value[i]
    if f in active_features:
        child = tree.left[i] if x[f] <= tree.threshold[i] else tree.right[i]
        return _oracle_tree_value(tree, x, active_features, int(child))
    l, r = int(tree.left[i]), int(tree.right[i])
    wl = tree.cover[l] / tree.cover[i]
    wr = tree.cover[r] / tree.cover[i]
    return wl * _oracle_tree_value(tree, x, active_features, l) + wr * _oracle_tree_value(
        tree, x, active_features, r
    )


def reference_value_function(model: TreeEnsemble, x, active_features) -> float:
    """The value function one row at a time, by a scalar recursive walk.

    It does the library's arithmetic in the library's order (cover-weighted
    sum divided by the parent cover, trees added in turn), so the library's
    vectorised value function must match it bit for bit.
    """

    def walk(t, i):
        f = t.feature[i]
        if f == LEAF:
            return float(t.value[i])
        if f in active_features:
            return walk(t, int(t.left[i] if x[f] <= t.threshold[i] else t.right[i]))
        l, r = int(t.left[i]), int(t.right[i])
        return (t.cover[l] * walk(t, l) + t.cover[r] * walk(t, r)) / t.cover[i]

    total = model.base_score
    for t in model.trees:
        total += walk(t, t.root)
    return float(total)


def reference_path_attribution(model: TreeEnsemble, x, feature_to_group, n_groups):
    """tree_group_shap for one row, by a scalar walk down each tree in turn:
    every split on the row's path adds value(child) - value(node) to the
    group of its feature."""
    phi = [0.0] * n_groups
    for t in model.trees:
        i = t.root
        while t.feature[i] != LEAF:
            f = t.feature[i]
            child = int(t.left[i] if x[f] <= t.threshold[i] else t.right[i])
            phi[feature_to_group[f]] += float(t.value[child] - t.value[i])
            i = child
    return np.array(phi)


def brute_force_group_shapley(model: TreeEnsemble, x, groups):
    """Group-player Shapley by direct coalition enumeration.

    Deliberately independent of the library: its own tree marginalization,
    combinations-based subset walk, and factorial weights.
    """
    K = len(groups)

    def v(coalition):
        feats = set()
        for j in coalition:
            feats.update(groups[j][1])
        return model.base_score + sum(
            _oracle_tree_value(t, x, feats) for t in model.trees
        )

    phi = np.zeros(K)
    for j in range(K):
        others = [g for g in range(K) if g != j]
        for size in range(K):
            w = (
                math.factorial(size)
                * math.factorial(K - size - 1)
                / math.factorial(K)
            )
            for combo in itertools.combinations(others, size):
                phi[j] += w * (v(set(combo) | {j}) - v(set(combo)))
    return phi


# --------------------------------------------------------------------------
# independent reference trainer: sorts every feature afresh at every node


def _reference_best_split(Xsub, resid, min_leaf):
    n = len(resid)
    total = resid.sum()
    sse_parent = float(((resid - total / n) ** 2).sum())
    if sse_parent <= 0.0 or n < 2 * min_leaf:
        return None
    best_gain = 0.0
    best = None
    parent_term = total * total / n
    for f in range(Xsub.shape[1]):
        order = np.argsort(Xsub[:, f], kind="stable")
        xs = Xsub[order, f]
        csum = np.cumsum(resid[order])
        n_left = np.arange(1, n)
        valid = (n_left >= min_leaf) & (n - n_left >= min_leaf) & (xs[:-1] < xs[1:])
        if not valid.any():
            continue
        sum_left = csum[:-1]
        score = sum_left**2 / n_left + (total - sum_left) ** 2 / (n - n_left)
        score[~valid] = -np.inf
        i = int(np.argmax(score))
        gain = float(score[i]) - parent_term
        if gain > best_gain:
            best_gain = gain
            best = (gain, f, float((xs[i] + xs[i + 1]) / 2.0))
    if best is None or best_gain <= 1e-10 * sse_parent:
        return None
    return best


def reference_grow_tree(X, resid, max_depth, min_leaf, scale) -> Tree:
    """Greedy depth-limited CART, one stable argsort per feature per node;
    leaves hold scale times their mean residual, internal nodes the
    cover-weighted mean of their children's values."""
    feature, threshold, left, right, value, cover = [], [], [], [], [], []

    def new_node(rows):
        feature.append(LEAF)
        threshold.append(math.nan)
        left.append(LEAF)
        right.append(LEAF)
        value.append(scale * float(resid[rows].mean()))
        cover.append(float(len(rows)))
        return len(feature) - 1

    all_rows = np.arange(X.shape[0])
    stack = [(new_node(all_rows), all_rows, 0)]
    while stack:
        node, rows, depth = stack.pop()
        if depth >= max_depth:
            continue
        split = _reference_best_split(X[rows], resid[rows], min_leaf)
        if split is None:
            continue
        _, f, thr = split
        go_left = X[rows, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = new_node(rows[go_left])
        right[node] = new_node(rows[~go_left])
        stack.append((left[node], rows[go_left], depth + 1))
        stack.append((right[node], rows[~go_left], depth + 1))
    # an internal node's value is the cover-weighted mean of its children's,
    # computed children first (every child's id is above its parent's)
    for i in reversed(range(len(feature))):
        if feature[i] != LEAF:
            l, r = left[i], right[i]
            value[i] = (cover[l] * value[l] + cover[r] * value[r]) / cover[i]
    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=float),
        cover=np.asarray(cover, dtype=float),
    )


def reference_train_gbm(data, n_trees=100, max_depth=3, learning_rate=0.1, min_samples_leaf=5):
    """Stagewise boosting over reference_grow_tree, as train_gbm defines it."""
    X = np.asarray(data.X, dtype=float)
    y = np.asarray(data.y, dtype=float)
    base = float(y.mean())
    resid = y - base
    trees = []
    for _ in range(n_trees):
        t = reference_grow_tree(X, resid, max_depth, min_samples_leaf, learning_rate)
        trees.append(t)
        resid -= t.leaf_values(X)
    return TreeEnsemble(
        trees=trees, n_features=X.shape[1], base_score=base, feature_names=list(data.columns)
    )


# --------------------------------------------------------------------------
# reference moments and tests: one sample at a time, in Python scalars


def reference_moments(phi):
    """Moments of one S x K sample, as the library computed them one
    replication at a time before the statistics were stacked, of the sample
    divided by the power of two that brings its largest |entry| into
    [0.5, 1), then centred and divided by the power of two that brings its
    largest |centred entry| into [0.5, 1), the total divisor clamped to
    [2^-1074, 2^1023]."""
    phi = np.asarray(phi, dtype=float)
    S, K = phi.shape
    first = math.frexp(float(np.abs(phi).max()))[1]
    phi = np.ldexp(phi, -first)
    mean = phi.mean(axis=0)
    centered = phi - mean
    spread = math.frexp(float(np.abs(centered).max()))[1]
    exponent = min(max(first + spread, -1074), 1023)
    centered = np.ldexp(centered, first - exponent)
    mean = np.ldexp(mean, first - exponent)
    diag = (centered * centered).sum(axis=0) / (S - 1)
    gram = S <= K
    a = (centered @ centered.T if gram else centered.T @ centered) / (S - 1)
    a = (a + a.T) / 2.0
    tr1 = float(np.trace(a))
    t2 = float((a * a).sum())
    t3 = float(((a @ a.T) * a).sum())
    tr2_hat = (S - 1) ** 2 / ((S - 2) * (S + 1)) * (t2 - tr1 * tr1 / (S - 1))
    tr3_hat = (
        (S - 1) ** 4
        / ((S**2 + S - 6) * (S**2 - 2 * S - 3))
        * (t3 - 3 * tr1 * t2 / (S - 1) + 2 * (tr1 * tr1 * tr1) / (S - 1) ** 2)
    )
    return SimpleNamespace(
        mean=mean, S=S, K=K, tr1=tr1, tr2_hat=tr2_hat, tr3_hat=tr3_hat, diag=diag,
        cov=None if gram else a,
    )


def _reference_outcome(test, statistic=None, critical_value=None, p_value=None, degenerate=None):
    reject = None if degenerate else bool(statistic >= critical_value)
    return SimpleNamespace(
        test=test, statistic=statistic, critical_value=critical_value, p_value=p_value,
        reject=reject, degenerate=degenerate,
    )


def _reference_t1(m):
    raw = float(m.mean @ m.mean) - m.tr1 / m.S
    k2 = 2.0 * m.tr2_hat / (m.S * (m.S - 1))
    if k2 <= 0.0:
        return None
    return raw, raw / math.sqrt(k2), k2


def _reference_gs(m, alpha):
    t1 = _reference_t1(m)
    if t1 is None:
        return _reference_outcome("gs", degenerate="DegenerateVariance")
    _, normalized, k2 = t1
    k3 = 8.0 * (m.S - 2) * m.tr3_hat / (m.S**2 * (m.S - 1) ** 2)
    fallback = k3 == 0.0
    if not fallback:
        d = 8.0 * (k2 * k2 * k2 / (k3 * k3))
    cutoff = 9.0 * math.log(math.log(m.S)) ** 2 * math.log(max(m.K, 2))
    positive = m.diag > 0.0
    h = np.zeros(m.K)
    h[positive] = m.S * m.mean[positive] ** 2 / m.diag[positive]
    stat = math.sqrt(m.K) * float(h[positive & (h >= cutoff)].sum()) + normalized
    if not fallback:
        dfd = (m.S - 1) * d
        f_crit = float(special.fdtri(d, dfd, 1.0 - alpha))
        fallback = not math.isfinite(f_crit)
        if not fallback:
            crit = (f_crit - 1.0) * math.sqrt(d / 2.0)
            p = float(special.fdtrc(d, dfd, max(1.0 + math.sqrt(2.0 / d) * stat, 0.0)))
    if fallback:
        crit = float(-special.ndtri(alpha))
        p = float(special.ndtr(-stat))
    return _reference_outcome("gs", float(stat), crit, p)


def _reference_wald(m, alpha):
    S, K = m.S, m.K
    if K >= S:
        return _reference_outcome("wald", degenerate="SingularCovariance")
    try:
        chol = np.linalg.cholesky(m.cov)
    except np.linalg.LinAlgError:
        return _reference_outcome("wald", degenerate="SingularCovariance")
    dl = np.diag(chol)
    ratio = dl.min() / dl.max()
    if ratio * ratio < 1e-13:
        return _reference_outcome("wald", degenerate="SingularCovariance")
    z = linalg.solve_triangular(chol, m.mean, lower=True, check_finite=False)
    quad = float(z @ z)
    f_stat = (S - K) / (K * (S - 1)) * (S * quad)
    p = float(special.fdtrc(K, S - K, f_stat))
    crit = float(special.fdtri(K, S - K, 1.0 - alpha)) * K * (S - 1) / ((S - K) * S**1.5)
    return _reference_outcome("wald", quad / math.sqrt(S), crit, p)


def _reference_cq(m, alpha):
    t1 = _reference_t1(m)
    if t1 is None:
        return _reference_outcome("cq", degenerate="DegenerateVariance")
    stat = t1[1]
    return _reference_outcome("cq", stat, float(-special.ndtri(alpha)), float(special.ndtr(-stat)))


def reference_run_tests(m, alpha, tests):
    """Each test on one sample's reference moments: statistic, critical value,
    p-value, reject and degenerate tag, with FloatRange where the arithmetic
    raised or left a nan statistic or p-value."""
    run = {"gs": _reference_gs, "wald": _reference_wald, "cq": _reference_cq}
    out = []
    for test in tests:
        try:
            rep = run[test](m, alpha)
            if rep.degenerate is None and math.isnan(rep.statistic + rep.p_value):
                raise OverflowError
        except (OverflowError, ZeroDivisionError):
            rep = _reference_outcome(test, degenerate="FloatRange")
        out.append(rep)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
