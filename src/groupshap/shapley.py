"""Group Shapley attribution for tree ensembles.

Two routes with different definitions. The exact route is the Shapley value
of the game whose players are the feature groups and whose value function is
path-dependent cover-weighted marginalization (``value_function``), solved in
closed form over each leaf's path. The path route walks each observation's
decision path and credits every split's change in node value to the group of
the split feature (a Saabas-style attribution); it equals the exact value
only on stumps. Both take an S x F matrix (a feature vector is one row) and
return a ``ShapMatrix`` of S rows with ``base_value`` as every row's base.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import GroupingError, ShapeError
from .tree import (
    LEAF,
    Tree,
    TreeEnsemble,
    feature_matrix,
    read_key_lines,
    read_numeric_csv,
    row_blocks,
)


@dataclass
class FeatureGrouping:
    """Ordered partition of the feature indices into named groups."""

    groups: list[tuple[str, list[int]]]
    n_features: int

    def __post_init__(self):
        if not self.groups:
            raise GroupingError("need at least one group")
        names = [name for name, _ in self.groups]
        if len(set(names)) != len(names):
            raise GroupingError("group names must be unique")
        seen: set[int] = set()
        for name, idx in self.groups:
            if not idx:
                raise GroupingError(f"group {name!r} is empty")
            for i in idx:
                if not 0 <= i < self.n_features:
                    raise GroupingError(
                        f"group {name!r}: feature index {i} outside [0, {self.n_features})"
                    )
                if i in seen:
                    raise GroupingError(f"feature {i} appears in more than one group")
                seen.add(i)
        if len(seen) != self.n_features:
            missing = sorted(set(range(self.n_features)) - seen)
            raise GroupingError(f"features not covered by any group: {missing}")

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.groups]

    def feature_to_group(self) -> np.ndarray:
        """Map feature index -> group index."""
        out = np.empty(self.n_features, dtype=np.int64)
        for j, (_, idx) in enumerate(self.groups):
            out[list(idx)] = j
        return out

    @classmethod
    def singletons(cls, n_features: int, names: list[str] | None = None):
        if names is None:
            names = [f"f{i}" for i in range(n_features)]
        return cls([(names[i], [i]) for i in range(n_features)], n_features)


def read_grouping_file(path, feature_names: list[str]) -> FeatureGrouping:
    """Parse a `group: feat, feat, ...` text file against known feature names.

    Blank lines and `#` comments are ignored. Overlaps and omissions are
    rejected by the FeatureGrouping invariants.
    """
    index = {name: i for i, name in enumerate(feature_names)}
    groups: list[tuple[str, list[int]]] = []
    for lineno, name, rest in read_key_lines(path, ":", GroupingError):
        feats = [f.strip() for f in rest.split(",") if f.strip()]
        if not feats:
            raise GroupingError(f"{path}:{lineno}: group {name!r} lists no features")
        idx = []
        for f in feats:
            if f not in index:
                raise GroupingError(
                    f"{path}:{lineno}: unknown feature {f!r} in group {name!r}"
                )
            idx.append(index[f])
        groups.append((name, idx))
    return FeatureGrouping(groups, n_features=len(feature_names))


def write_grouping_file(grouping: FeatureGrouping, feature_names: list[str], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, idx in grouping.groups:
            fh.write(f"{name}: {', '.join(feature_names[i] for i in idx)}\n")


@dataclass
class ShapMatrix:
    """Per-observation, per-group attribution values plus the base value."""

    values: np.ndarray  # S x K
    base_values: np.ndarray  # length S
    group_names: list[str]

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        self.base_values = np.asarray(self.base_values, dtype=float)
        if self.values.shape[0] != self.base_values.shape[0]:
            raise ShapeError("values and base_values disagree on observation count")
        if self.values.shape[1] != len(self.group_names):
            raise ShapeError("values and group_names disagree on group count")

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path) -> None:
        """Write ``obs_id, base, <groups...>`` rows, each float as its repr.

        The rows are formatted a block at a time (``row_blocks``), so only
        one block is ever held as Python floats and strings.
        """
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(["obs_id", "base"] + list(self.group_names))
            for rows in row_blocks(self.n_obs, self.values.shape[1] + 1):
                block = np.column_stack([self.base_values[rows], self.values[rows]]).tolist()
                fh.writelines(
                    f"{s},{','.join(map(repr, row))}\r\n"
                    for s, row in enumerate(block, start=rows.start)
                )


def read_shap_csv(path) -> ShapMatrix:
    """Read an attribution CSV written by ShapMatrix.to_csv.

    The ``obs_id`` cells are labels; every base and group cell must be a
    finite number. Anything else is a ShapeError (see read_numeric_csv).
    """
    header, cells = read_numeric_csv(path, ShapeError, labels=1)
    if len(header) < 3 or header[:2] != ["obs_id", "base"]:
        raise ShapeError(f"{path}: expected header 'obs_id, base, <groups...>'")
    return ShapMatrix(np.ascontiguousarray(cells[:, 1:]), cells[:, 0].copy(), header[2:])


# --------------------------------------------------------------------------
# value function and exact group Shapley


def base_value(model: TreeEnsemble) -> float:
    """Value of the empty coalition: base_score plus each tree's root value."""
    return float(model.base_score + sum(t.value[t.root] for t in model.trees))


def _marginal_tree_values(t: Tree, X: np.ndarray, active: np.ndarray, i: int) -> np.ndarray:
    """Marginal value of the subtree at node i for every row of X at once."""
    f = t.feature[i]
    if f == LEAF:
        return np.full(X.shape[0], t.value[i])
    l, r = int(t.left[i]), int(t.right[i])
    vl = _marginal_tree_values(t, X, active, l)
    vr = _marginal_tree_values(t, X, active, r)
    if active[f]:
        return np.where(X[:, f] <= t.threshold[i], vl, vr)
    return (t.cover[l] * vl + t.cover[r] * vr) / t.cover[i]


def value_function(model: TreeEnsemble, X, active) -> np.ndarray:
    """Prediction for each row of X with only `active` features known.

    Splits on active features follow the row; splits on inactive features
    average both branches with cover weights. With all features active this
    is predict_many(X); with none it is base_value(model). Every row goes
    through the same operations in the same order, so a row's value has the
    bits it has alone.
    """
    X = feature_matrix(X, model.n_features)
    mask = np.zeros(model.n_features, dtype=bool)
    active = list(active)
    if active:
        idx = np.asarray(active, dtype=int)
        if idx.min() < 0 or idx.max() >= model.n_features:
            raise ShapeError("active feature index out of range")
        mask[idx] = True
    total = np.full(X.shape[0], model.base_score)
    for t in model.trees:
        total += _marginal_tree_values(t, X, mask, t.root)
    return total


def _leaf_paths(t: Tree, f2g: list[int], i: int, groups: dict):
    """Yield ``(value, [(group, b, splits), ...])`` for each leaf under node i:
    a group's ``(feature, threshold, went_left)`` splits on the path and b, their
    product of cover(child) / cover(node); ``groups`` holds those above i."""
    f = int(t.feature[i])
    if f == LEAF:
        yield float(t.value[i]), [(g, b, splits) for g, (b, splits) in groups.items()]
        return
    b, splits = groups.get(f2g[f], (1.0, ()))
    for child, went_left in ((int(t.left[i]), True), (int(t.right[i]), False)):
        ratio = float(t.cover[child] / t.cover[i])  # an internal cover is positive
        split = (f, float(t.threshold[i]), went_left)
        yield from _leaf_paths(t, f2g, child, {**groups, f2g[f]: (b * ratio, splits + (split,))})


def exact_group_shapley(model: TreeEnsemble, X, grouping: FeatureGrouping) -> ShapMatrix:
    """Exact Shapley values of ``value_function``'s group game, in closed form.

    Each leaf l adds v_l times a product over the groups on its path: a_g(x),
    1 if x takes all of g's splits there and else 0, for g in the coalition,
    and b_g, the product of their cover ratios, for g out. As in Linear
    TreeSHAP with groups as players (Yu et al. 2022, arXiv:2209.08192),

        phi_j(x) = sum_l v_l (a_j - b_j) int_0^1 prod_{i != j} (q a_i + (1 - q) b_i) dq,

    and the integrand has degree below D, the most groups on one path, so
    Gauss-Legendre with D // 2 + 1 nodes gives it exactly. Groups on no path
    get 0.0. Returns the S x K values for the rows of X. Every step is
    elementwise and one ``np.bincount`` sums each row's terms in a fixed
    order: a row's bits are those it has alone.
    """
    if grouping.n_features != model.n_features:
        raise ShapeError("grouping does not match the model's feature count")
    X = feature_matrix(X, model.n_features)
    K = grouping.n_groups
    f2g = grouping.feature_to_group().tolist()
    leaves = [leaf for t in model.trees for leaf in _leaf_paths(t, f2g, t.root, {})]
    L, D = len(leaves), max((len(groups) for _, groups in leaves), default=0)
    # cell d * L + l: leaf l's d-th group, else a factor of 1 whose zero term goes to group K
    pad = (K, 1.0, [(0, np.inf, True)])
    cells = [groups[d] if d < len(groups) else pad for d in range(D) for _, groups in leaves]
    group = np.array([g for g, _, _ in cells], dtype=np.int64)
    b = np.array([b for _, b, _ in cells])
    v = np.tile([value for value, _ in leaves], D)
    starts = np.cumsum([0] + [len(on_path) for _, _, on_path in cells], dtype=np.int64)[:-1]
    split_dtype = [("feature", np.int64), ("threshold", float), ("went_left", bool)]
    splits = np.array([s for _, _, on_path in cells for s in on_path], dtype=split_dtype)
    nodes, weights = np.polynomial.legendre.leggauss(D // 2 + 1)
    q, w = (nodes[:, None] + 1) / 2, weights / 2
    phi = np.zeros((X.shape[0], K))
    for rows in row_blocks(X.shape[0], w.size * group.size):
        n = rows.stop - rows.start
        went = X[rows][:, splits["feature"]] <= splits["threshold"]
        a = np.logical_and.reduceat(went == splits["went_left"], starts, axis=1)
        factor = (q * a[:, None] + (1 - q) * b).reshape(n, w.size, D, L)
        # each cell times every other cell of its leaf: no division by a zero factor
        loo = np.ones_like(factor)
        for d in range(1, D):
            loo[:, :, d:] *= factor[:, :, d - 1, None]
            loo[:, :, :-d] *= factor[:, :, -d, None]
        integral = sum(w[k] * loo[:, k] for k in range(w.size))
        terms = v * (a - b) * integral.reshape(n, -1)
        cell = (np.arange(n)[:, None] * (K + 1) + group).ravel()
        phi[rows] = np.bincount(cell, terms.ravel(), n * (K + 1)).reshape(n, K + 1)[:, :K]
    return ShapMatrix(phi, np.full(X.shape[0], base_value(model)), list(grouping.names))


# --------------------------------------------------------------------------
# fast per-node path attribution


def tree_group_shap(model: TreeEnsemble, X, grouping: FeatureGrouping) -> ShapMatrix:
    """Path attribution: walk each observation's decision path per tree and add
    value(child taken) - value(node) to the group owning the split feature.

    The deltas telescope, so each row satisfies sum(phi) + base = prediction
    exactly. On single-split stumps this coincides with the exact oracle.

    Each edge of ``Tree.descend`` adds its ``edge_delta`` to the group of its
    split feature, tabled per call. The rows are walked in blocks
    (``row_blocks``), every tree in turn within a block. Each level moves
    every row of the block once, so one flat ``np.add.at`` at ``row * K +
    group`` meets each cell at most once and adds each row's delta to its own
    cell, in the order a per-row walk adds them. A row already at its leaf
    adds +0.0, which leaves its cell's bits unchanged because no cell ever
    holds -0.0 (it starts at +0.0, and a sum is -0.0 only when both terms
    are).
    """
    if grouping.n_features != model.n_features:
        raise ShapeError("grouping does not match the model's feature count")
    X = feature_matrix(X, model.n_features)
    S = X.shape[0]
    K = grouping.n_groups
    f2g = grouping.feature_to_group()
    # a leaf's group is any valid one: its self-loop adds value - value
    tables = [(t, f2g.take(t.edge_feature), t.edge_delta) for t in model.trees]
    phi = np.zeros((S, K))
    for rows in row_blocks(*X.shape):
        block, cells = X[rows], phi[rows].ravel()
        row_base = np.arange(0, cells.size, K)
        for t, group, delta in tables:
            for edges in t.descend(block):
                np.add.at(cells, row_base + group.take(edges), delta.take(edges))
    return ShapMatrix(phi, np.full(S, base_value(model)), list(grouping.names))
