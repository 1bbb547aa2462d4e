"""Group Shapley attribution for tree ensembles.

Two routes with different definitions. The exact route is the Shapley value
of the game whose players are the feature groups and whose value function is
path-dependent cover-weighted marginalization. The ensemble's game is the
sum of its trees' games and Shapley values are linear, so it is solved one
tree at a time over the groups that tree splits on. The path route walks each
observation's decision path and credits every split's change in node value to
the group of the split feature (a Saabas-style attribution); it equals the
exact value only on stumps.

The value function and the exact route take one feature vector or an S x F
matrix. On a matrix every tree node is evaluated for all rows at once; each
row goes through the same floating-point operations either way, so its
attributions have the same bits whether it is passed alone or inside a
matrix.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoalitionBudgetExceeded, GroupingError, ShapeError
from .tree import LEAF, Tree, TreeEnsemble, feature_matrix, read_key_lines, read_numeric_csv

# most groups a single tree may split on for exact enumeration
EXACT_GROUP_LIMIT = 20


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
        """Write ``obs_id, base, <groups...>`` rows, each float as its repr."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(["obs_id", "base"] + list(self.group_names))
            rows = np.column_stack([self.base_values, self.values]).tolist()
            fh.writelines(f"{s},{','.join(map(repr, row))}\r\n" for s, row in enumerate(rows))


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
# value function and exact enumeration


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


def value_function(model: TreeEnsemble, x, active) -> float | np.ndarray:
    """Prediction with only `active` features known.

    Splits on active features follow x; splits on inactive features average
    both branches with cover weights. With all features active this is
    predict(x); with none it is base_score plus the root values.

    ``x`` is one feature vector (returns a float) or an S x F matrix (returns
    the S values, one per row). Every row goes through the same operations in
    the same order either way, so a row's value has the same bits in both.
    """
    X, one = feature_matrix(x, model.n_features)
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
    return float(total[0]) if one else total


def exact_group_shapley(model: TreeEnsemble, x, grouping: FeatureGrouping) -> np.ndarray:
    """Exact Shapley values of the group game, one tree at a time.

    A tree's players are the k groups it splits on; the other groups are null
    players of its game and get 0 from it. Each of its 2^k coalitions C is
    valued once, and w(|C| - 1) v(C) is added to every member and w(|C|) v(C)
    subtracted from every non-member, with w(c) = c! (k - c - 1)! / k!. No
    tree may split on more than EXACT_GROUP_LIMIT groups.

    ``x`` is one feature vector (returns the K values) or an S x F matrix
    (returns S x K). A row's values have the same bits whether it is passed
    alone or inside a matrix.
    """
    if grouping.n_features != model.n_features:
        raise ShapeError("grouping does not match the model's feature count")
    X, one = feature_matrix(x, model.n_features)
    f2g = grouping.feature_to_group()
    players = [np.unique(f2g[t.feature[t.feature != LEAF]]) for t in model.trees]
    for i, p in enumerate(players):
        if len(p) > EXACT_GROUP_LIMIT:
            raise CoalitionBudgetExceeded(
                f"tree {i} splits on {len(p)} groups, over the exact enumeration "
                f"limit of {EXACT_GROUP_LIMIT} per tree; use tree_group_shap instead"
            )
    group_feats = [idx for _, idx in grouping.groups]
    phi = np.zeros((X.shape[0], grouping.n_groups))
    for t, p in zip(model.trees, players):
        k = len(p)
        game = TreeEnsemble([t], model.n_features, 0.0)
        w = [1 / (k * math.comb(k - 1, c)) for c in range(k)]  # c! (k-c-1)! / k!
        phi_t = np.zeros((X.shape[0], k))
        for mask in range(1 << k):
            member = [mask >> j & 1 for j in range(k)]
            c = sum(member)
            feats = [f for j in range(k) if member[j] for f in group_feats[p[j]]]
            coef = np.array([w[c - 1] if m else -w[c] for m in member])
            phi_t += value_function(game, X, feats)[:, None] * coef
        phi[:, p] += phi_t
    return phi[0] if one else phi


def exact_individual_shapley(model: TreeEnsemble, x) -> np.ndarray:
    """Exact Shapley per feature: the singleton-grouping special case."""
    names = model.feature_names or [f"f{i}" for i in range(model.n_features)]
    return exact_group_shapley(
        model, x, FeatureGrouping.singletons(model.n_features, list(names))
    )


# --------------------------------------------------------------------------
# fast per-node path attribution


def base_value(model: TreeEnsemble) -> float:
    """Value of the empty coalition: base_score plus each tree's root value."""
    return float(model.base_score + sum(t.value[t.root] for t in model.trees))


def tree_group_shap(model: TreeEnsemble, X, grouping: FeatureGrouping) -> ShapMatrix:
    """Path attribution: walk each observation's decision path per tree and add
    value(child taken) - value(node) to the group owning the split feature.

    The deltas telescope, so each row satisfies sum(phi) + base = prediction
    exactly. On single-split stumps this coincides with the exact oracle.
    """
    if grouping.n_features != model.n_features:
        raise ShapeError("grouping does not match the model's feature count")
    X, _ = feature_matrix(X, model.n_features)
    S = X.shape[0]
    K = grouping.n_groups
    f2g = grouping.feature_to_group()
    phi = np.zeros((S, K))
    for t in model.trees:
        for rows, nodes, children in t.descend(X):
            np.add.at(phi, (rows, f2g[t.feature[nodes]]), t.value[children] - t.value[nodes])
    base = base_value(model)
    return ShapMatrix(phi, np.full(S, base), list(grouping.names))
