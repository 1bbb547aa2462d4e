"""Tree training, prediction and model-file round trips."""

import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from groupshap import tree
from groupshap.cli import main
from groupshap.errors import (
    GroupingError,
    ModelInvariantError,
    ModelParseError,
    ShapeError,
    TargetRequired,
)
from groupshap.shapley import (
    FeatureGrouping,
    exact_group_shapley,
    read_grouping_file,
    read_shap_csv,
    tree_group_shap,
    value_function,
)
from groupshap.simgen import read_simspec_file
from groupshap.tree import (
    LEAF,
    DataError,
    Dataset,
    Tree,
    TreeEnsemble,
    TreeShapeError,
    _grow_tree,
    _loadtxt_numeric_csv,
    _scan_numeric_csv,
    load_model,
    read_csv_dataset,
    read_numeric_csv,
    save_model,
    train_gbm,
)

from conftest import (
    build_tree,
    chain_tree,
    leaf_tree,
    random_ensemble,
    random_partition,
    reference_path_attribution,
    reference_train_gbm,
    reference_value_function,
    stump,
)


def _check_node_invariants(model: TreeEnsemble):
    for t in model.trees:
        for i in range(t.n_nodes):
            if t.feature[i] == LEAF:
                continue
            l, r = t.left[i], t.right[i]
            assert t.cover[i] == pytest.approx(t.cover[l] + t.cover[r], rel=1e-9)
            weighted = (t.cover[l] * t.value[l] + t.cover[r] * t.value[r]) / t.cover[i]
            assert t.value[i] == pytest.approx(weighted, rel=1e-9, abs=1e-12)


def test_constant_target_gives_constant_predictions(rng):
    X = rng.uniform(size=(40, 3))
    data = Dataset(X=X, y=np.full(40, 3.25), columns=["a", "b", "c"])
    model = train_gbm(data, n_trees=10)
    preds = model.predict_many(rng.uniform(size=(20, 3)))
    np.testing.assert_allclose(preds, 3.25)


def test_single_stump_variance_reduction(rng):
    # two clusters; the best cut sits between them
    x = np.concatenate([rng.uniform(0.0, 0.4, 30), rng.uniform(0.6, 1.0, 30)])
    y = np.where(x < 0.5, 1.0, 3.0) + rng.normal(0, 0.05, 60)
    data = Dataset(X=x[:, None], y=y, columns=["x"])
    model = train_gbm(data, n_trees=1, max_depth=1, learning_rate=1.0, min_samples_leaf=1)
    (tree,) = model.trees
    assert tree.feature[tree.root] == 0
    assert 0.4 <= tree.threshold[tree.root] <= 0.6
    mse = float(np.mean((model.predict_many(data.X) - y) ** 2))
    assert mse <= np.var(y)


def test_fit_recovers_generating_function(rng):
    # oracle: the known generating function y = x1 + noise
    X = rng.uniform(size=(300, 2))
    y = X[:, 0] + rng.normal(0, 0.01, 300)
    data = Dataset(X=X[:200], y=y[:200], columns=["x0", "x1"])
    model = train_gbm(data, n_trees=50, max_depth=3)
    held_out = float(np.mean((model.predict_many(X[200:]) - y[200:]) ** 2))
    assert held_out < 0.05
    _check_node_invariants(model)


def test_learning_rate_one_single_tree_is_plain_cart(rng):
    X = rng.uniform(size=(60, 3))
    y = rng.normal(size=60)
    data = Dataset(X=X, y=y, columns=list("abc"))
    model = train_gbm(data, n_trees=1, max_depth=3, learning_rate=1.0)
    order = np.argsort(X, axis=0, kind="stable").T
    xs = np.sort(X, axis=0).T
    cart = _grow_tree(X, y - y.mean(), order, xs, max_depth=3, min_leaf=5, scale=1.0)
    (boosted,) = model.trees
    np.testing.assert_array_equal(boosted.feature, cart.feature)
    np.testing.assert_array_equal(boosted.value, cart.value)


def _training_case(case, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(120, 4))
    y = np.sin(4 * X[:, 0]) + X[:, 1] + rng.normal(0, 0.1, 120)
    kw = {"n_trees": 8, "max_depth": 3}
    if case == "ties":  # integer-valued features: many tied sort keys
        X = rng.integers(0, 4, size=(120, 4)).astype(float)
        y = X[:, 0] - 0.5 * X[:, 2] + rng.normal(0, 0.3, 120)
    elif case == "constant_feature":
        X[:, 1] = 0.75
    elif case == "constant_target":
        y = np.full(120, -1.5)
    elif case == "leaf_boundary":  # n = 2 * min_samples_leaf: one legal cut
        X, y = X[:14], y[:14]
        kw["min_samples_leaf"] = 7
    elif case == "leaf_boundary_plus_one":
        X, y = X[:15], y[:15]
        kw["min_samples_leaf"] = 7
    elif case == "deep_small_leaves":
        kw.update(max_depth=6, min_samples_leaf=1)
    return Dataset(X=X, y=y, columns=list("abcd")), kw


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "case",
    ["plain", "ties", "constant_feature", "constant_target",
     "leaf_boundary", "leaf_boundary_plus_one", "deep_small_leaves"],
)
def test_presorted_training_matches_per_node_sort_byte_for_byte(tmp_path, case, seed):
    data, kw = _training_case(case, seed)
    save_model(train_gbm(data, **kw), tmp_path / "fast.model")
    save_model(reference_train_gbm(data, **kw), tmp_path / "reference.model")
    assert (tmp_path / "fast.model").read_bytes() == (tmp_path / "reference.model").read_bytes()


def test_presorted_values_stay_aligned_with_order_through_tied_partitions(tmp_path, monkeypatch):
    # three distinct values per column, so long runs of ties survive every
    # partition down to depth 4
    rng = np.random.default_rng(11)
    X = rng.integers(0, 3, size=(200, 4)).astype(float)
    y = X[:, 0] * X[:, 1] - X[:, 2] + rng.normal(0, 0.2, 200)
    data = Dataset(X=X, y=y, columns=list("abcd"))
    kw = {"n_trees": 5, "max_depth": 4, "min_samples_leaf": 2}
    best_split, nodes = tree._best_split, []

    def checked(resid, rows, order, xs, min_leaf):
        # every line of order holds the node's rows, and xs their values
        assert (np.sort(order, axis=1) == rows).all()
        assert xs.tobytes() == np.take_along_axis(X.T, order, axis=1).tobytes()
        nodes.append(len(rows))
        return best_split(resid, rows, order, xs, min_leaf)

    monkeypatch.setattr(tree, "_best_split", checked)
    model = train_gbm(data, **kw)
    assert max(t.depth for t in model.trees) == 4 and min(nodes) < 20
    save_model(model, tmp_path / "fast.model")
    save_model(reference_train_gbm(data, **kw), tmp_path / "reference.model")
    assert (tmp_path / "fast.model").read_bytes() == (tmp_path / "reference.model").read_bytes()


def test_predict_empty_ensemble_returns_base():
    model = TreeEnsemble(trees=[], n_features=2, base_score=1.75)
    assert model.predict_many([0.1, 0.9]).tolist() == [1.75]


def test_predict_follows_stump_path():
    model = TreeEnsemble(trees=[stump(0, 0.5, 1.0, 2.0)], n_features=1, base_score=0.0)
    # ties go left
    assert model.predict_many([[0.2], [0.5], [0.7]]).tolist() == [1.0, 1.0, 2.0]


def test_descend_walks_each_row_one_level_at_a_time():
    # the root splits on x0 into leaf 1 and node 2, which splits on x1 into
    # leaves 3 and 4
    t = build_tree((0, 0.5, (1.0, 10), (1, 0.5, (2.0, 10), (3.0, 10))))
    # edge 2 * node + went_left leads to 2 * child; a leaf's edges loop back
    assert t.edge_next.tolist() == [4, 2, 2, 2, 8, 6, 6, 6, 8, 8]
    X = np.array([[0.2, 0.9], [0.7, 0.2], [0.7, 0.9]])
    # every row takes an edge at every level; row 0 stays at leaf 1 once it
    # is there
    levels = [edges.tolist() for edges in t.descend(X)]
    assert t.depth == 2
    assert levels == [[1, 0, 0], [3, 5, 4]]
    assert (t.edge_next[levels[-1]] >> 1).tolist() == [1, 3, 4]
    np.testing.assert_array_equal(t.leaf_values(X), [1.0, 2.0, 3.0])


def _reversed_ids(doc):
    """The model document with every tree's node ids reversed, so that each
    root is the last node."""
    for tree_doc in doc["trees"]:
        last = len(tree_doc["nodes"]) - 1
        for nd in tree_doc["nodes"]:
            nd["id"] = last - nd["id"]
            if nd["left"] is not None:
                nd["left"], nd["right"] = last - nd["left"], last - nd["right"]
    return doc


def _walk_case(case, rng, tmp_path):
    """A model of one of the walk's edge shapes, and rows to walk it with."""
    if case == "root_leaf":
        model = TreeEnsemble([leaf_tree(2.5), stump(1, 0.5, -1.0, 1.0), leaf_tree(-0.75)], 3, 0.25)
        assert [t.depth for t in model.trees] == [0, 1, 0]
    elif case == "chain_depth_8":
        model = TreeEnsemble(
            [chain_tree(range(8)), chain_tree([3, 1, 4, 1, 5, 2, 6, 0])], 8, -0.5
        )
        assert [t.depth for t in model.trees] == [8, 8]
    else:
        X = rng.uniform(size=(300, 5))
        y = np.sin(4 * X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(0, 0.1, 300)
        depth = 6 if case == "trained_depth_6" else 3
        model = train_gbm(Dataset(X=X, y=y, columns=list("abcde")), n_trees=6,
                          max_depth=depth, min_samples_leaf=2)
        if case == "loaded_root_not_0":
            path = tmp_path / "m.model"
            save_model(model, path)
            with open(path) as fh:
                doc = _reversed_ids(json.load(fh))
            path.write_text(json.dumps(doc))
            model = load_model(path)
            assert all(t.root == t.n_nodes - 1 > 0 for t in model.trees)
        assert max(t.depth for t in model.trees) == depth
    X = rng.uniform(size=(200, model.n_features))
    # rows on every threshold (ties go left), and rows down the left spine
    X[:3] = 0.5
    X[3:6] = 0.1
    return model, X


def _check_walk_against_scalar_walks(model, X, rng):
    """predict_many and tree_group_shap on X, bit for bit against a scalar
    walk of each row."""
    F = model.n_features
    expected = np.array([reference_value_function(model, x, set(range(F))) for x in X])
    assert model.predict_many(X).tobytes() == expected.tobytes()
    grouping = FeatureGrouping(random_partition(rng, F, min(3, F)), F)
    f2g = grouping.feature_to_group()
    expected = np.array(
        [reference_path_attribution(model, x, f2g, grouping.n_groups) for x in X]
    )
    assert tree_group_shap(model, X, grouping).values.tobytes() == expected.tobytes()


_WALK_CASES = ["root_leaf", "chain_depth_8", "loaded_root_not_0", "trained_depth_6"]


@pytest.mark.parametrize("case", _WALK_CASES)
def test_walk_matches_a_scalar_per_row_walk_bit_for_bit(rng, tmp_path, case):
    model, X = _walk_case(case, rng, tmp_path)
    _check_walk_against_scalar_walks(model, X, rng)


@pytest.mark.parametrize("case", _WALK_CASES)
def test_walk_in_row_blocks_matches_a_scalar_per_row_walk(rng, tmp_path, monkeypatch, case):
    model, X = _walk_case(case, rng, tmp_path)
    # blocks of 64 rows: the 200 rows make three full blocks and a tail of 8
    monkeypatch.setattr(tree, "ROW_BLOCK_FLOATS", 64 * model.n_features)
    blocks = tree.row_blocks(*X.shape)
    assert [b.stop - b.start for b in blocks] == [64, 64, 64, 8]
    _check_walk_against_scalar_walks(model, X, rng)


def test_tree_split_arrays_are_read_only_copies():
    # the edge tables are built once, so the arrays they come from must not
    # change
    feature, value = np.array([0, LEAF, LEAF]), np.array([1.5, 1.0, 2.0])
    tree = Tree(feature=feature, threshold=np.array([0.5, math.nan, math.nan]),
                left=np.array([1, LEAF, LEAF]), right=np.array([2, LEAF, LEAF]),
                value=value, cover=np.array([2.0, 1.0, 1.0]))
    feature[0], value[1] = 5, 9.0  # the caller's arrays, not the tree's
    assert tree.feature[0] == 0 and tree.value[1] == 1.0
    for name in ("feature", "threshold", "left", "right", "value", "cover", "edge_feature",
                 "edge_threshold", "edge_next", "edge_value", "edge_delta"):
        assert not getattr(tree, name).flags.writeable
    # edge 2 * node + went_left: the value of the node it leads to, and the
    # change from its own node's value
    assert tree.edge_value.tolist() == [2.0, 1.0, 1.0, 1.0, 2.0, 2.0]
    assert tree.edge_delta.tolist() == [0.5, -0.5, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(AttributeError):
        tree.root = 1


def test_tree_with_a_cycle_is_refused_at_construction():
    # node 1 leads back to the root, so no node is parentless
    with pytest.raises(ValueError, match="cycle"):
        Tree(feature=np.array([0, 0, LEAF]), threshold=np.array([0.5, 0.5, math.nan]),
             left=np.array([1, 0, LEAF]), right=np.array([2, 2, LEAF]),
             value=np.zeros(3), cover=np.ones(3))


# Node graphs that are not one tree, as (feature, left, right), with the node
# at fault and what the walk says about it. A split is on feature 0.
_NOT_A_TREE = {
    "two roots": (([0, LEAF, LEAF, LEAF], [1, LEAF, LEAF, LEAF], [2, LEAF, LEAF, LEAF]),
                  3, "only parentless node"),
    "two parents": (([0, 0, LEAF, LEAF], [1, 2, LEAF, LEAF], [2, 3, LEAF, LEAF]),
                    2, "more than one parent"),
    # nodes 3 and 4 are each other's left child, beside the stump
    "unreachable": (([0, LEAF, LEAF, 0, 0, LEAF, LEAF], [1, LEAF, LEAF, 4, 3, LEAF, LEAF],
                     [2, LEAF, LEAF, 5, 6, LEAF, LEAF]), 3, "unreachable nodes"),
    "child out of range": (([0, LEAF, LEAF], [1, LEAF, LEAF], [7, LEAF, LEAF]),
                           0, "child ids out of range"),
}


@pytest.mark.parametrize("case", sorted(_NOT_A_TREE))
def test_tree_that_is_not_one_tree_is_refused_at_construction(case):
    (feature, left, right), node, reason = _NOT_A_TREE[case]
    n = len(feature)
    with pytest.raises(ValueError, match=reason) as err:
        Tree(feature=feature, threshold=np.full(n, 0.5), left=left, right=right,
             value=np.zeros(n), cover=np.ones(n))
    assert isinstance(err.value, TreeShapeError) and err.value.node == node


def test_hand_built_tree_whose_root_is_not_node_0(tmp_path):
    # node 2, the one parentless node, splits into leaves 0 and 1
    t = Tree(feature=[LEAF, LEAF, 0], threshold=[math.nan, math.nan, 0.5],
             left=[LEAF, LEAF, 0], right=[LEAF, LEAF, 1], value=[1.0, 2.0, 1.5],
             cover=[1.0, 1.0, 2.0])
    assert (t.root, t.depth) == (2, 1)
    model = TreeEnsemble([t], 1, 0.25)
    assert model.predict_many([[0.2], [0.7]]).tolist() == [1.25, 2.25]
    save_model(model, tmp_path / "a.model")
    loaded = load_model(tmp_path / "a.model")
    assert loaded.trees[0].root == 2
    assert loaded.predict_many([[0.2], [0.7]]).tolist() == [1.25, 2.25]
    save_model(loaded, tmp_path / "b.model")
    assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()


# Stumps that are one tree but not a valid one, each as edits (field, node,
# value) of a stump on feature 0 with covers 3 = 1 + 2 and values 0.5 =
# (1 * -0.5 + 2 * 1.0) / 3, with the node at fault and the loader's reason
_BAD_NODES = {
    "negative split feature": ([("feature", 0, -2)], 0, "split feature -2 is negative"),
    "nan threshold": ([("threshold", 0, math.nan)], 0, "threshold nan is not finite"),
    "infinite value": ([("value", 2, math.inf)], 2, "value inf is not finite"),
    "nan cover": ([("cover", 1, math.nan)], 1, "cover nan is not finite"),
    "negative cover": ([("cover", 1, -1.0), ("cover", 2, 4.0)], 1, "cover must be nonnegative"),
    "cover not the children's sum": ([("cover", 0, 5.0)], 0, "cover 5.0 != 1.0 + 2.0"),
    "internal zero cover": ([("cover", 0, 0.0), ("cover", 1, 0.0), ("cover", 2, 0.0)], 0,
                            "internal node with zero cover"),
    "value not the children's mean": ([("value", 0, 0.75)], 0,
                                      "value 0.75 != cover-weighted child mean 0.5"),
}


def _stump_fields(edits=()):
    fields = dict(feature=[0, LEAF, LEAF], threshold=[0.5, math.nan, math.nan],
                  left=[1, LEAF, LEAF], right=[2, LEAF, LEAF], value=[0.5, -0.5, 1.0],
                  cover=[3.0, 1.0, 2.0])
    for key, node, bad in edits:
        fields[key][node] = bad
    return fields


@pytest.mark.parametrize("case", sorted(_BAD_NODES))
def test_tree_with_a_bad_node_is_refused_at_construction(tmp_path, case):
    edits, node, reason = _BAD_NODES[case]
    with pytest.raises(TreeShapeError, match=re.escape(f"{reason} (node {node})")) as err:
        Tree(**_stump_fields(edits))
    assert (err.value.reason, err.value.node) == (reason, node)
    # a model file holding the same tree is refused for the same reason
    doc = {"version": 1, "base_score": 0.0, "n_features": 1,
           "trees": [{"nodes": tree._tree_to_nodes(Tree(**_stump_fields()))}]}
    for key, i, bad in edits:
        doc["trees"][0]["nodes"][i][key] = bad
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelInvariantError, match=re.escape(reason)) as err:
        load_model(path)
    assert (err.value.tree_index, err.value.node_index) == (0, node)


def test_load_rejects_a_split_on_the_leaf_marker(tmp_path):
    # in code feature -1 marks a leaf; a model file marks one with nulls
    doc = _stump_doc()
    doc["trees"][0]["nodes"][1].update(feature=-1, threshold=0.5, left=-1, right=-1)
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelInvariantError, match="split feature -1 is negative") as err:
        load_model(path)
    assert (err.value.tree_index, err.value.node_index) == (0, 1)


def test_internal_values_within_the_tolerance_are_stored_as_the_exact_mean():
    fields = _stump_fields()
    exact = (1.0 * 0.1 + 2.0 * 0.7) / 3.0
    fields["value"] = [exact + 4e-10, 0.1, 0.7]
    t = Tree(**fields)
    assert t.value[0] == exact and t.edge_delta[:2].tolist() == [0.7 - exact, 0.1 - exact]
    # the tolerance scales with the children's values: a root whose
    # residuals cancel is rounding noise, off by more than 1e-9 at 1e10
    fields["value"] = [3e-7, 2e10, -1e10]
    assert Tree(**fields).value[0] == 0.0


@pytest.mark.parametrize("width", [3, 2])
def test_ensemble_refuses_a_split_outside_its_width(tmp_path, width):
    # past the width, the walk below the root reads another row's cells or
    # indexes past the end of X
    far = 5 if width == 3 else 2
    trees = [leaf_tree(1.0), build_tree((0, 0.5, (1.0, 1.0), (far, 0.5, (2.0, 1.0), (3.0, 1.0))))]
    reason = f"split feature {far} outside [0, {width})"
    with pytest.raises(TreeShapeError, match=re.escape(f"{reason} (tree 1, node 2)")) as err:
        TreeEnsemble(trees, width, 0.0)
    assert (err.value.reason, err.value.tree, err.value.node) == (reason, 1, 2)
    path = tmp_path / "wide.model"
    save_model(TreeEnsemble(trees, far + 1, 0.0), path)
    doc = json.loads(path.read_text())
    doc["n_features"] = width
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelInvariantError, match=re.escape(reason)) as err:
        load_model(path)
    assert (err.value.tree_index, err.value.node_index) == (1, 2)


def test_ensemble_is_frozen_with_a_tuple_of_trees():
    # a tree added after construction would skip the width check, and the
    # walk would end in an IndexError
    model = TreeEnsemble([leaf_tree(1.0)], 3, 0.0)
    wide = build_tree((5, 0.5, (1.0, 1.0), (2.0, 1.0)))
    with pytest.raises(AttributeError):
        model.trees.append(wide)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.trees = [wide]
    assert isinstance(model.trees, tuple) and len(model.trees) == 1
    both = TreeEnsemble(model.trees + model.trees, 3, 0.5)
    np.testing.assert_array_equal(both.predict_many(np.zeros((2, 3))), [2.5, 2.5])


def test_predict_is_deterministic_and_shape_checked(rng):
    model = random_ensemble(rng, 4, 5, 3)
    x = rng.uniform(size=4)
    assert model.predict_many(x).tobytes() == model.predict_many(x).tobytes()
    with pytest.raises(ShapeError):
        model.predict_many(x[:3])
    with pytest.raises(ShapeError):
        model.predict_many(rng.uniform(size=(5, 3)))


_GROUPING = FeatureGrouping.singletons(3)
# every entry point that takes a feature matrix, as its call and its result
# per row, and each kind of bad matrix
_MATRIX_ENTRY_POINTS = {
    "predict_many": lambda m, X: m.predict_many(X),
    "value_function": lambda m, X: value_function(m, X, [0, 2]),
    "exact_group_shapley": lambda m, X: exact_group_shapley(m, X, _GROUPING).values,
    "tree_group_shap": lambda m, X: tree_group_shap(m, X, _GROUPING).values,
}
_BAD_MATRICES = {
    "ragged": [[0.1, 0.2, 0.3], [0.4, 0.5]],
    "3-D": np.zeros((2, 3, 3)),
    "wrong width": np.zeros((2, 4)),
    "nan": [0.1, math.nan, 0.3],
    "inf": [0.1, 0.2, -math.inf],
}


@pytest.mark.parametrize("entry", sorted(_MATRIX_ENTRY_POINTS))
@pytest.mark.parametrize("bad", sorted(_BAD_MATRICES))
def test_every_feature_matrix_entry_point_rejects_bad_matrices(rng, entry, bad):
    model, call = random_ensemble(rng, 3, 4, 3), _MATRIX_ENTRY_POINTS[entry]
    # a feature vector is one row, with the bits it has in a matrix
    X = rng.uniform(size=(2, 3))
    assert call(model, X[0]).tobytes() == call(model, X)[:1].tobytes()
    with pytest.raises(ShapeError):
        call(model, _BAD_MATRICES[bad])


def test_missing_target_raises():
    data = Dataset(X=np.ones((20, 1)), y=None, columns=["a"])
    with pytest.raises(TargetRequired):
        train_gbm(data)


@pytest.mark.parametrize("where", ["inf in y", "nan in X", "short y"])
def test_train_gbm_rejects_bad_inputs(rng, where):
    # a Dataset built in code bypasses the CSV reader's checks; an inf target
    # would otherwise train and write a model with base_score Infinity
    X, y = rng.normal(size=(40, 2)), rng.normal(size=40)
    if where == "inf in y":
        y[7] = np.inf
    elif where == "nan in X":
        X[3, 1] = np.nan
    else:
        y = y[:-1]
    error = ShapeError if where == "nan in X" else DataError
    with pytest.raises(error):
        train_gbm(Dataset(X=X, y=y, columns=["a", "b"]), n_trees=2)


def test_too_few_rows_raises():
    data = Dataset(X=np.ones((6, 1)), y=np.ones(6), columns=["a"])
    with pytest.raises(DataError):
        train_gbm(data, min_samples_leaf=5)


# --------------------------------------------------------------------------
# serialization


def test_save_load_round_trip(tmp_path, rng):
    X = rng.uniform(size=(80, 3))
    y = X[:, 0] * 2 + np.sin(5 * X[:, 1]) + rng.normal(0, 0.1, 80)
    model = train_gbm(Dataset(X=X, y=y, columns=list("abc")), n_trees=3, max_depth=2)
    path = tmp_path / "m.model"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.base_score == model.base_score
    assert loaded.n_features == model.n_features
    assert loaded.feature_names == model.feature_names
    assert len(loaded.trees) == len(model.trees)
    for a, b in zip(loaded.trees, model.trees):
        np.testing.assert_array_equal(a.feature, b.feature)
        np.testing.assert_array_equal(a.left, b.left)
        np.testing.assert_array_equal(a.right, b.right)
        np.testing.assert_array_equal(a.cover, b.cover)
        # internal values are recomputed bottom-up on load, as training
        # computed them
        assert a.value.tobytes() == b.value.tobytes()
        np.testing.assert_allclose(
            a.threshold, b.threshold, rtol=0, atol=0, equal_nan=True
        )
    # a trained model is a fixed point of save and load
    save_model(loaded, tmp_path / "again.model")
    assert (tmp_path / "again.model").read_bytes() == path.read_bytes()


def test_round_trip_predictions_bit_identical(tmp_path, rng):
    X = rng.uniform(size=(120, 4))
    y = X @ [1.0, -2.0, 0.5, 0.0] + rng.normal(0, 0.05, 120)
    model = train_gbm(Dataset(X=X, y=y, columns=list("abcd")), n_trees=10)
    path = tmp_path / "m.model"
    save_model(model, path)
    loaded = load_model(path)
    probe = rng.uniform(size=(1000, 4))
    np.testing.assert_array_equal(loaded.predict_many(probe), model.predict_many(probe))


def _stump_doc(cover_left=60.0, cover_right=40.0, parent_cover=None, parent_value=None):
    if parent_cover is None:
        parent_cover = cover_left + cover_right
    if parent_value is None:
        parent_value = (cover_left * 1.0 + cover_right * 3.0) / (cover_left + cover_right)
    return {
        "version": 1,
        "base_score": 0.5,
        "n_features": 2,
        "feature_names": ["u", "v"],
        "trees": [
            {
                "nodes": [
                    {"id": 0, "feature": 1, "threshold": 0.25, "left": 1, "right": 2,
                     "value": parent_value, "cover": parent_cover},
                    {"id": 1, "feature": None, "threshold": None, "left": None,
                     "right": None, "value": 1.0, "cover": cover_left},
                    {"id": 2, "feature": None, "threshold": None, "left": None,
                     "right": None, "value": 3.0, "cover": cover_right},
                ]
            }
        ],
    }


def test_load_hand_written_stump(tmp_path):
    path = tmp_path / "stump.model"
    path.write_text(json.dumps(_stump_doc()))
    model = load_model(path)
    # hand evaluation: base 0.5 plus the leaf picked on feature v
    np.testing.assert_allclose(model.predict_many([[9.9, 0.1], [9.9, 0.9]]), [1.5, 3.5])


def test_load_rejects_cover_mismatch(tmp_path):
    doc = _stump_doc(parent_cover=150.0)
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelInvariantError):
        load_model(path)


def test_load_rejects_value_mismatch(tmp_path):
    doc = _stump_doc(parent_value=2.5)  # weighted mean is 1.8
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelInvariantError):
        load_model(path)


def test_load_reports_node_index_for_malformed_nodes(tmp_path):
    doc = _stump_doc()
    del doc["trees"][0]["nodes"][2]["value"]
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelParseError) as err:
        load_model(path)
    assert err.value.node_index == 2


def test_load_rejects_cycles(tmp_path):
    doc = _stump_doc()
    # node 2 points back at the root
    doc["trees"][0]["nodes"][2].update(
        {"feature": 0, "threshold": 0.5, "left": 0, "right": 1}
    )
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelInvariantError):
        load_model(path)


def test_load_rejects_a_cycle_apart_from_the_root(tmp_path):
    doc = _stump_doc()
    # nodes 3 and 4 are each other's left child, beside the stump
    doc["trees"][0]["nodes"] += [
        {"id": 3, "feature": 0, "threshold": 0.5, "left": 4, "right": 5,
         "value": 1.0, "cover": 2.0},
        {"id": 4, "feature": 0, "threshold": 0.5, "left": 3, "right": 6,
         "value": 1.0, "cover": 2.0},
        {"id": 5, "feature": None, "threshold": None, "left": None,
         "right": None, "value": 1.0, "cover": 1.0},
        {"id": 6, "feature": None, "threshold": None, "left": None,
         "right": None, "value": 1.0, "cover": 1.0},
    ]
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelInvariantError, match="unreachable nodes"):
        load_model(path)


@pytest.mark.parametrize("case", sorted(_NOT_A_TREE))
def test_load_names_the_node_of_a_graph_that_is_not_one_tree(tmp_path, case):
    (feature, left, right), node, reason = _NOT_A_TREE[case]
    doc = _stump_doc()
    doc["trees"][0]["nodes"] = [
        {"id": i, "feature": None if f == LEAF else f, "threshold": None if f == LEAF else 0.5,
         "left": None if f == LEAF else l, "right": None if f == LEAF else r,
         "value": 1.0, "cover": 1.0}
        for i, (f, l, r) in enumerate(zip(feature, left, right))
    ]
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelInvariantError, match=reason) as err:
        load_model(path)
    assert (err.value.tree_index, err.value.node_index) == (0, node)


# Model fields of the wrong JSON type that int() or float() would take, each
# as (node or None for the top level, key, value) edits of the stump document
_WRONG_TYPES = {
    "id true": [(1, "id", True)],
    "feature true": [(0, "feature", True)],
    "left true": [(0, "left", True)],
    "feature beyond 64 bits": [(0, "feature", 2**70)],
    "right beyond 64 bits": [(0, "right", -2**70)],
    "threshold true": [(0, "threshold", True)],
    "threshold string": [(0, "threshold", "0.25")],
    "value true": [(1, "value", True)],
    "cover string": [(1, "cover", "60.0")],
    "version true": [(None, "version", True)],
    "version float": [(None, "version", 1.0)],
    "n_features true": [(None, "n_features", True), (None, "feature_names", None),
                        (0, "feature", 0)],
    "base_score string": [(None, "base_score", "0.5")],
    "duplicate feature_names": [(None, "feature_names", ["u", "u"])],
    "feature_names not strings": [(None, "feature_names", [0, 1])],
}


@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_model_fields_take_json_types_exactly(tmp_path, capsys, case):
    doc = _stump_doc()
    for node, key, bad in _WRONG_TYPES[case]:
        (doc if node is None else doc["trees"][0]["nodes"][node])[key] = bad
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelParseError) as err:
        load_model(path)
    node = _WRONG_TYPES[case][0][0]
    if node is not None:
        assert (err.value.tree_index, err.value.node_index) == (0, node)
    # the model is read before the other files, which need not exist
    assert main(["explain", "--model", str(path), "--data", str(tmp_path / "d.csv"),
                 "--groups", str(tmp_path / "g.txt"), "--out", str(tmp_path / "s.csv")]) == 2
    stderr = capsys.readouterr().err
    assert str(err.value) in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("text", ["[" * 200_000, '{"version": ' + "1" * 5000 + "}"])
def test_load_rejects_json_that_python_cannot_read(tmp_path, text):
    # nesting deeper than the recursion limit, an integer over the digit limit
    path = tmp_path / "bad.model"
    path.write_text(text)
    with pytest.raises(ModelParseError, match="invalid JSON"):
        load_model(path)


def test_load_rejects_out_of_range_feature(tmp_path):
    doc = _stump_doc()
    doc["trees"][0]["nodes"][0]["feature"] = 7
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelInvariantError):
        load_model(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("node, key", [(0, "threshold"), (0, "value"), (2, "value"), (1, "cover")])
def test_load_rejects_non_finite_node_numbers(tmp_path, node, key, bad):
    # a NaN threshold would send every row right, silently
    doc = _stump_doc()
    doc["trees"][0]["nodes"][node][key] = bad
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelInvariantError, match=f"{key} .* is not finite") as err:
        load_model(path)
    assert (err.value.tree_index, err.value.node_index) == (0, node)


@pytest.mark.parametrize("bad", ["x", [0.5]])
def test_load_rejects_a_threshold_that_is_not_a_number(tmp_path, bad):
    doc = _stump_doc()
    doc["trees"][0]["nodes"][0]["threshold"] = bad
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelParseError, match="bad node fields") as err:
        load_model(path)
    assert err.value.node_index == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_load_rejects_non_finite_base_score(tmp_path, bad):
    doc = _stump_doc()
    doc["base_score"] = bad
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelInvariantError, match="base_score .* is not finite"):
        load_model(path)


def test_trained_models_satisfy_node_invariants(rng):
    X = rng.uniform(size=(150, 5))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + rng.normal(0, 0.1, 150)
    # at 1e10 the first root's mean residual is rounding noise of about 1e-7
    for scale in (1.0, 1e10):
        model = train_gbm(Dataset(X=X, y=scale * y, columns=list("abcde")), n_trees=25,
                          max_depth=4)
        _check_node_invariants(model)


def test_leaf_only_tree_round_trip(tmp_path):
    model = TreeEnsemble(trees=[leaf_tree(0.0, 33)], n_features=1, base_score=2.0)
    path = tmp_path / "leaf.model"
    save_model(model, path)
    assert load_model(path).predict_many([0.123]).tolist() == [2.0]


# --------------------------------------------------------------------------
# CSV ingestion


def test_read_csv_dataset(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,target\n1.0,2.0,3.5\n4.0,5.0,6.5\n")
    data = read_csv_dataset(path, target="target")
    assert data.columns == ["a", "b"]
    np.testing.assert_array_equal(data.X, [[1.0, 2.0], [4.0, 5.0]])
    np.testing.assert_array_equal(data.y, [3.5, 6.5])


def test_read_csv_rejects_missing_values(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1.0,\n")
    with pytest.raises(DataError):
        read_csv_dataset(path)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
def test_read_csv_rejects_non_finite_values(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"a,b\n1.0,2.0\n\n3.0,{cell}\n")
    with pytest.raises(DataError, match=r"d\.csv:4: .*non-finite"):
        read_csv_dataset(path)


def test_read_csv_rejects_unknown_target(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(DataError):
        read_csv_dataset(path, target="nope")


def test_read_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(DataError):
        read_csv_dataset(path)


@pytest.mark.parametrize("header", ["a,a,y", "a, b,y,b "])
def test_read_csv_rejects_duplicate_column_names(tmp_path, header):
    path = tmp_path / "d.csv"
    width = header.count(",") + 1
    path.write_text(header + "\n" + ",".join(["1.5"] * width) + "\n")
    name = header.split(",")[1].strip()
    with pytest.raises(DataError) as exc:
        read_csv_dataset(path, target="y")
    assert str(exc.value) == f"{path}: duplicate column name {name!r}"


# Inputs on which np.loadtxt and the csv/float scan could part ways. The fast
# path either gives the scan's header and bits or hands the file to the scan,
# so read_numeric_csv returns what the scan returns, or raises its message.
_READER_EDGES = {
    "cr_only": b"a,b\r1,2.5\r3,4\r",
    "crlf": b"a,b\r\n1,2.5\r\n3,4\r\n",
    "cr_inside_a_row": b"a,b\n1,2\r3,4\n",
    "quoted_header_newline": b'"a\nx",b\n1,2\n',
    "quoted_header": b'"a",b\n1,2\n',
    "hash_cell": b"a,b\n1,#\n",
    "hash_row": b"a,b\n#,2\n1,2\n",
    "blank_line": b"a,b\n1,2\n\n3,4\n",
    "whitespace_line": b"a,b\n1,2\n  \n3,4\n",
    "tab_line_one_column": b"a\n1\n\t\n2\n",
    "short_row": b"a,b\n1,2\n3\n",
    "long_row": b"a,b\n1,2\n3,4,5\n",
    "every_row_long": b"a,b\n1,2,3\n4,5,6\n",
    "nan_cell": b"a,b\n1,2\n3,nan\n",
    "inf_label": b"obs_id,b\ninf,2\n",
    "text_labels": b"obs_id,b\nbond_1,2\nbond_2,3\n",
    "bom": "\ufeffobs_id,b\n1,2\n".encode(),
    "no_final_newline": b"a,b\n1,2\n3,4",
    "information_separator": b"a,b\n1,2\x1c\n",
    "underscore_digits": b"a,b\n1_000,2\n",
    "arabic_digit": "a,b\n\u0661,2\n".encode(),
    "no_rows": b"a,b\n",
    "empty": b"",
}
_PLAIN = {"cr_only", "crlf", "cr_inside_a_row", "blank_line", "bom", "no_final_newline"}


@pytest.mark.parametrize("labels", [0, 1])
@pytest.mark.parametrize("case", sorted(_READER_EDGES))
def test_numeric_csv_fast_path_agrees_with_the_scan(tmp_path, case, labels):
    path = tmp_path / "t.csv"
    path.write_bytes(_READER_EDGES[case])

    def outcome(read):
        try:
            header, cells = read()
        except DataError as exc:
            return str(exc)
        return header, cells.shape, cells.tobytes()

    scan = outcome(lambda: _scan_numeric_csv(path, DataError, labels))
    fast = _loadtxt_numeric_csv(path, labels)
    if fast is not None:
        assert (fast[0], fast[1].shape, fast[1].tobytes()) == scan
    elif case in _PLAIN:
        pytest.fail("a plain file went to the scan")
    assert outcome(lambda: read_numeric_csv(path, DataError, labels)) == scan


# Both CSV readers parse through read_numeric_csv, so a cell text gets the same
# verdict and the same message from each. The SHAP file's obs_id is text.
_READERS = {
    "data": (b"a,b,c\n1,2,3\n\n4,5,", read_csv_dataset, DataError),
    "shap": (b"obs_id,base,c\nbond_3,2,3\n\nbond_17,5,", read_shap_csv, ShapeError),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize(
    "cell, reason",
    [(b"x", ":4: non-numeric value"), (b"", ":4: non-numeric value"),
     (b"6,7", ":4: expected 3 fields, got 4"), (b"inf", ":4: non-finite value"),
     (b"-inf", ":4: non-finite value"), (b"nan", ":4: non-finite value"),
     (b"1e999", ":4: non-finite value"), (b"\xff", ": not UTF-8 text")],
)
def test_csv_readers_reject_the_same_cells(tmp_path, reader, cell, reason):
    prefix, read, error = _READERS[reader]
    path = tmp_path / "t.csv"
    path.write_bytes(prefix + cell + b"\n")
    with pytest.raises(error) as exc:
        read(path)
    assert str(exc.value) == f"{path}{reason}"


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize(
    "cell, reason",
    [(b"zz", ":5: non-numeric value"), (b"6,7", ":5: expected 3 fields, got 4"),
     (b"nan", ":5: non-finite value")],
)
def test_csv_errors_name_the_physical_line(tmp_path, reader, cell, reason):
    # a quoted header field holding a line break: the header takes lines 1
    # and 2, so the bad row, the file's fourth record, sits on line 5
    prefix, read, error = _READERS[reader]
    header, rest = prefix.split(b"\n", 1)
    head, last = header.rsplit(b",", 1)
    path = tmp_path / "t.csv"
    path.write_bytes(head + b',"' + last + b'\nx"\n' + rest + cell + b"\n")
    with pytest.raises(error) as exc:
        read(path)
    assert str(exc.value) == f"{path}{reason}"


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize(
    "cell", [b"1_000", b" 1 ", b'"2.5"', b"-0.0", b"4.9e-324", "\u0661".encode()]
)
def test_csv_readers_accept_what_float_reads(tmp_path, reader, cell):
    prefix, read, _ = _READERS[reader]
    path = tmp_path / "t.csv"
    path.write_bytes(prefix + cell + b"\n")
    result = read(path)
    last = result.X[-1, -1] if reader == "data" else result.values[-1, -1]
    (text,) = next(csv.reader([cell.decode()]))
    assert str(last) == str(float(text))


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize(
    "text, reason", [(b"", ": empty file"), (b"obs_id,base,c\n\n", ": no data rows")]
)
def test_csv_readers_reject_files_without_rows(tmp_path, reader, text, reason):
    _, read, error = _READERS[reader]
    path = tmp_path / "t.csv"
    path.write_bytes(text)
    with pytest.raises(error) as exc:
        read(path)
    assert str(exc.value) == f"{path}{reason}"


# Both key-value readers parse through read_key_lines, so a line gets the same
# verdict and the same message from each.
_KEY_READERS = {
    "grouping": (":", lambda path: read_grouping_file(path, ["a"]), GroupingError),
    "simspec": ("=", read_simspec_file, ValueError),
}


@pytest.mark.parametrize("reader", sorted(_KEY_READERS))
@pytest.mark.parametrize(
    "text, reason",
    [(b"# only a comment\n\nnothing here\n", ":3: expected a {sep!r} between key and value"),
     (b"\xff\n", ": not UTF-8 text")],
)
def test_key_line_readers_reject_the_same_lines(tmp_path, reader, text, reason):
    sep, read, error = _KEY_READERS[reader]
    path = tmp_path / "t.txt"
    path.write_bytes(text)
    with pytest.raises(error) as exc:
        read(path)
    assert str(exc.value) == f"{path}{reason.format(sep=sep)}"
