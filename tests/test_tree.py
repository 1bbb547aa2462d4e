"""Tree training, prediction and model-file round trips."""

import csv
import json
import math

import numpy as np
import pytest

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
    TreeEnsemble,
    _grow_tree,
    load_model,
    read_csv_dataset,
    save_model,
    train_gbm,
)

from conftest import build_tree, leaf_tree, random_ensemble, reference_train_gbm, stump


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
    cart = _grow_tree(X, y - y.mean(), order, max_depth=3, min_leaf=5, scale=1.0)
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


def test_predict_empty_ensemble_returns_base():
    model = TreeEnsemble(trees=[], n_features=2, base_score=1.75)
    assert model.predict([0.1, 0.9]) == 1.75


def test_predict_follows_stump_path():
    model = TreeEnsemble(trees=[stump(0, 0.5, 1.0, 2.0)], n_features=1, base_score=0.0)
    assert model.predict([0.2]) == 1.0
    assert model.predict([0.5]) == 1.0  # ties go left
    assert model.predict([0.7]) == 2.0


def test_descend_walks_each_row_one_level_at_a_time():
    # the root splits on x0 into leaf 1 and node 2, which splits on x1 into
    # leaves 3 and 4
    t = build_tree((0, 0.5, (1.0, 10), (1, 0.5, (2.0, 10), (3.0, 10))))
    X = np.array([[0.2, 0.9], [0.7, 0.2], [0.7, 0.9]])
    levels = [(r.tolist(), n.tolist(), c.tolist()) for r, n, c in t.descend(X)]
    assert levels == [([0, 1, 2], [0, 0, 0], [1, 2, 2]), ([1, 2], [2, 2], [3, 4])]
    np.testing.assert_array_equal(t.leaf_values(X), [1.0, 2.0, 3.0])


def test_predict_is_deterministic_and_shape_checked(rng):
    model = random_ensemble(rng, 4, 5, 3)
    x = rng.uniform(size=4)
    assert model.predict(x) == model.predict(x)
    with pytest.raises(ShapeError):
        model.predict(x[:3])
    with pytest.raises(ShapeError):
        model.predict_many(rng.uniform(size=(5, 3)))


_GROUPING = FeatureGrouping.singletons(3)
# every entry point that takes a feature matrix, and each kind of bad matrix
_MATRIX_ENTRY_POINTS = {
    "predict": lambda m, X: m.predict(X),
    "predict_many": lambda m, X: m.predict_many(X),
    "value_function": lambda m, X: value_function(m, X, [0, 2]),
    "exact_group_shapley": lambda m, X: exact_group_shapley(m, X, _GROUPING),
    "tree_group_shap": lambda m, X: tree_group_shap(m, X, _GROUPING),
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
    model = random_ensemble(rng, 3, 4, 3)
    with pytest.raises(ShapeError):
        _MATRIX_ENTRY_POINTS[entry](model, _BAD_MATRICES[bad])


def test_missing_target_raises():
    data = Dataset(X=np.ones((20, 1)), y=None, columns=["a"])
    with pytest.raises(TargetRequired):
        train_gbm(data)


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
        # internal values are recomputed bottom-up on load
        np.testing.assert_allclose(a.value, b.value, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            a.threshold, b.threshold, rtol=0, atol=0, equal_nan=True
        )


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
    assert model.predict([9.9, 0.1]) == pytest.approx(1.5)
    assert model.predict([9.9, 0.9]) == pytest.approx(3.5)


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


def test_load_rejects_out_of_range_feature(tmp_path):
    doc = _stump_doc()
    doc["trees"][0]["nodes"][0]["feature"] = 7
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelInvariantError):
        load_model(path)


def test_trained_models_satisfy_node_invariants(rng):
    X = rng.uniform(size=(150, 5))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + rng.normal(0, 0.1, 150)
    model = train_gbm(Dataset(X=X, y=y, columns=list("abcde")), n_trees=25, max_depth=4)
    _check_node_invariants(model)


def test_leaf_only_tree_round_trip(tmp_path):
    model = TreeEnsemble(trees=[leaf_tree(0.0, 33)], n_features=1, base_score=2.0)
    path = tmp_path / "leaf.model"
    save_model(model, path)
    assert load_model(path).predict([0.123]) == 2.0


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
