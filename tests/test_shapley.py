"""Attribution: value function, exact group Shapley, path algorithm."""

import csv
import io

import numpy as np
import pytest

from groupshap import tree
from groupshap.errors import GroupingError, ShapeError
from groupshap.shapley import (
    FeatureGrouping,
    ShapMatrix,
    base_value,
    exact_group_shapley,
    read_grouping_file,
    read_shap_csv,
    tree_group_shap,
    value_function,
    write_grouping_file,
)
from groupshap.tree import TreeEnsemble

from conftest import (
    brute_force_group_shapley,
    build_tree,
    chain_tree,
    random_ensemble,
    random_partition,
    random_stump_ensemble,
    reference_value_function,
    stump,
)


def _two_feature_tree_model(base=0.25):
    # root: f0 @ 0.5; left: f1 @ 0.5 -> leaves (1, c10), (2, c30); right: leaf (5, c60)
    tree = build_tree((0, 0.5, (1, 0.5, (1.0, 10), (2.0, 30)), (5.0, 60)))
    return TreeEnsemble(trees=[tree], n_features=2, base_score=base)


# --------------------------------------------------------------------------
# grouping


def test_grouping_rejects_overlap_and_omission():
    with pytest.raises(GroupingError):
        FeatureGrouping([("a", [0, 1]), ("b", [1, 2])], n_features=3)
    with pytest.raises(GroupingError):
        FeatureGrouping([("a", [0])], n_features=2)
    with pytest.raises(GroupingError):
        FeatureGrouping([("a", [0]), ("b", [])], n_features=1)
    with pytest.raises(GroupingError):
        FeatureGrouping([("a", [0]), ("a", [1])], n_features=2)


def test_grouping_file_round_trip(tmp_path):
    names = ["alpha", "beta", "gamma", "delta"]
    grouping = FeatureGrouping([("one", [0, 2]), ("two", [1, 3])], 4)
    path = tmp_path / "g.txt"
    write_grouping_file(grouping, names, path)
    loaded = read_grouping_file(path, names)
    assert loaded.groups == grouping.groups


def test_grouping_file_rejects_unknown_feature(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("one: alpha, nope\n")
    with pytest.raises(GroupingError):
        read_grouping_file(path, ["alpha", "beta"])


def test_grouping_file_rejects_partial_cover(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("one: alpha\n")
    with pytest.raises(GroupingError):
        read_grouping_file(path, ["alpha", "beta"])


# --------------------------------------------------------------------------
# value function


def test_value_function_all_features_is_predict(rng):
    model = random_ensemble(rng, 3, 4, 3)
    X = rng.uniform(size=(5, 3))
    np.testing.assert_allclose(
        value_function(model, X, [0, 1, 2]), model.predict_many(X), atol=1e-12
    )


def test_value_function_empty_on_even_stump():
    model = TreeEnsemble(
        trees=[stump(0, 0.5, 0.0, 1.0, 50, 50)], n_features=1, base_score=0.25
    )
    assert value_function(model, [0.9], [])[0] == pytest.approx(0.75)


def test_value_function_hand_traced_partial_activation():
    model = _two_feature_tree_model(base=0.25)
    x = [0.3, 0.8]
    # f0 active: follow left, then mix the f1 leaves by cover: (10*1+30*2)/40
    assert value_function(model, x, [0])[0] == pytest.approx(0.25 + 1.75)
    # f1 active: mix the root by cover; left branch resolves to leaf 2
    assert value_function(model, x, [1])[0] == pytest.approx(0.25 + 0.4 * 2 + 0.6 * 5)
    assert value_function(model, x, [0, 1])[0] == pytest.approx(0.25 + 2.0)
    assert value_function(model, x, [])[0] == pytest.approx(0.25 + 3.7)


# --------------------------------------------------------------------------
# exact group Shapley


def test_single_group_gets_full_prediction_minus_base(rng):
    model = random_ensemble(rng, 4, 3, 3)
    grouping = FeatureGrouping([("all", [0, 1, 2, 3])], 4)
    x = rng.uniform(size=4)
    phi = exact_group_shapley(model, x, grouping)
    expected = model.predict_many(x)[0] - phi.base_values[0]
    assert phi.values[0, 0] == pytest.approx(expected, abs=1e-10)


def test_symmetric_groups_get_equal_shares():
    trees = [stump(0, 0.5, 0.0, 1.0), stump(1, 0.5, 0.0, 1.0)]
    model = TreeEnsemble(trees=trees, n_features=2, base_score=0.0)
    grouping = FeatureGrouping([("a", [0]), ("b", [1])], 2)
    phi = exact_group_shapley(model, [0.8, 0.8], grouping).values[0]
    assert phi[0] == pytest.approx(phi[1], abs=1e-12)


def test_exact_matches_brute_force_oracle(rng):
    tree = build_tree(
        (0, 0.5, (1, 0.4, (1.0, 5), (2, 0.6, (2.0, 7), (4.0, 3))), (2, 0.3, (-1.0, 10), (0.5, 15)))
    )
    model = TreeEnsemble(trees=[tree], n_features=3, base_score=0.1)
    groups = [("g0", [0]), ("g1", [1, 2])]
    grouping = FeatureGrouping(groups, 3)
    for _ in range(8):
        x = rng.uniform(size=3)
        ours = exact_group_shapley(model, x, grouping).values[0]
        oracle = brute_force_group_shapley(model, x, groups)
        np.testing.assert_allclose(ours, oracle, atol=1e-12)


def test_exact_matches_brute_force_on_random_models(rng):
    for depth in (3, 6):
        for _ in range(10):
            n_features = int(rng.integers(2, 6))
            model = random_ensemble(rng, n_features, int(rng.integers(1, 4)), depth)
            n_groups = int(rng.integers(1, n_features + 1))
            groups = random_partition(rng, n_features, n_groups)
            grouping = FeatureGrouping(groups, n_features)
            x = rng.uniform(size=n_features)
            np.testing.assert_allclose(
                exact_group_shapley(model, x, grouping).values[0],
                brute_force_group_shapley(model, x, groups),
                atol=1e-10,
            )


def test_exact_matches_brute_force_with_zero_cover_leaves(rng):
    # a leaf no training row reached is legal; its cover ratio is 0 and the
    # row-wise arithmetic must divide by no zero cover (warnings are errors)
    tree = build_tree(
        (0, 0.5, (1, 0.4, (1.0, 0), (2, 0.6, (2.0, 7), (4.0, 0))), (2, 0.3, (-1.0, 10), (0.5, 15)))
    )
    trees = [tree, stump(1, 0.5, 3.0, -2.0, 0.0, 20.0)]
    model = TreeEnsemble(trees=trees, n_features=3, base_score=0.1)
    groups = [("g0", [0]), ("g1", [1]), ("g2", [2])]
    grouping = FeatureGrouping(groups, 3)
    X = rng.uniform(size=(8, 3))
    phi = exact_group_shapley(model, X, grouping).values
    for x, row in zip(X, phi):
        np.testing.assert_allclose(row, brute_force_group_shapley(model, x, groups), atol=1e-12)


@pytest.mark.parametrize("seed", [1 << 20, 40, 1])
def test_matrix_form_matches_rows_bit_for_bit(seed):
    # three independent draws of models, groupings and rows
    rng = np.random.default_rng(seed)
    for _ in range(8):
        n_features = int(rng.integers(2, 7))
        model = random_ensemble(rng, n_features, int(rng.integers(1, 6)), 4)
        grouping = FeatureGrouping(
            random_partition(rng, n_features, int(rng.integers(1, n_features + 1))), n_features
        )
        X = rng.uniform(size=(int(rng.integers(1, 12)), n_features))
        rows = np.vstack([exact_group_shapley(model, x, grouping).values for x in X])
        assert np.array_equal(exact_group_shapley(model, X, grouping).values, rows)
        active = [int(i) for i in np.nonzero(rng.random(n_features) < 0.5)[0]]
        values = value_function(model, X, active)
        assert np.array_equal(values, np.concatenate([value_function(model, x, active) for x in X]))
        assert np.array_equal(values, [reference_value_function(model, x, active) for x in X])


def test_value_function_shapes():
    model = _two_feature_tree_model()
    # a feature vector is one row
    assert value_function(model, [0.2, 0.7], [0]).shape == (1,)
    assert value_function(model, np.zeros((3, 2)), [0]).shape == (3,)
    phi = exact_group_shapley(model, np.zeros((3, 2)), FeatureGrouping.singletons(2))
    assert phi.values.shape == (3, 2) and phi.group_names == ["f0", "f1"]
    with pytest.raises(ShapeError):
        value_function(model, np.zeros((3, 3)), [0])
    with pytest.raises(ShapeError):
        value_function(model, np.zeros((2, 3, 2)), [0])


def test_exact_solves_a_tree_on_more_than_twenty_groups(rng):
    # one tree that splits on 21 distinct groups, of 25; 2^21 coalitions
    model = TreeEnsemble(trees=[chain_tree(range(21))], n_features=25, base_score=0.0)
    X = np.vstack([np.zeros(25), rng.uniform(size=(5, 25))])
    phi = exact_group_shapley(model, X, FeatureGrouping.singletons(25)).values
    np.testing.assert_allclose(
        phi.sum(axis=1) + base_value(model), model.predict_many(X), atol=1e-9
    )
    assert np.all(phi[:, 21:] == 0.0)
    assert np.abs(phi[:, :21]).max() > 0.1


def test_zero_tree_ensemble_checks_row_width():
    model = TreeEnsemble(trees=[], n_features=2, base_score=1.25)
    grouping = FeatureGrouping.singletons(2)
    phi = exact_group_shapley(model, np.zeros((3, 2)), grouping)
    np.testing.assert_array_equal(phi.values, 0.0)
    np.testing.assert_array_equal(phi.base_values, 1.25)
    for x in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2)), 0.0):
        with pytest.raises(ShapeError):
            exact_group_shapley(model, x, grouping)


def test_single_feature_model():
    model = TreeEnsemble(trees=[stump(0, 0.5, 1.0, 2.0)], n_features=1, base_score=0.0)
    phi = exact_group_shapley(model, [0.9], FeatureGrouping.singletons(1))
    assert phi.values[0, 0] == pytest.approx(model.predict_many([0.9])[0] - base_value(model))


def test_additive_model_splits_by_feature(rng):
    # one stump per feature: each feature's value is its own stump's swing
    stumps = [stump(f, 0.5, float(rng.normal()), float(rng.normal())) for f in range(3)]
    model = TreeEnsemble(trees=stumps, n_features=3, base_score=0.3)
    x = rng.uniform(size=3)
    phi = exact_group_shapley(model, x, FeatureGrouping.singletons(3)).values[0]
    for f, t in enumerate(stumps):
        own = value_function(
            TreeEnsemble(trees=[t], n_features=3, base_score=0.0), x, [f]
        )[0] - t.value[t.root]
        assert phi[f] == pytest.approx(own, abs=1e-10)


# --------------------------------------------------------------------------
# path attribution


def test_stump_path_attribution_matches_hand_value():
    model = TreeEnsemble(trees=[stump(0, 0.5, 1.0, 2.0)], n_features=1, base_score=0.0)
    grouping = FeatureGrouping([("g", [0])], 1)
    shap = tree_group_shap(model, [[0.9]], grouping)
    assert shap.values[0, 0] == pytest.approx(0.5)  # leaf 2.0 minus root 1.5
    exact = exact_group_shapley(model, [0.9], grouping)
    assert shap.values[0, 0] == pytest.approx(exact.values[0, 0], abs=1e-12)


def test_zero_tree_ensemble_gives_zero_matrix():
    model = TreeEnsemble(trees=[], n_features=2, base_score=1.25)
    grouping = FeatureGrouping([("a", [0]), ("b", [1])], 2)
    shap = tree_group_shap(model, [[0.1, 0.2], [0.3, 0.4]], grouping)
    np.testing.assert_array_equal(shap.values, np.zeros((2, 2)))
    np.testing.assert_array_equal(shap.base_values, [1.25, 1.25])


def test_hand_telescoped_depth_three_tree():
    # root f0 (A); left f1 (B) -> leaf(1,c10) / f2 (A) -> leaf(3,c10)/leaf(5,c20);
    # right f3 (B) -> leaf(-1,c20)/leaf(0,c40)
    tree = build_tree(
        (0, 0.5, (1, 0.5, (1.0, 10), (2, 0.5, (3.0, 10), (5.0, 20))), (3, 0.5, (-1.0, 20), (0.0, 40)))
    )
    model = TreeEnsemble(trees=[tree], n_features=4, base_score=0.0)
    grouping = FeatureGrouping([("A", [0, 2]), ("B", [1, 3])], 4)
    x = [0.3, 0.7, 0.2, 0.9]
    shap = tree_group_shap(model, [x], grouping)
    # A: (3.5 - 1.2) + (3 - 13/3); B: (13/3 - 3.5)
    assert shap.values[0, 0] == pytest.approx(2.3 + 3 - 13 / 3)
    assert shap.values[0, 1] == pytest.approx(13 / 3 - 3.5)
    assert shap.base_values[0] == pytest.approx(1.2)
    assert shap.values[0].sum() + shap.base_values[0] == pytest.approx(model.predict_many(x)[0])


def test_row_dimension_error_reports_index():
    model = TreeEnsemble(trees=[stump(0, 0.5, 0.0, 1.0)], n_features=1, base_score=0.0)
    grouping = FeatureGrouping([("g", [0])], 1)
    with pytest.raises(ShapeError, match="row 1"):
        tree_group_shap(model, [[0.1], [0.2, 0.3]], grouping)


# --------------------------------------------------------------------------
# shared invariants of both methods


def test_efficiency_on_random_ensembles(rng):
    for _ in range(10):
        n_features = int(rng.integers(2, 6))
        model = random_ensemble(rng, n_features, int(rng.integers(1, 5)), 3)
        groups = random_partition(rng, n_features, int(rng.integers(1, n_features + 1)))
        grouping = FeatureGrouping(groups, n_features)
        X = rng.uniform(size=(6, n_features))
        for explain in (tree_group_shap, exact_group_shapley):
            shap = explain(model, X, grouping)
            np.testing.assert_allclose(
                shap.values.sum(axis=1) + shap.base_values,
                model.predict_many(X),
                atol=1e-8,
            )


def test_null_group_gets_zero(rng):
    # feature 2 appears in no tree
    model = TreeEnsemble(
        trees=[stump(0, 0.4, -1.0, 2.0), stump(1, 0.6, 0.5, 1.5)],
        n_features=3,
        base_score=0.0,
    )
    grouping = FeatureGrouping([("used", [0, 1]), ("unused", [2])], 3)
    x = [0.9, 0.1, 0.5]
    assert exact_group_shapley(model, x, grouping).values[0, 1] == 0.0
    assert tree_group_shap(model, [x], grouping).values[0, 1] == 0.0


def test_stump_ensembles_make_path_attribution_exact(rng):
    def check(model, grouping):
        x = rng.uniform(size=model.n_features)
        np.testing.assert_allclose(
            tree_group_shap(model, [x], grouping).values[0],
            exact_group_shapley(model, x, grouping).values[0],
            atol=1e-9,
        )

    for _ in range(10):
        n_features = int(rng.integers(2, 8))
        model = random_stump_ensemble(rng, n_features, int(rng.integers(1, 6)))
        groups = random_partition(rng, n_features, int(rng.integers(1, min(6, n_features) + 1)))
        check(model, FeatureGrouping(groups, n_features))
    # 25 groups over 40 stumps, each stump splitting on one
    check(random_stump_ensemble(rng, 25, 40), FeatureGrouping.singletons(25))


def test_linearity_over_ensemble_concatenation(rng):
    n_features = 3
    a = random_ensemble(rng, n_features, 2, 2)
    b = random_ensemble(rng, n_features, 3, 2)
    both = TreeEnsemble(
        trees=a.trees + b.trees,
        n_features=n_features,
        base_score=a.base_score + b.base_score,
    )
    grouping = FeatureGrouping([("g0", [0, 1]), ("g1", [2])], n_features)
    x = rng.uniform(size=n_features)
    np.testing.assert_allclose(
        exact_group_shapley(both, x, grouping).values,
        exact_group_shapley(a, x, grouping).values + exact_group_shapley(b, x, grouping).values,
        atol=1e-10,
    )


# --------------------------------------------------------------------------
# CSV round trip


def test_shap_matrix_csv_round_trip(tmp_path, rng):
    shap = ShapMatrix(rng.normal(size=(5, 3)), rng.normal(size=5), ["a", "b", "c"])
    path = tmp_path / "shap.csv"
    shap.to_csv(path)
    loaded = read_shap_csv(path)
    np.testing.assert_array_equal(loaded.values, shap.values)
    np.testing.assert_array_equal(loaded.base_values, shap.base_values)
    assert loaded.group_names == shap.group_names


def test_shap_csv_written_in_row_blocks_matches_one_shot_formatting(tmp_path, rng, monkeypatch):
    # floats whose reprs take every form: exponents, -0.0, the subnormal
    # minimum, integers
    values = rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-300, 300, size=(50, 3))
    values[:4, 0] = [-0.0, 5e-324, 1.0, -7.5]
    shap = ShapMatrix(values, rng.normal(size=50), ["a", "b c", 'q"uote'])
    # blocks of 12 rows at 4 floats a row: four full blocks and a tail of 2
    monkeypatch.setattr(tree, "ROW_BLOCK_FLOATS", 12 * 4)
    assert [b.stop - b.start for b in tree.row_blocks(50, 4)] == [12, 12, 12, 12, 2]
    path = tmp_path / "shap.csv"
    shap.to_csv(path)
    header = io.StringIO(newline="")
    csv.writer(header).writerow(["obs_id", "base"] + shap.group_names)
    rows = np.column_stack([shap.base_values, shap.values]).tolist()
    body = "".join(f"{s},{','.join(map(repr, row))}\r\n" for s, row in enumerate(rows))
    assert path.read_bytes() == (header.getvalue() + body).encode()
