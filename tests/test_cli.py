"""CLI behavior: exit codes, determinism, end-to-end pipeline, config echo."""

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupshap
from groupshap.cli import main, pipeline_demo
from groupshap.shapley import ShapMatrix, read_shap_csv, write_grouping_file
from groupshap.simgen import synth_regression
from groupshap.tree import TreeEnsemble, read_csv_dataset, save_model

from conftest import chain_tree


@pytest.fixture
def dataset_csv(tmp_path):
    data, grouping = synth_regression(150, 3, seed=5)
    path = tmp_path / "d.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(data.columns + ["target"])
        for row, y in zip(data.X, data.y):
            w.writerow([repr(float(v)) for v in row] + [repr(float(y))])
    groups_path = tmp_path / "g.txt"
    write_grouping_file(grouping, data.columns, groups_path)
    return path, groups_path, data


def test_unknown_flag_exits_one(capsys):
    assert main(["simulate", "size", "--nope", "x", "--out", "o"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_one():
    assert main(["frobnicate"]) == 1


def test_end_to_end_train_explain_test(tmp_path, dataset_csv, capsys):
    data_path, groups_path, data = dataset_csv
    model_path = tmp_path / "m.model"
    shap_path = tmp_path / "shap.csv"
    assert main(
        ["train", "--data", str(data_path), "--target", "target",
         "--out", str(model_path), "--n-trees", "25"]
    ) == 0
    assert main(
        ["explain", "--model", str(model_path), "--data", str(data_path),
         "--target", "target", "--groups", str(groups_path),
         "--method", "tree", "--out", str(shap_path)]
    ) == 0
    assert main(["test", "--shap", str(shap_path), "--alpha", "0.05"]) == 0
    out = capsys.readouterr().out
    # one report row per group
    assert all(f"g{j}" in out for j in range(3))
    assert (tmp_path / "run.json").exists()
    echo = json.loads((tmp_path / "run.json").read_text())
    assert echo["tool"] == "groupshap"
    assert echo["command"] == "explain"  # last command that wrote into tmp_path


def test_explain_exact_matches_tree_on_stump_like_model(tmp_path, dataset_csv):
    data_path, groups_path, _ = dataset_csv
    model_path = tmp_path / "m.model"
    main(["train", "--data", str(data_path), "--target", "target",
          "--out", str(model_path), "--n-trees", "4", "--max-depth", "1"])
    tree_out = tmp_path / "t.csv"
    exact_out = tmp_path / "e.csv"
    assert main(["explain", "--model", str(model_path), "--data", str(data_path),
                 "--target", "target", "--groups", str(groups_path),
                 "--method", "tree", "--out", str(tree_out)]) == 0
    assert main(["explain", "--model", str(model_path), "--data", str(data_path),
                 "--target", "target", "--groups", str(groups_path),
                 "--method", "exact", "--out", str(exact_out)]) == 0
    a = read_shap_csv(tree_out)
    b = read_shap_csv(exact_out)
    np.testing.assert_allclose(a.values, b.values, atol=1e-9)
    # both routes give one result type: the same header and base column
    assert tree_out.read_text().splitlines()[0] == exact_out.read_text().splitlines()[0]
    assert a.base_values.tobytes() == b.base_values.tobytes()


def test_traced_explain_records_both_attribution_spans(tmp_path, dataset_csv):
    # perfbench's tracer wraps the attribution functions under their names in
    # cli, so explain must look them up by those names when it runs
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    train, explain = _explain_argv(tmp_path, dataset_csv)
    assert main(train) == 0
    runs = {method: explain + ["--method", method] for method in ("tree", "exact")}
    untraced = {}
    for method, argv in runs.items():
        assert main(argv) == 0
        untraced[method] = (tmp_path / "s.csv").read_bytes()
    tracer = tracing.Tracer()
    with tracer.installed():
        for method, argv in runs.items():
            assert main(argv) == 0
            assert (tmp_path / "s.csv").read_bytes() == untraced[method]
    names = {span.name for span in tracer.take()}
    assert {"shapley.tree_group_shap", "shapley.exact_group_shapley"} <= names


def test_exact_explain_of_a_tree_on_21_groups_exits_zero(tmp_path):
    rng = np.random.default_rng(0)
    n_feat = 25
    names = [f"f{i}" for i in range(n_feat)]
    data_path = tmp_path / "wide.csv"
    with open(data_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names + ["y"])
        for _ in range(40):
            row = rng.uniform(size=n_feat)
            w.writerow([repr(float(v)) for v in row] + [repr(float(row[0])) ])
    groups_path = tmp_path / "wide_groups.txt"
    groups_path.write_text("".join(f"s{i}: f{i}\n" for i in range(n_feat)))
    # one tree that splits on 21 distinct groups
    model = TreeEnsemble([chain_tree(range(21))], n_feat, 0.0, feature_names=names)
    model_path = tmp_path / "wide.model"
    save_model(model, model_path)
    out_path = tmp_path / "x.csv"
    code = main(["explain", "--model", str(model_path), "--data", str(data_path),
                 "--target", "y", "--groups", str(groups_path),
                 "--method", "exact", "--out", str(out_path)])
    assert code == 0
    shap = read_shap_csv(out_path)
    X = read_csv_dataset(data_path, "y").X
    np.testing.assert_allclose(
        shap.base_values + shap.values.sum(axis=1), model.predict_many(X), atol=1e-9
    )


def test_degenerate_statistics_exit_three(tmp_path, capsys):
    shap = ShapMatrix(np.ones((10, 2)), np.zeros(10), ["a", "b"])
    path = tmp_path / "flat.csv"
    shap.to_csv(path)
    assert main(["test", "--shap", str(path)]) == 3
    assert "degenerate" in capsys.readouterr().err.lower()


def _random_shap_csv(tmp_path, names, S=30):
    rng = np.random.default_rng(3)
    path = tmp_path / "shap.csv"
    ShapMatrix(rng.normal(size=(S, len(names))), np.zeros(S), names).to_csv(path)
    return path


def test_csv_report_quotes_wald_df(tmp_path):
    path = _random_shap_csv(tmp_path, ["a", "b"])
    out = tmp_path / "report.csv"
    assert main(["test", "--shap", str(path), "--tests", "wald,gs",
                 "--format", "csv", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(header) == 7 and all(len(row) == 7 for row in rows)
    wald = [dict(zip(header, row)) for row in rows if row[0] == "wald"]
    assert [r["df"] for r in wald] == ["1,29", "1,29"]
    assert all(r["degenerate"] == "" for r in wald)


def test_significant_column_marks_the_rows_that_reject_at_alpha(tmp_path):
    # p-values from 1e-84 to 0.9, among them 1.5e-4 and 2.9e-4
    rng = np.random.default_rng(3)
    values = rng.normal(size=(40, 5)) + np.array([0.0, 0.3, 0.4, 0.55, 0.9])
    path = tmp_path / "shap.csv"
    ShapMatrix(values, np.zeros(40), list("abcde")).to_csv(path)
    out = tmp_path / "report.csv"
    for alpha in (0.0001, 0.01, 0.05, 0.5):
        assert main(["test", "--shap", str(path), "--tests", "wald,cq,gs", "--alpha",
                     str(alpha), "--format", "csv", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        marks = [r["significant"] for r in rows]
        grades = [("***" if p <= 0.001 else "**" if p <= 0.01 else "*" if p <= 0.05 else ".")
                  if p <= alpha else "" for p in (float(r["p_value"]) for r in rows)]
        assert marks == grades, alpha


def test_shap_csv_with_duplicate_group_names_exits_two(tmp_path, capsys):
    path = _random_shap_csv(tmp_path, ["a", "a"])
    assert main(["test", "--shap", str(path)]) == 2
    assert "unique" in capsys.readouterr().err


def test_individual_shap_without_groups_exits_one(tmp_path, capsys):
    path = _random_shap_csv(tmp_path, ["a", "b"])
    assert main(["test", "--individual-shap", str(path)]) == 1
    err = capsys.readouterr().err
    assert "--groups" in err and "Traceback" not in err


def _replace_field(path, line, field, text):
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[field] = text
    lines[line - 1] = ",".join(f for f in fields if f is not None)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "cell, message",
    [("x", "non-numeric value"), (None, "expected 4 fields, got 3"),
     ("inf", "non-finite value"), ("-inf", "non-finite value"), ("nan", "non-finite value")],
)
def test_malformed_shap_csv_exits_two(tmp_path, capsys, cell, message):
    path = _random_shap_csv(tmp_path, ["a", "b"])
    _replace_field(path, 4, 2, cell)  # None drops the field: a ragged row
    assert main(["test", "--shap", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"shap.csv:4: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "explain"])
def test_non_finite_data_cell_exits_two(tmp_path, dataset_csv, capsys, command):
    data_path, groups_path, _ = dataset_csv
    model_path = tmp_path / "m.model"
    train = ["train", "--data", str(data_path), "--target", "target",
             "--out", str(model_path), "--n-trees", "2"]
    assert main(train) == 0
    _replace_field(data_path, 6, 0, "inf")
    explain = ["explain", "--model", str(model_path), "--data", str(data_path),
               "--target", "target", "--groups", str(groups_path), "--out", str(tmp_path / "s.csv")]
    capsys.readouterr()
    assert main(train if command == "train" else explain) == 2
    err = capsys.readouterr().err
    assert "d.csv:6: non-finite value" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "target", [["--target", "target"], ["--target", "y"], []], ids=["target", "absent", "none"]
)
def test_explain_drops_the_target_column_only_if_present(tmp_path, dataset_csv, target):
    data_path, groups_path, _ = dataset_csv
    model_path = tmp_path / "m.model"
    assert main(["train", "--data", str(data_path), "--target", "target",
                 "--out", str(model_path), "--n-trees", "3"]) == 0
    features_path = tmp_path / "features.csv"
    with open(data_path) as src, open(features_path, "w") as dst:
        for line in src:  # the target is the last column
            dst.write(line.rsplit(",", 1)[0] + "\n")
    outs = []
    for path in (data_path, features_path):
        outs.append(tmp_path / f"shap_{path.stem}.csv")
        assert main(["explain", "--model", str(model_path), "--data", str(path), *target,
                     "--groups", str(groups_path), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _explain_argv(tmp_path, dataset_csv, **paths):
    """A working train+explain pair of argument lists, with any path replaced."""
    data_path, groups_path, _ = dataset_csv
    p = {"data": data_path, "groups": groups_path, "model": tmp_path / "m.model",
         "out": tmp_path / "s.csv", **paths}
    train = ["train", "--data", str(p["data"]), "--target", "target",
             "--out", str(p["model"]), "--n-trees", "2"]
    explain = ["explain", "--model", str(p["model"]), "--data", str(p["data"]),
               "--target", "target", "--groups", str(p["groups"]), "--out", str(p["out"])]
    return train, explain


@pytest.mark.parametrize(
    "command, flag",
    [("train", "data"), ("train", "model"), ("explain", "model"), ("explain", "data"),
     ("explain", "groups"), ("explain", "out"), ("test", "shap"), ("analyze", "shap")],
)
def test_directory_in_place_of_a_file_exits_two(tmp_path, dataset_csv, capsys, command, flag):
    folder = tmp_path / "folder"
    folder.mkdir()
    if flag == "shap":
        argv = [command] + (["gini"] if command == "analyze" else []) + ["--shap", str(folder)]
    else:
        train, explain = _explain_argv(tmp_path, dataset_csv, **{flag: folder})
        if command == "explain":
            assert main(_explain_argv(tmp_path, dataset_csv)[0]) == 0
        argv = train if command == "train" else explain
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"groupshap {command}: " in err and "Is a directory" in err


@pytest.mark.parametrize("flag", ["model", "groups"])
def test_non_utf8_model_or_grouping_file_exits_two(tmp_path, dataset_csv, capsys, flag):
    train, _ = _explain_argv(tmp_path, dataset_csv)
    assert main(train) == 0
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe not text\n")
    _, explain = _explain_argv(tmp_path, dataset_csv, **{flag: bad})
    capsys.readouterr()
    assert main(explain) == 2
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8 text" in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["threshold", "value", "cover"])
def test_model_with_a_non_finite_number_exits_two(tmp_path, dataset_csv, capsys, key):
    train, explain = _explain_argv(tmp_path, dataset_csv)
    assert main(train) == 0
    model_path = tmp_path / "m.model"
    doc = json.loads(model_path.read_text())
    doc["trees"][0]["nodes"][0][key] = math.nan  # node 0 is the root, a split
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(explain) == 2
    err = capsys.readouterr().err
    assert f"{key} nan is not finite (tree 0, node 0)" in err and "Traceback" not in err


def test_duplicate_column_names_exit_two(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("a, a,y\n" + "".join(f"{i},{i % 3},{i * 0.5}\n" for i in range(20)))
    assert main(["train", "--data", str(path), "--target", "y",
                 "--out", str(tmp_path / "m.model")]) == 2
    err = capsys.readouterr().err
    assert f"{path}: duplicate column name 'a'" in err and "Traceback" not in err
    assert not (tmp_path / "m.model").exists()


# cell texts at the attribution-CSV boundary: numbers, near-numbers and junk
_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr).map(str.encode)
_CELLS = _NUMBERS | st.sampled_from(
    [b"", b"x", b"nan", b"inf", b"-inf", b"1e999", b"1_000", b" 1 ", b'"2.5"', b'"x"',
     b"1,2", b"\xff", b"1\xe9"]
)


@st.composite
def _shap_csv(draw):
    """An attribution CSV: numeric rows of the header's width, maybe one junk row."""
    k = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_NUMBERS, min_size=k + 1, max_size=k + 1), max_size=12))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.lists(_CELLS, max_size=k + 2))
    header = ",".join(["obs_id", "base"] + [f"g{j}" for j in range(k)]).encode()
    lines = [header] + [b",".join([b"bond_%d" % i] + row) for i, row in enumerate(rows)]
    return b"\n".join(lines) + b"\n"


@settings(max_examples=150, deadline=None)
@given(text=_shap_csv())
def test_shap_csv_boundary_never_raises(tmp_path_factory, text):
    """Any attribution CSV ends in exit 0, 2 or 3, and exit 0 has finite results."""
    path = tmp_path_factory.mktemp("boundary") / "shap.csv"
    path.write_bytes(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["test", "--shap", str(path), "--tests", "gs,wald,cq", "--format", "csv"])
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        report = list(csv.DictReader(io.StringIO(out.getvalue())))
        for row in report:
            if not row["degenerate"]:
                assert math.isfinite(float(row["statistic"])), row
                assert math.isfinite(float(row["p_value"])), row


@pytest.mark.parametrize("command", [["test"], ["simulate", "size"]])
def test_unknown_test_name_exits_one(tmp_path, capsys, command):
    args = ["--shap", str(_random_shap_csv(tmp_path, ["a"]))] if command == ["test"] else []
    out = tmp_path / "out"
    assert main(command + args + ["--tests", "gs,foo", "--out", str(out)]) == 1
    assert "--tests" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["test"], ["simulate", "size"]])
def test_repeated_test_name_exits_one(tmp_path, capsys, command):
    # a repeated test would repeat its rows in every table and report
    args = ["--shap", str(_random_shap_csv(tmp_path, ["a"]))] if command == ["test"] else []
    out = tmp_path / "out"
    assert main(command + args + ["--tests", "gs,cq,gs", "--out", str(out)]) == 1
    assert "--tests 'gs,cq,gs': each test may be named once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["test"], ["simulate", "size"]])
@pytest.mark.parametrize("alpha", ["2", "0", "nan"])
def test_alpha_outside_unit_interval_exits_one(tmp_path, capsys, command, alpha):
    args = ["--shap", str(_random_shap_csv(tmp_path, ["a"]))] if command == ["test"] else []
    out = tmp_path / "out"
    assert main(command + args + ["--alpha", alpha, "--out", str(out)]) == 1
    assert "alpha must be in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "size", "--reps", "0"],
        ["simulate", "size", "--k", "0"],
        ["simulate", "size", "--k", "x"],
        ["simulate", "size", "--sigma2", "-1"],
        ["simulate", "size", "--models", "foo"],
        ["simulate", "size", "--config", "unknown_key.cfg"],
        ["simulate", "size", "--config", "bad_value.cfg"],
        ["simulate", "size", "--s", "3"],
        ["simulate", "size", "--config", "not_utf8.cfg"],
        ["simulate", "size", "--alternatives", "sparse"],
        ["simulate", "size", "--config", "dense.cfg"],
        ["simulate", "power", "--alternatives", "null"],
        ["demo", "--n", "10"],
        ["demo", "--groups", "1"],
        ["demo", "--alpha", "2"],
        ["train", "--learning-rate", "2"],
        ["train", "--n-trees", "0"],
        ["train", "--n-trees", "-1"],
        ["train", "--min-samples-leaf", "0"],
        ["train", "--max-depth", "-1"],
        ["train", "--max-depth", "0"],
    ],
    ids=" ".join,
)
def test_bad_flag_or_config_value_exits_one(tmp_path, dataset_csv, capsys, argv):
    (tmp_path / "unknown_key.cfg").write_text("nope = 1\n")
    (tmp_path / "bad_value.cfg").write_text("k = x\n")
    (tmp_path / "not_utf8.cfg").write_bytes(b"\xffk = 5\n")
    (tmp_path / "dense.cfg").write_text("alternative = dense\n")
    argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
    out = tmp_path / "out"
    if argv[0] == "train":
        argv += ["--data", str(dataset_csv[0]), "--target", "target", "--out", str(out)]
    else:
        argv += ["--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"groupshap {argv[0]}: " in err and "Traceback" not in err
    if "not_utf8.cfg" in argv[-3]:
        assert f"{argv[-3]}: not UTF-8 text" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param(argv, message, id=" ".join(argv))
        for argv, message in [
            (["--rho", "1.0"], "rho must be in [0, 1), got 1.0"),
            (["--rho", "nan"], "rho must be in [0, 1), got nan"),
            (["--config", "rho.cfg"], "rho must be in [0, 1), got -0.5"),
            (["--sigma2", "nan"], "sigma2 must be positive and finite, got nan"),
            (["--sigma2", "inf"], "sigma2 must be positive and finite, got inf"),
            (["--sigma2", "1e308"], "sigma2 = 1e+308 overflows the covariance root"),
            (["--config", "sigma2.cfg"], "sigma2 = 5e+307 overflows the covariance root"),
        ]
    ],
)
def test_rho_or_sigma2_out_of_range_exits_one(tmp_path, capsys, argv, message):
    (tmp_path / "rho.cfg").write_text("rho = -0.5\n")
    (tmp_path / "sigma2.cfg").write_text("sigma2 = 5e307\n")
    argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
    out = tmp_path / "out"
    assert main(["simulate", "size", *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_has_no_threads_flag(tmp_path, capsys):
    assert main(["simulate", "size", "--threads", "2", "--out", str(tmp_path / "o")]) == 1
    assert "--threads" in capsys.readouterr().err


def test_simulate_has_no_profile_flag(tmp_path, capsys):
    assert main(["simulate", "size", "--profile", "paper", "--out", str(tmp_path / "o")]) == 1
    assert "--profile" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_help_gives_the_paper_grid(capsys):
    assert main(["simulate", "--help"]) == 0
    assert ("--models normal,symmetric,skewed --k 20,100,500 --s 50,300,600 "
            "--rho 0.2,0.5,0.8 --reps 10000") in capsys.readouterr().out


def test_test_help_states_the_hypothesis(capsys):
    assert main(["test", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "mean zero on the rows given" in text and "centred by construction" in text


def test_analyze_corrdet_zero_variance_exits_three(tmp_path):
    vals = np.column_stack([np.arange(10.0), np.ones(10)])
    ShapMatrix(vals, np.zeros(10), ["a", "b"]).to_csv(tmp_path / "s.csv")
    assert main(["analyze", "corrdet", "--shap", str(tmp_path / "s.csv")]) == 3


def test_analyze_gini_and_lorenz_outputs(tmp_path, capsys):
    rng = np.random.default_rng(1)
    ShapMatrix(rng.normal(size=(30, 4)), np.zeros(30), list("abcd")).to_csv(tmp_path / "s.csv")
    out_dir = tmp_path / "out"
    assert main(["analyze", "lorenz", "--shap", str(tmp_path / "s.csv"),
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "lorenz.csv").exists()
    rows = (out_dir / "lorenz.csv").read_text().strip().splitlines()
    assert rows[0] == "cum_share_groups,cum_share_value"
    assert len(rows) == 6  # header + K+1 points
    assert "gini" in capsys.readouterr().out


def test_simulate_is_byte_deterministic(tmp_path):
    args = ["simulate", "size", "--models", "normal", "--k", "5", "--s", "20",
            "--rho", "0.2", "--reps", "80", "--seed", "7", "--tests", "cq,gs"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "size_table.csv").read_bytes() == (out_b / "size_table.csv").read_bytes()
    assert (out_a / "are.csv").read_bytes() == (out_b / "are.csv").read_bytes()
    echo = json.loads((out_a / "run.json").read_text())
    assert echo["seed"] == 7
    assert set(echo["outputs"]) >= {str(out_a / "size_table.csv"), str(out_a / "are.csv")}


def test_simulate_writes_diagnostics_beside_the_tables(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["simulate", "size", "--models", "normal", "--k", "5,30", "--s", "20",
                 "--rho", "0.2", "--reps", "30", "--seed", "7", "--out", str(out)]) == 0
    rows = (out / "diagnostics.csv").read_text().splitlines()
    assert rows[0].startswith("model,K,S,rho,alternative,replications,gs_screen_fire_rate")
    assert len(rows) == 3  # header and one row per cell
    assert rows[2].endswith(",30")  # K = 30 >= S = 20: Wald degenerate throughout
    assert str(out / "diagnostics.csv") in json.loads((out / "run.json").read_text())["outputs"]
    assert f"wrote {out / 'diagnostics.csv'}" in capsys.readouterr().out


@pytest.mark.parametrize("sigma2", [2.0**998, 2.0**-1000])
def test_simulate_sigma2_at_the_ends_of_the_float_range(tmp_path, sigma2):
    # every test is scale invariant: sigma2 = 4 * 2^(2j) scales each sample
    # by exactly 2^j
    def run(value, out):
        assert main(["simulate", "size", "--models", "normal", "--k", "5,30", "--s", "20",
                     "--rho", "0.2", "--reps", "30", "--seed", "7", "--sigma2", repr(value),
                     "--out", str(out)]) == 0
        with open(out / "size_table.csv") as fh:
            return [(r["test"], r["rejection_rate"]) for r in csv.DictReader(fh)]

    assert run(sigma2, tmp_path / "x") == run(4.0, tmp_path / "four")
    header = (tmp_path / "x" / "diagnostics.csv").read_text().splitlines()[0]
    assert [c for c in header.split(",") if c.startswith("degenerate_")] == [
        "degenerate_wald_SingularCovariance"  # K = 30 >= S = 20
    ]


def test_simulate_with_no_rate_exits_three(tmp_path, capsys):
    # K >= S: Wald is degenerate in every replication of every cell
    out = tmp_path / "w"
    assert main(["simulate", "size", "--tests", "wald", "--k", "100", "--s", "50",
                 "--reps", "5", "--seed", "1", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "every requested test was degenerate in every replication\n"
    for name in ("size_table.csv", "size_table.txt", "are.csv", "diagnostics.csv"):
        assert f"wrote {out / name}" in captured.out and (out / name).exists(), name
    assert (out / "run.json").exists()


@pytest.mark.parametrize(
    "flag,value",
    [("--models", "normal,skewed,normal"), ("--k", "20,20"), ("--s", "50,30,50"),
     ("--rho", "0.2,0.20"), ("--alternatives", "sparse,sparse")],
)
def test_repeated_grid_value_exits_one(tmp_path, capsys, flag, value):
    # repeated values would run cells that share one key, and the tables
    # would show only the last of them
    kind = "power" if flag == "--alternatives" else "size"
    out = tmp_path / "out"
    assert main(["simulate", kind, flag, value, "--reps", "5", "--out", str(out)]) == 1
    assert f"{flag} {value!r}: each value may be named once" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_power_writes_power_table(tmp_path):
    assert main(["simulate", "power", "--models", "normal", "--k", "5", "--s", "30",
                 "--reps", "40", "--seed", "3", "--tests", "gs",
                 "--alternatives", "sparse", "--out", str(tmp_path / "p")]) == 0
    assert (tmp_path / "p" / "power_table.csv").exists()
    assert (tmp_path / "p" / "power_table.txt").exists()


def test_simulate_config_file_defaults(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("model = skewed\nk = 6\ns = 25\nrho = 0.2\nreplications = 30\n")
    out = tmp_path / "cfg_out"
    assert main(["simulate", "size", "--config", str(cfg), "--seed", "5",
                 "--tests", "gs", "--out", str(out)]) == 0
    table = (out / "size_table.csv").read_text()
    assert "skewed,6,25" in table


def test_simulate_config_seed_is_the_seed(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 7\nk = 5\ns = 20\nreplications = 30\n")
    runs = [["--config", str(cfg)], ["--config", str(cfg)],
            ["--k", "5", "--s", "20", "--reps", "30", "--seed", "7"]]
    for i, args in enumerate(runs):
        assert main(["simulate", "size", *args, "--tests", "cq,gs",
                     "--out", str(tmp_path / str(i))]) == 0
    for name in ("size_table.csv", "size_table.txt", "are.csv"):
        tables = {(tmp_path / str(i) / name).read_bytes() for i in range(len(runs))}
        assert len(tables) == 1, name
    assert json.loads((tmp_path / "0" / "run.json").read_text())["seed"] == 7


def test_simulate_power_takes_config_rho(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("rho = 0.3\nk = 5\ns = 20\nreplications = 20\n")
    out = tmp_path / "p"
    assert main(["simulate", "power", "--config", str(cfg), "--seed", "2",
                 "--tests", "gs", "--out", str(out)]) == 0
    with open(out / "power_table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {(r["alternative"], r["rho"]) for r in rows} == {("sparse", "0.3"), ("dense", "0.3")}


def test_simulate_power_table_prints_every_rho(tmp_path):
    out = tmp_path / "p"
    assert main(["simulate", "power", "--models", "normal", "--k", "5", "--s", "12",
                 "--rho", "0.0,0.9", "--reps", "30", "--seed", "9", "--tests", "cq,gs",
                 "--alternatives", "sparse", "--out", str(out)]) == 0
    lines = (out / "power_table.txt").read_text().splitlines()
    assert [b.strip() for b in lines[1].split("|")[1:]] == ["sparse rho=0", "sparse rho=0.9"]
    with open(out / "power_table.csv") as fh:
        rates = {(r["rho"], r["test"]): float(r["rejection_rate"]) for r in csv.DictReader(fh)}
    printed = [float(v.rstrip("*")) for v in lines[4].split("|", 1)[1].replace("|", " ").split()]
    expected = [100 * rates[rho, t] for rho in ("0.0", "0.9") for t in ("cq", "gs")]
    assert printed == pytest.approx(expected, abs=0.005)


def _child_env():
    """The environment for a child interpreter, importing this groupshap."""
    src = os.path.dirname(os.path.dirname(groupshap.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entry_point_runs():
    for module in ("groupshap.cli", "groupshap"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "--version"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0, module
        assert "groupshap" in proc.stdout


def test_cli_import_does_not_load_scipy_stats():
    # a fresh interpreter: scipy.stats was most of the CLI's start-up time and memory
    code = "import sys, groupshap.cli; assert 'scipy.stats' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr


def test_attributions_beyond_the_float_range_are_degenerate_without_warnings(tmp_path):
    # a fresh interpreter, so that numpy's warnings would reach its stderr;
    # every test is scale invariant, so 1e200 gives the unit-scale statistics
    values = np.random.default_rng(3).normal(size=(30, 2))
    reports = {}
    for name, scale in (("unit", 1.0), ("big", 1e200)):
        path = tmp_path / f"{name}.csv"
        ShapMatrix(scale * values, np.zeros(30), ["a", "b"]).to_csv(path)
        proc = subprocess.run(
            [sys.executable, "-m", "groupshap.cli", "test", "--shap", str(path),
             "--tests", "gs,wald,cq", "--format", "csv"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        reports[name] = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(reports["big"]) == 6
    for got, want in zip(reports["big"], reports["unit"]):
        assert got["degenerate"] == want["degenerate"] == ""
        for field in ("statistic", "p_value"):
            assert math.isclose(float(got[field]), float(want[field]), rel_tol=1e-9)


# --------------------------------------------------------------------------
# demo


def test_demo_ranks_generating_groups_first_and_is_deterministic(tmp_path, capsys):
    a = pipeline_demo(seed=11, n=250, n_groups=5)
    b = pipeline_demo(seed=11, n=250, n_groups=5)
    capsys.readouterr()
    assert a == b
    top_two = {entry["group"] for entry in a["ranking"][:2]}
    assert top_two == {"g0", "g1"}
    # generating groups significant on the focus segment, null groups not
    assert all(e["p_value"] <= 0.05 for e in a["ranking"] if e["group"] in ("g0", "g1"))


def test_demo_concentration_comparisons(capsys):
    report = pipeline_demo(seed=11, n=250, n_groups=5)
    capsys.readouterr()
    assert report["gini_group"] < report["gini_individual"]
    assert report["det_group"] > report["det_individual"]


def test_demo_cli_writes_outputs(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "--seed", "11", "--n", "250", "--groups", "4",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("demo.model", "demo.groups", "demo_group_shap.csv",
                 "demo_individual_shap.csv", "demo_report.json", "run.json"):
        assert (out / name).exists()
