"""Command-line pipeline: train, explain, test, simulate, analyze, demo.

Exit codes: 0 success, 1 usage error, 2 data/model validation error or a
file that cannot be read or written, 3 degenerate-statistics error. Every
run with an output directory writes a run.json config echo so results can be
reproduced bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import secrets
import sys

import numpy as np

from . import __version__
from .errors import (
    AREUnavailable,
    DegenerateConcentration,
    GroupShapError,
    SampleTooSmall,
)
from .experiments import (
    ConcentrationReport,
    corr_determinant,
    emit_tables,
    grid_specs,
    lorenz_gini,
    run_power_grid,
    run_size_grid,
    write_diagnostics_csv,
)
from .inference import TESTS, TestReport, group_joint_test
from .shapley import (
    FeatureGrouping,
    ShapMatrix,
    base_value,
    exact_group_shapley,
    read_grouping_file,
    read_shap_csv,
    tree_group_shap,
    write_grouping_file,
)
from .simgen import SimSpec, read_simspec_file, synth_regression
from .tree import (
    DataError,
    Dataset,
    load_model,
    read_csv_dataset,
    save_model,
    train_gbm,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3

_DEGENERATE_ERRORS = (
    SampleTooSmall,
    AREUnavailable,
    DegenerateConcentration,
)


class _UsageError(Exception):
    """A flag or config value the command cannot run with (exit 1)."""


@contextlib.contextmanager
def _usage_errors():
    """Report a ValueError from a call given flag or config values as exit 1.

    The library raises ValueError for argument values it cannot take and a
    typed GroupShapError for bad data, so wrap only calls that take flag or
    config values.
    """
    try:
        yield
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the exit-code contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbits(63)
        print(f"seed not given; using generated seed {seed}", file=sys.stderr)
    return seed


def _write_run_config(out_dir, args_ns, seed=None, outputs=()) -> None:
    os.makedirs(out_dir, exist_ok=True)
    echo = {
        "tool": "groupshap",
        "version": __version__,
        "command": args_ns.command,
        "args": {k: v for k, v in vars(args_ns).items() if k != "func"},
        "seed": seed,
        "outputs": list(outputs),
    }
    with open(os.path.join(out_dir, "run.json"), "w") as fh:
        json.dump(echo, fh, indent=1, default=str)
        fh.write("\n")


def _csv_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _int_list(text: str) -> list[int]:
    return [int(item) for item in _csv_list(text)]


def _float_list(text: str) -> list[float]:
    return [float(item) for item in _csv_list(text)]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise _UsageError(f"alpha must be in (0, 1), got {alpha!r}")


def _named_once(flag: str, text: str, items, what: str = "value") -> None:
    """A repeated item would repeat rows, or run cells that share one key."""
    if len(set(items)) < len(items):
        raise _UsageError(f"{flag} {text!r}: each {what} may be named once")


def _checked_tests(text: str, alpha: float) -> tuple[str, ...]:
    """The --tests list, after checking it and alpha."""
    tests = tuple(_csv_list(text))
    if not tests or not set(tests) <= set(TESTS):
        raise _UsageError(f"--tests {text!r}: choose one or more of {','.join(TESTS)}")
    _named_once("--tests", text, tests, "test")
    _check_alpha(alpha)
    return tests


# --------------------------------------------------------------------------
# subcommands


def _cmd_train(args) -> int:
    data = read_csv_dataset(args.data, target=args.target)
    with _usage_errors():
        model = train_gbm(
            data,
            n_trees=args.n_trees,
            max_depth=args.max_depth,
            learning_rate=args.learning_rate,
            min_samples_leaf=args.min_samples_leaf,
        )
    save_model(model, args.out)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    _write_run_config(out_dir, args, outputs=[args.out])
    preds = model.predict_many(data.X)
    mse = float(np.mean((preds - data.y) ** 2))
    print(f"trained {len(model.trees)} trees on {data.n_rows} rows; training MSE {mse:.6g}")
    print(f"model written to {args.out}")
    return EXIT_OK


def _align_features(data, model):
    if model.feature_names and set(model.feature_names) <= set(data.columns):
        idx = [data.columns.index(name) for name in model.feature_names]
        return data.X[:, idx]
    if data.n_features == model.n_features:
        return data.X
    raise DataError(
        f"data has {data.n_features} feature columns but the model expects "
        f"{model.n_features} (and names do not match)"
    )


def _cmd_explain(args) -> int:
    model = load_model(args.model)
    data = read_csv_dataset(args.data)
    if args.target in data.columns:
        t = data.columns.index(args.target)
        data = Dataset(np.delete(data.X, t, axis=1), None, data.columns[:t] + data.columns[t + 1 :])
    X = _align_features(data, model)
    names = model.feature_names or data.columns
    grouping = read_grouping_file(args.groups, list(names))
    if args.method == "tree":
        shap = tree_group_shap(model, X, grouping)
    else:
        values = exact_group_shapley(model, X, grouping)
        shap = ShapMatrix(values, np.full(X.shape[0], base_value(model)), list(grouping.names))
    shap.to_csv(args.out)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    _write_run_config(out_dir, args, outputs=[args.out])
    print(f"wrote {shap.n_obs} x {len(shap.group_names)} attribution matrix to {args.out}")
    return EXIT_OK


_STAR_LEVELS = ((0.001, "***"), (0.01, "**"), (0.05, "*"))


def _stars(rep: TestReport) -> str:
    """The significant column: empty unless the test rejects at its alpha,
    else graded by p, with ``.`` for p above 0.05."""
    if not rep.reject:
        return ""
    for level, mark in _STAR_LEVELS:
        if rep.p_value <= level:
            return mark
    return "."


def _report_df(rep: TestReport) -> str:
    if rep.test == "gs" and rep.approx is not None and not rep.approx.normal_fallback:
        return f"{rep.approx.d:.3f}"
    if rep.test == "wald" and "df" in rep.details:
        dfn, dfd = rep.details["df"]
        return f"{dfn},{dfd}"
    return ""


def _format_reports(reports: list[TestReport], fmt: str) -> str:
    rows = []
    for rep in reports:
        rows.append(
            {
                "test": rep.test,
                "group": rep.group or "",
                "statistic": "NaN" if rep.statistic is None else repr(rep.statistic),
                "df": _report_df(rep),
                "p_value": "NaN" if rep.p_value is None else repr(rep.p_value),
                "significant": _stars(rep),
                "degenerate": rep.degenerate or "",
            }
        )
    cols = ["test", "group", "statistic", "df", "p_value", "significant", "degenerate"]
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(cols)
        w.writerows([r[c] for c in cols] for r in rows)
        return buf.getvalue()
    disp = []
    for r in rows:
        d = dict(r)
        if d["statistic"] != "NaN":
            d["statistic"] = f"{float(d['statistic']):.4f}"
        if d["p_value"] != "NaN":
            d["p_value"] = f"{float(d['p_value']):.4g}"
        disp.append(d)
    widths = {c: max(len(c), *(len(str(r[c])) for r in disp)) for c in cols}
    lines = ["  ".join(f"{c:<{widths[c]}}" for c in cols)]
    lines.append("  ".join("-" * widths[c] for c in cols))
    lines += ["  ".join(f"{str(r[c]):<{widths[c]}}" for c in cols) for r in disp]
    return "\n".join(lines) + "\n"


def _cmd_test(args) -> int:
    tests = _checked_tests(args.tests, args.alpha)
    if args.shap:
        shap = read_shap_csv(args.shap)
        grouping = FeatureGrouping.singletons(len(shap.group_names), shap.group_names)
        reports = group_joint_test(
            shap.values, grouping, alpha=args.alpha, mode="reduced", tests=tests
        )
    else:
        if args.groups is None:
            raise _UsageError("--individual-shap needs --groups")
        ishap = read_shap_csv(args.individual_shap)
        grouping = read_grouping_file(args.groups, list(ishap.group_names))
        reports = group_joint_test(
            ishap.values, grouping, alpha=args.alpha, mode=args.mode, tests=tests
        )
    text = _format_reports(reports, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _write_run_config(os.path.dirname(os.path.abspath(args.out)), args, outputs=[args.out])
    else:
        print(text, end="")
    if all(rep.degenerate is not None for rep in reports):
        print("all requested tests were degenerate", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _simulate_specs(args) -> tuple[list, tuple[str, ...], int]:
    """The cells, tests and seed of a simulate run. Each setting comes from
    its flag (an empty list flag counts as unset), else the config file, else
    the SimSpec default."""
    config = read_simspec_file(args.config) if args.config else {}
    default = SimSpec()

    def setting(flag, key, fallback):
        return flag if flag is not None else config.get(key, fallback)

    def listed(flag, name, key, parse, fallback):
        values = parse(flag) if flag else [config.get(key, fallback)]
        _named_once(name, flag, values)
        return values

    models = listed(args.models, "--models", "model", _csv_list, default.model.value)
    ks = listed(args.k, "--k", "k", _int_list, default.K)
    ss = listed(args.s, "--s", "s", _int_list, default.S)
    rhos = listed(args.rho, "--rho", "rho", _float_list, default.rho)
    reps = setting(args.reps, "replications", default.replications)
    alpha = setting(args.alpha, "alpha", default.alpha)
    sigma2 = setting(args.sigma2, "sigma2", default.sigma2)
    tests = _checked_tests(args.tests, alpha)
    size = args.kind == "size"
    text = setting(args.alternatives, "alternative", "null" if size else "sparse,dense")
    alternatives = _csv_list(text)
    _named_once("--alternatives", text, alternatives)
    if size and set(alternatives) != {"null"}:
        raise _UsageError("--alternatives: a size run has no shift; use simulate power")
    if not size and "null" in alternatives:
        raise _UsageError("--alternatives: power needs sparse or dense shifts, not null")
    seed = _resolve_seed(setting(args.seed, "seed", None))
    specs = []
    for alt in alternatives:
        specs.extend(grid_specs(models, ks, ss, rhos, alt, reps, seed, alpha, sigma2))
    return specs, tests, seed


def _cmd_simulate(args) -> int:
    with _usage_errors():
        specs, tests, seed = _simulate_specs(args)
    run = run_size_grid if args.kind == "size" else run_power_grid
    result = run(specs, tests, master_seed=seed)
    written = emit_tables(result, args.out)
    written.append(os.path.join(args.out, "diagnostics.csv"))
    write_diagnostics_csv(result, written[-1])
    _write_run_config(args.out, args, seed=seed, outputs=written)
    for path in written:
        print(f"wrote {path}")
    if all(c.rejection_rate is None for c in result.cells):
        print("every requested test was degenerate in every replication", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def write_lorenz_csv(report: ConcentrationReport, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("cum_share_groups,cum_share_value\n")
        for x, y in report.lorenz:
            fh.write(f"{x!r},{y!r}\n")


def _cmd_analyze(args) -> int:
    shap = read_shap_csv(args.shap)
    if args.what in ("gini", "lorenz"):
        mean_abs = np.abs(shap.values).mean(axis=0)
        report = lorenz_gini(mean_abs)
        print(f"gini {report.gini!r}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, "lorenz.csv")
            write_lorenz_csv(report, path)
            _write_run_config(args.out, args, outputs=[path])
            print(f"wrote {path}")
    else:
        det = corr_determinant(shap.values, names=shap.group_names)
        print(f"correlation determinant {det!r}")
        if args.out:
            _write_run_config(args.out, args, outputs=[])
    return EXIT_OK


def pipeline_demo(
    seed: int,
    n: int = 400,
    n_groups: int = 5,
    alpha: float = 0.05,
    out_dir=None,
    stream=None,
) -> dict:
    """End-to-end run on synthetic data: generate, train, attribute, test,
    and compare concentration between grouped and per-feature attributions."""
    stream = stream or sys.stdout
    data, grouping = synth_regression(n, n_groups, seed)
    model = train_gbm(data)
    gshap = tree_group_shap(model, data.X, grouping)
    singles = FeatureGrouping.singletons(data.n_features, list(data.columns))
    ishap = tree_group_shap(model, data.X, singles)
    # Mean attribution over the whole training sample is zero by construction
    # (each split's cover-weighted child deltas cancel), so the significance
    # question is asked on a segment: do groups drive the high predictions?
    preds = model.predict_many(data.X)
    focus = preds >= np.median(preds)
    reports = group_joint_test(
        ishap.values[focus], grouping, alpha=alpha, mode="joint", tests=("gs",)
    )
    by_group = {rep.group: rep for rep in reports}

    mean_abs_group = np.abs(gshap.values).mean(axis=0)
    mean_abs_indiv = np.abs(ishap.values).mean(axis=0)
    gini_group = lorenz_gini(mean_abs_group).gini
    gini_indiv = lorenz_gini(mean_abs_indiv).gini
    det_group = corr_determinant(gshap.values, names=gshap.group_names)
    keep = ishap.values.std(axis=0) > 0
    det_indiv = corr_determinant(
        ishap.values[:, keep], names=[n for n, k in zip(ishap.group_names, keep) if k]
    )

    order = np.argsort(-mean_abs_group)
    print(f"demo seed {seed}: {n} rows, {n_groups} groups, alpha={alpha:g}", file=stream)
    print(
        "significance: joint test of mean attribution on the top-half-by-prediction segment",
        file=stream,
    )
    print(f"{'rank':<5}{'group':<10}{'mean|shap|':>12}  {'p_value':>10}  sig", file=stream)
    ranking = []
    for rank, j in enumerate(order, start=1):
        name = gshap.group_names[j]
        rep = by_group[name]
        p = rep.p_value
        stars = _stars(rep)
        p_str = "NaN" if p is None else f"{p:.4g}"
        print(f"{rank:<5}{name:<10}{mean_abs_group[j]:>12.5f}  {p_str:>10}  {stars}", file=stream)
        ranking.append({"group": name, "mean_abs_shap": float(mean_abs_group[j]), "p_value": p})
    print(f"gini grouped {gini_group:.4f} vs individual {gini_indiv:.4f}", file=stream)
    print(f"correlation determinant grouped {det_group:.4f} vs individual {det_indiv:.4f}", file=stream)

    result = {
        "seed": seed,
        "ranking": ranking,
        "gini_group": gini_group,
        "gini_individual": gini_indiv,
        "det_group": det_group,
        "det_individual": det_indiv,
    }
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        save_model(model, os.path.join(out_dir, "demo.model"))
        write_grouping_file(grouping, list(data.columns), os.path.join(out_dir, "demo.groups"))
        gshap.to_csv(os.path.join(out_dir, "demo_group_shap.csv"))
        ishap.to_csv(os.path.join(out_dir, "demo_individual_shap.csv"))
        with open(os.path.join(out_dir, "demo_report.json"), "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return result


def _cmd_demo(args) -> int:
    _check_alpha(args.alpha)
    seed = _resolve_seed(args.seed)
    with _usage_errors():
        pipeline_demo(seed, n=args.n, n_groups=args.groups, alpha=args.alpha, out_dir=args.out)
    if args.out:
        _write_run_config(args.out, args, seed=seed)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="groupshap", description=__doc__)
    parser.add_argument("--version", action="version", version=f"groupshap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="fit a boosted regression-tree model from CSV data")
    p.add_argument("--data", required=True, help="CSV with a header row")
    p.add_argument("--target", required=True, help="name of the target column")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--n-trees", type=int, default=100)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--min-samples-leaf", type=int, default=5)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("explain", help="compute group attribution values")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", default=None, help="target column to drop, if present")
    p.add_argument("--groups", required=True, help="grouping file: 'name: feat, feat'")
    p.add_argument("--method", choices=("tree", "exact"), default="tree")
    p.add_argument("--out", required=True, help="attribution CSV to write")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "test",
        help="significance tests on attribution matrices",
        description="Tests, for each group, the null hypothesis that its attributions "
        "have mean zero on the rows given: whether the group moves the average "
        "prediction on these rows, not whether the model uses it. Path attributions "
        "of a model's own training rows are centred by construction, so on them "
        "every group gets p near 1.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--shap", help="grouped attribution CSV (tests each group column)")
    src.add_argument("--individual-shap", help="per-feature attribution CSV")
    p.add_argument("--groups", help="grouping file (required with --individual-shap)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--tests", default="gs", help="comma list from gs,wald,cq")
    p.add_argument("--mode", choices=("joint", "reduced"), default="joint")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser(
        "simulate",
        help="Monte Carlo size/power study",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="the paper's grid:\n  --models normal,symmetric,skewed --k 20,100,500 "
        "--s 50,300,600 --rho 0.2,0.5,0.8 --reps 10000",
    )
    p.add_argument("kind", choices=("size", "power"))
    p.add_argument("--models", default=None, help="comma list from normal,symmetric,skewed")
    p.add_argument("--k", default=None, help="comma list of dimensions")
    p.add_argument("--s", default=None, help="comma list of sample sizes")
    p.add_argument("--rho", default=None, help="comma list of correlations")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--sigma2", type=float, default=None)
    p.add_argument("--alternatives", default=None,
                   help="power shifts to run (default sparse,dense)")
    p.add_argument("--tests", default="wald,cq,gs")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="key = value SimSpec file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="concentration and correlation summaries")
    p.add_argument("what", choices=("gini", "lorenz", "corrdet"))
    p.add_argument("--shap", required=True, help="attribution CSV")
    p.add_argument("--out", default=None, help="output directory for CSV points")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("demo", help="end-to-end pipeline on synthetic data")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--groups", type=int, default=5)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"groupshap {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DEGENERATE_ERRORS as exc:
        print(f"groupshap {args.command}: degenerate statistics: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (GroupShapError, OSError) as exc:
        print(f"groupshap {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
