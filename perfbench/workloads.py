"""The benchmark's workloads: inputs made from a seed, the CLI commands that
make up one iteration, and the checks on every output those commands write.

Importing this module imports ``groupshap.cli``; the set-up probe in run.py
times that import together with the input generation.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from groupshap import cli  # noqa: F401  (the import users pay; timed by the set-up probe)

import numpy as np

from groupshap.errors import GroupShapError
from groupshap.shapley import FeatureGrouping, write_grouping_file
from groupshap.simgen import synth_regression
from groupshap.tree import load_model

MODELS = ("normal", "symmetric", "skewed")
TESTS = ("wald", "cq", "gs")
EFFICIENCY_RTOL = 1e-9
REPORT_COLUMNS = ["test", "group", "statistic", "df", "p_value", "significant", "degenerate"]


class CheckFailed(Exception):
    """An output of the program is missing, malformed or wrong."""


@dataclass
class Command:
    """One CLI invocation of an iteration, the files it writes and their check.

    ``check`` raises CheckFailed on a wrong output; it may return a note on a
    defect that the benchmark reports without counting it as a failure.
    """

    name: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[[], str | None]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path.name}: cannot read: {exc}") from None
    if not rows:
        raise CheckFailed(f"{path.name}: empty file")
    return rows[0], rows[1:]


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{where}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{where}: non-finite value {text!r}")
    return value


# --------------------------------------------------------------------------
# Monte Carlo corners


@dataclass(frozen=True)
class Grid:
    ks: tuple[int, ...]
    ss: tuple[int, ...]
    rhos: tuple[float, ...]
    reps: int

    @property
    def cells(self) -> int:
        return len(MODELS) * len(self.ks) * len(self.ss) * len(self.rhos)


GRIDS = {
    "mc_small": Grid(ks=(20,), ss=(50,), rhos=(0.2, 0.5, 0.8), reps=200),
    "mc_large": Grid(ks=(500,), ss=(300, 600), rhos=(0.5,), reps=20),
}
# same branches (K < S and K >= S on mc_large), a few replications
TINY_GRIDS = {
    "mc_small": Grid(ks=(20,), ss=(50,), rhos=(0.2, 0.5, 0.8), reps=3),
    "mc_large": Grid(ks=(40,), ss=(24, 60), rhos=(0.5,), reps=2),
}


def _join(values) -> str:
    return ",".join(str(v) for v in values)


class MonteCarlo:
    """``simulate size`` over the three innovation models at one grid corner."""

    def __init__(self, grid: Grid, seed: int, workdir: Path):
        self.grid = grid
        self.replications = grid.cells * grid.reps
        out = workdir / "out"
        self.table = out / "size_table.csv"
        argv = [
            "simulate", "size",
            "--models", _join(MODELS),
            "--k", _join(grid.ks),
            "--s", _join(grid.ss),
            "--rho", _join(grid.rhos),
            "--reps", str(grid.reps),
            "--tests", _join(TESTS),
            "--seed", str(seed),
            "--out", str(out),
        ]
        outputs = [self.table, out / "size_table.txt", out / "are.csv"]
        self.commands = [Command("simulate", argv, outputs, self.check_table)]
        self.inputs: list[Path] = []

    def generate_inputs(self) -> None:
        """The grid is drawn inside ``simulate`` from --seed; no input files."""

    def start_iteration(self) -> None:
        pass

    def derived(self, times: dict[str, float]) -> dict[str, float]:
        return {"reps_per_s": self.replications / times["simulate"]}

    def check_table(self) -> None:
        header, rows = _read_rows(self.table)
        g = self.grid
        expected = {
            (m, k, s, rho, t)
            for m in MODELS for k in g.ks for s in g.ss for rho in g.rhos for t in TESTS
        }
        seen = set()
        for lineno, row in enumerate(rows, start=2):
            where = f"{self.table.name}:{lineno}"
            if len(row) != len(header):
                raise CheckFailed(f"{where}: {len(row)} fields, header has {len(header)}")
            r = dict(zip(header, row))
            try:
                key = (r["model"], int(r["K"]), int(r["S"]), float(r["rho"]), r["test"])
                reps = int(r["replications"])
                degenerate = int(r["degenerate_count"])
                rejections = int(r["rejections"])
            except (KeyError, ValueError) as exc:
                raise CheckFailed(f"{where}: bad row: {exc}") from None
            if key not in expected or key in seen:
                raise CheckFailed(f"{where}: unexpected or repeated cell {key}")
            seen.add(key)
            if r["alternative"] != "null" or reps != g.reps:
                raise CheckFailed(f"{where}: alternative {r['alternative']!r}, {reps} replications")
            _, k, s, _, test = key
            if test == "wald" and (degenerate == reps) != (k >= s):
                raise CheckFailed(f"{where}: wald degenerate {degenerate}/{reps} at K={k}, S={s}")
            if degenerate < reps:
                rate = _finite(r["rejection_rate"], where)
                if not 0.0 <= rate <= 1.0 or rejections + degenerate > reps:
                    raise CheckFailed(f"{where}: rate {rate}, {rejections} rejections")
        missing = expected - seen
        if missing:
            raise CheckFailed(f"{self.table.name}: {len(missing)} missing rows, e.g. {min(missing)}")


# --------------------------------------------------------------------------
# train -> explain -> test pipeline


@dataclass(frozen=True)
class PipelineSize:
    n_train: int = 4000
    n_explain: int = 20000
    n_exact: int = 100
    n_groups: int = 5
    n_trees: int = 100
    max_depth: int = 3


TINY_PIPELINE = PipelineSize(n_train=200, n_explain=300, n_exact=50, n_trees=10)


def _write_csv(path: Path, X: np.ndarray, columns: list[str], y=None) -> None:
    if y is not None:
        X = np.column_stack([X, y])
        columns = columns + ["y"]
    # %.17g round-trips every float64 exactly
    np.savetxt(path, X, fmt="%.17g", delimiter=",", header=",".join(columns), comments="")


class Pipeline:
    """train, two path explains, one exact explain and a joint test, on
    synthetic grouped regression data."""

    def __init__(self, size: PipelineSize, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        src, out = workdir / "inputs", workdir / "out"
        self.train_csv = src / "train.csv"
        self.explain_csv = src / "explain.csv"
        self.exact_csv = src / "exact.csv"
        self.groups = src / "groups.txt"
        self.singles = src / "singletons.txt"
        self.inputs = [self.train_csv, self.explain_csv, self.exact_csv, self.groups, self.singles]
        self.model = out / "model.json"
        self.grouped_shap = out / "grouped_shap.csv"
        self.single_shap = out / "singleton_shap.csv"
        self.exact_shap = out / "exact_shap.csv"
        self.report = out / "test_report.csv"
        explain = ["explain", "--model", str(self.model)]
        self.commands = [
            Command(
                "train",
                ["train", "--data", str(self.train_csv), "--target", "y",
                 "--out", str(self.model), "--n-trees", str(size.n_trees),
                 "--max-depth", str(size.max_depth)],
                [self.model],
                self.check_train,
            ),
            Command(
                "explain_grouped",
                explain + ["--data", str(self.explain_csv), "--groups", str(self.groups),
                           "--out", str(self.grouped_shap)],
                [self.grouped_shap],
                lambda: self.check_shap(self.grouped_shap, self.group_names, self.pred_explain),
            ),
            Command(
                "explain_singletons",
                explain + ["--data", str(self.explain_csv), "--groups", str(self.singles),
                           "--out", str(self.single_shap)],
                [self.single_shap],
                lambda: self.check_shap(self.single_shap, self.feature_names, self.pred_explain),
            ),
            Command(
                "explain_exact",
                explain + ["--data", str(self.exact_csv), "--groups", str(self.groups),
                           "--method", "exact", "--out", str(self.exact_shap)],
                [self.exact_shap],
                lambda: self.check_shap(self.exact_shap, self.group_names, self.pred_exact),
            ),
            Command(
                "test",
                ["test", "--individual-shap", str(self.single_shap), "--groups", str(self.groups),
                 "--tests", "gs,wald,cq", "--format", "csv", "--out", str(self.report)],
                [self.report],
                self.check_report,
            ),
        ]
        self.start_iteration()

    def generate_inputs(self) -> None:
        s = self.size
        seeds = np.random.SeedSequence(self.seed).generate_state(3)
        train, grouping = synth_regression(s.n_train, s.n_groups, int(seeds[0]))
        explain, _ = synth_regression(s.n_explain, s.n_groups, int(seeds[1]))
        exact, _ = synth_regression(s.n_exact, s.n_groups, int(seeds[2]))
        self.train, self.explain, self.exact = train, explain, exact
        self.feature_names = list(train.columns)
        self.group_names = list(grouping.names)
        self.train_csv.parent.mkdir(parents=True, exist_ok=True)
        self.model.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(self.train_csv, train.X, self.feature_names, train.y)
        _write_csv(self.explain_csv, explain.X, self.feature_names)
        _write_csv(self.exact_csv, exact.X, self.feature_names)
        write_grouping_file(grouping, self.feature_names, self.groups)
        singles = FeatureGrouping.singletons(len(self.feature_names), self.feature_names)
        write_grouping_file(singles, self.feature_names, self.singles)

    def start_iteration(self) -> None:
        self.pred_explain = self.pred_exact = None

    def derived(self, times: dict[str, float]) -> dict[str, float]:
        s = self.size
        return {
            "train_s": times["train"],
            "explain_rows_per_s": 2 * s.n_explain
            / (times["explain_grouped"] + times["explain_singletons"]),
            "exact_rows_per_s": s.n_exact / times["explain_exact"],
        }

    def check_train(self) -> None:
        try:
            model = load_model(self.model)
        except GroupShapError as exc:
            raise CheckFailed(f"model does not reload: {exc}") from None
        mse = float(np.mean((model.predict_many(self.train.X) - self.train.y) ** 2))
        if not (math.isfinite(mse) and mse < float(np.var(self.train.y))):
            raise CheckFailed(f"training MSE {mse} not below var(y)")
        self.pred_explain = model.predict_many(self.explain.X)
        self.pred_exact = model.predict_many(self.exact.X)

    def check_shap(self, path: Path, names: list[str], preds) -> None:
        """Finite attributions with base + row sum == prediction (efficiency)."""
        if preds is None:
            raise CheckFailed(f"{path.name}: no reloaded model to check against")
        header, rows = _read_rows(path)
        if header != ["obs_id", "base"] + names:
            raise CheckFailed(f"{path.name}: header {header[:4]}...")
        if len(rows) != len(preds):
            raise CheckFailed(f"{path.name}: {len(rows)} rows, expected {len(preds)}")
        for i, row in enumerate(rows):
            where = f"{path.name}:{i + 2}"
            if len(row) != len(header) or row[0] != str(i):
                raise CheckFailed(f"{where}: malformed row")
            cells = [_finite(c, where) for c in row[1:]]
            total = cells[0] + math.fsum(cells[1:])
            if abs(total - preds[i]) > EFFICIENCY_RTOL * max(1.0, abs(preds[i])):
                raise CheckFailed(f"{where}: base + sum {total!r} != prediction {preds[i]!r}")

    def check_report(self) -> str | None:
        """Finite statistic and p in [0, 1] on every non-degenerate row.

        The report is read field by field from both ends, because ``test
        --format csv`` writes Wald's "dfn,dfd" column unquoted; such rows are
        returned as a defect note instead of failing the operation.
        """
        header, rows = _read_rows(self.report)
        if header != REPORT_COLUMNS:
            raise CheckFailed(f"{self.report.name}: header {header}")
        want = [(t, g) for g in self.group_names for t in ("gs", "wald", "cq")]
        got = [tuple(row[:2]) for row in rows]
        if got != want:
            raise CheckFailed(f"{self.report.name}: rows {got[:3]}..., expected {want[:3]}...")
        ragged = []
        for lineno, row in enumerate(rows, start=2):
            where = f"{self.report.name}:{lineno}"
            if len(row) < len(REPORT_COLUMNS):
                raise CheckFailed(f"{where}: {len(row)} fields")
            if len(row) > len(REPORT_COLUMNS):
                ragged.append(lineno)
            statistic, (p_value, _, degenerate) = row[2], row[-3:]
            if degenerate:
                continue
            _finite(statistic, where)
            p = _finite(p_value, where)
            if not 0.0 <= p <= 1.0:
                raise CheckFailed(f"{where}: p-value {p} outside [0, 1]")
        if ragged:
            return (f"{self.report.name}: lines {ragged} have more fields than the header "
                    "(unquoted comma in the df column)")
        return None


def make(name: str, seed: int, workdir: Path, tiny: bool = False):
    if name == "pipeline":
        return Pipeline(TINY_PIPELINE if tiny else PipelineSize(), seed, workdir)
    grids = TINY_GRIDS if tiny else GRIDS
    return MonteCarlo(grids[name], seed, workdir)
