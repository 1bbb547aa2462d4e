"""Monte Carlo driver for the size/power study plus concentration analyses.

Grid cells run independently; each replication derives its stream from the
cell seed and the replication index, so results are identical whether the
cells run serially or on a thread pool. Emitted tables mirror the study
layout: model/K/S as rows, one column block per (alternative, rho) with one
column per test, degenerate cells printed as NaN.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import AREUnavailable, DegenerateConcentration, ShapeError
from .inference import moments, run_tests_from_moments
from .simgen import Alternative, SimSpec, ZModel, generate

DEFAULT_TESTS = ("wald", "cq", "gs")
# K * S of the largest cell from which the grid runs its cells on a thread
# pool. Above it a replication is mostly BLAS/LAPACK work, which releases the
# GIL; below it, mostly per-replication Python work, which the pool only
# contends for (on 2 cores, serial/pooled time was 0.8-0.9 at K*S = 1e3 and
# 1.3-1.8 from 1.5e4 on).
POOL_MIN_CELL_SIZE = 10_000


@dataclass
class CellResult:
    """Rejection tally for one (cell, test) pair."""

    model: str
    K: int
    S: int
    rho: float
    alternative: str
    test: str
    rejections: int
    replications: int
    degenerate_count: int

    @property
    def rejection_rate(self) -> float | None:
        if self.degenerate_count == self.replications:
            return None
        return self.rejections / self.replications

    @property
    def standard_error(self) -> float | None:
        p = self.rejection_rate
        if p is None:
            return None
        return math.sqrt(p * (1.0 - p) / self.replications)


@dataclass
class GridResult:
    cells: list[CellResult]
    alpha: float
    seed: int

    def rate(self, test: str, model, K, S, rho, alternative="null") -> float | None:
        for c in self.cells:
            if (
                c.test == test
                and c.model == str(ZModel(model).value)
                and c.K == K
                and c.S == S
                and c.rho == rho
                and c.alternative == str(Alternative(alternative).value)
            ):
                return c.rejection_rate
        raise KeyError(f"no cell ({test}, {model}, K={K}, S={S}, rho={rho}, {alternative})")

    def column(self, test: str, rho: float | None = None) -> list[float | None]:
        """Rejection rates for one test, in cell order, optionally one rho."""
        return [
            c.rejection_rate
            for c in self.cells
            if c.test == test and (rho is None or c.rho == rho)
        ]


def grid_specs(
    models,
    ks,
    ss,
    rhos,
    alternative,
    replications: int,
    master_seed: int,
    alpha: float = 0.05,
    sigma2: float = 4.0,
) -> list[SimSpec]:
    """Build the cell list with per-cell seeds derived from the master seed."""
    specs = []
    cell_index = 0
    for model in models:
        for K in ks:
            for S in ss:
                for rho in rhos:
                    seed = int(
                        np.random.SeedSequence(
                            entropy=master_seed, spawn_key=(cell_index,)
                        ).generate_state(1, np.uint64)[0]
                    )
                    specs.append(
                        SimSpec(
                            model=ZModel(model),
                            K=K,
                            S=S,
                            rho=rho,
                            alternative=Alternative(alternative),
                            replications=replications,
                            seed=seed,
                            alpha=alpha,
                            sigma2=sigma2,
                        )
                    )
                    cell_index += 1
    return specs


def _run_cell(spec: SimSpec, tests) -> list[CellResult]:
    rejections = {t: 0 for t in tests}
    degenerate = {t: 0 for t in tests}
    for r in range(spec.replications):
        phi = generate(spec, r).phi
        m = moments(phi)
        for rep in run_tests_from_moments(m, spec.alpha, tests):
            if rep.degenerate is not None:
                degenerate[rep.test] += 1
            elif rep.reject:
                rejections[rep.test] += 1
    return [
        CellResult(
            model=spec.model.value,
            K=spec.K,
            S=spec.S,
            rho=spec.rho,
            alternative=spec.alternative.value,
            test=t,
            rejections=rejections[t],
            replications=spec.replications,
            degenerate_count=degenerate[t],
        )
        for t in tests
    ]


def _run_grid(specs, tests, alpha: float, seed: int) -> GridResult:
    threads = min(os.cpu_count() or 1, len(specs))
    if threads <= 1 or max(s.K * s.S for s in specs) < POOL_MIN_CELL_SIZE:
        per_cell = [_run_cell(spec, tests) for spec in specs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_cell = list(pool.map(lambda s: _run_cell(s, tests), specs))
    cells = [c for chunk in per_cell for c in chunk]
    return GridResult(cells=cells, alpha=alpha, seed=seed)


def run_size_grid(specs, tests=DEFAULT_TESTS, master_seed: int = 0) -> GridResult:
    """Empirical size per cell and test; degenerate runs are tallied, not rejected."""
    for spec in specs:
        if spec.alternative is not Alternative.NULL:
            raise ValueError("size grid requires alternative = null for every cell")
    alpha = specs[0].alpha if specs else 0.05
    return _run_grid(specs, tests, alpha, master_seed)


def run_power_grid(specs, tests=DEFAULT_TESTS, master_seed: int = 0) -> GridResult:
    """Empirical power under sparse or dense mean shifts."""
    for spec in specs:
        if spec.alternative is Alternative.NULL:
            raise ValueError("power grid requires a sparse or dense alternative")
    alpha = specs[0].alpha if specs else 0.05
    return _run_grid(specs, tests, alpha, master_seed)


def are_metric(empirical_sizes, alpha: float) -> float:
    """Average relative error of empirical sizes, in percent of alpha.

    Degenerate (None) entries are dropped; an empty remainder is an error.
    """
    sizes = [s for s in empirical_sizes if s is not None]
    if not sizes:
        raise AREUnavailable("no non-degenerate empirical sizes")
    return 100.0 * float(np.mean(np.abs(np.asarray(sizes) - alpha))) / alpha


# --------------------------------------------------------------------------
# concentration and correlation analyses


@dataclass
class ConcentrationReport:
    lorenz: np.ndarray  # (K+1) x 2 points from (0,0) to (1,1)
    gini: float


def lorenz_gini(mean_abs_values) -> ConcentrationReport:
    """Lorenz curve and trapezoid Gini of nonnegative importance values.

    Values are sorted ascending and normalized by their sum; the curve is
    piecewise linear through the cumulative shares at j/K.
    """
    v = np.asarray(mean_abs_values, dtype=float).ravel()
    if v.size == 0 or (v < 0).any():
        raise ValueError("need a nonempty vector of nonnegative values")
    total = v.sum()
    if total <= 0:
        raise DegenerateConcentration("all values are zero")
    shares = np.sort(v) / total
    y = np.concatenate([[0.0], np.cumsum(shares)])
    y[-1] = 1.0  # exact endpoint despite rounding
    x = np.linspace(0.0, 1.0, v.size + 1)
    area = float(np.trapezoid(y, x))
    points = np.column_stack([x, y])
    # equal values put the area a few ulps above 1/2; a Gini is never negative
    return ConcentrationReport(lorenz=points, gini=max(0.0, 1.0 - 2.0 * area))


def corr_determinant(columns, names=None) -> float:
    """Determinant of the Pearson correlation matrix of the columns."""
    m = np.atleast_2d(np.asarray(columns, dtype=float))
    S, K = m.shape
    if K > S:
        raise ShapeError(f"need at least as many rows as columns (S={S}, K={K})")
    sd = m.std(axis=0)
    bad = np.nonzero(sd == 0)[0]
    if bad.size:
        label = names[bad[0]] if names is not None else f"column {bad[0]}"
        raise DegenerateConcentration(f"zero variance in {label}")
    corr = np.corrcoef(m, rowvar=False)
    if K == 1:
        return 1.0
    return float(np.linalg.det(corr))


# --------------------------------------------------------------------------
# table emission


def _fmt_rate(rate: float | None) -> str:
    return "NaN" if rate is None else f"{100.0 * rate:.2f}"


def _best_flags(cells: list[CellResult], alpha: float) -> dict[int, bool]:
    """Mark, per (model,K,S,rho,alternative) row-block, the best test:
    size closest to alpha, or highest power."""
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(cells):
        groups.setdefault((c.model, c.K, c.S, c.rho, c.alternative), []).append(i)
    flags = {i: False for i in range(len(cells))}
    for key, idxs in groups.items():
        rated = [(i, cells[i].rejection_rate) for i in idxs if cells[i].rejection_rate is not None]
        if not rated:
            continue
        is_size = cells[idxs[0]].alternative == Alternative.NULL.value
        if is_size:
            best = min(rated, key=lambda t: abs(t[1] - alpha))[0]
        else:
            best = max(rated, key=lambda t: t[1])[0]
        flags[best] = True
    return flags


def write_grid_csv(result: GridResult, path) -> None:
    flags = _best_flags(result.cells, result.alpha)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "model", "K", "S", "rho", "alternative", "test",
                "rejections", "replications", "degenerate_count",
                "rejection_rate", "se", "best", "alpha", "seed",
            ]
        )
        for i, c in enumerate(result.cells):
            rate = c.rejection_rate
            se = c.standard_error
            w.writerow(
                [
                    c.model, c.K, c.S, repr(c.rho), c.alternative, c.test,
                    c.rejections, c.replications, c.degenerate_count,
                    "NaN" if rate is None else repr(rate),
                    "NaN" if se is None else repr(se),
                    int(flags[i]), repr(result.alpha), result.seed,
                ]
            )


def _column_are(result: GridResult, test: str, rho: float) -> tuple[float | None, int]:
    """ARE of one (test, rho) column and its cell count. A column with any
    degenerate cell has no ARE (None), matching the reference layout's
    treatment of the Wald column."""
    rates = [c.rejection_rate for c in result.cells if c.test == test and c.rho == rho]
    if not rates or None in rates:
        return None, len(rates)
    return are_metric(rates, result.alpha), len(rates)


def write_are_csv(result: GridResult, path, tests=DEFAULT_TESTS) -> None:
    """ARE per (test, rho); NaN where _column_are has none."""
    rhos = sorted({c.rho for c in result.cells})
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["test", "rho", "are", "n_cells"])
        for test in tests:
            for rho in rhos:
                are, n = _column_are(result, test, rho)
                w.writerow([test, repr(rho), "NaN" if are is None else repr(are), n])


def format_grid_table(result: GridResult, tests=DEFAULT_TESTS) -> str:
    """Aligned-text rendering: model/K/S rows, one column block per
    (alternative, rho), one column per test, '*' on the best cell of each
    block, and an ARE row under size tables."""
    cells = result.cells
    flags = _best_flags(cells, result.alpha)
    is_size = all(c.alternative == Alternative.NULL.value for c in cells)
    blocks = sorted({(c.alternative, c.rho) for c in cells}, key=lambda b: (b[0], str(b[1])))
    rows = list(dict.fromkeys((c.model, c.K, c.S) for c in cells))
    lookup = {
        (c.model, c.K, c.S, c.alternative, c.rho, c.test): (c.rejection_rate, flags[i])
        for i, c in enumerate(cells)
    }

    width = 9
    title = "Empirical size (%)" if is_size else "Empirical power (%)"
    lines = [f"{title}  alpha={100 * result.alpha:g}%"]
    head1 = f"{'model':<10} {'K':>5} {'S':>5}"
    head2 = " " * len(head1)
    for alt, rho in blocks:
        label = f"rho={rho:g}" if is_size else f"{alt} rho={rho:g}"
        head1 += " | " + f"{label:^{width * len(tests)}}"
        head2 += " | " + "".join(f"{t:^{width}}" for t in tests)
    lines += [head1, head2, "-" * len(head2)]
    for model, K, S in rows:
        line = f"{model:<10} {K:>5} {S:>5}"
        for alt, rho in blocks:
            part = ""
            for t in tests:
                rate, best = lookup.get((model, K, S, alt, rho, t), (None, False))
                cell = _fmt_rate(rate) + ("*" if best else "")
                part += f"{cell:^{width}}"
            line += " | " + part
        lines.append(line)
    if is_size:
        are_line = f"{'ARE':<10} {'':>5} {'':>5}"
        for _, rho in blocks:
            part = ""
            for t in tests:
                are = _column_are(result, t, rho)[0]
                cell = "NaN" if are is None else f"{are:.2f}"
                part += f"{cell:^{width}}"
            are_line += " | " + part
        lines += ["-" * len(head2), are_line]
    return "\n".join(lines) + "\n"


def emit_tables(result: GridResult, out_dir, tests=DEFAULT_TESTS) -> list[str]:
    """Write CSV + aligned-text tables (and are.csv for size grids)."""
    os.makedirs(out_dir, exist_ok=True)
    is_size = all(c.alternative == Alternative.NULL.value for c in result.cells)
    stem = "size_table" if is_size else "power_table"
    written = []
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    write_grid_csv(result, csv_path)
    written.append(csv_path)
    txt_path = os.path.join(out_dir, f"{stem}.txt")
    with open(txt_path, "w") as fh:
        fh.write(format_grid_table(result, tests))
    written.append(txt_path)
    if is_size:
        are_path = os.path.join(out_dir, "are.csv")
        write_are_csv(result, are_path, tests)
        written.append(are_path)
    return written
