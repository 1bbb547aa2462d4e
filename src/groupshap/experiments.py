"""Monte Carlo driver for the size/power study plus concentration analyses.

The grid's unit of work is a block of replications of one cell: about
BLOCK_FLOATS floats, generated as one R x S x K stack, whose statistics one
moments pass and one call per test compute as arrays over R; a block of one
replication is a single S x K sample. All blocks of all cells run on one
thread pool and are tallied per cell in cell order. Each replication draws
from its own stream, keyed by the cell seed and the replication index, so
every result is the same however the blocks are cut and scheduled. Emitted
tables mirror the study layout: model/K/S as rows, one column block per
(alternative, rho) with one column per test, degenerate cells printed as NaN.
Per-cell diagnostics go to their own file, outside the tables.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import AREUnavailable, DegenerateConcentration, ShapeError
from .inference import Outcomes, moments, outcomes_from_moments
from .simgen import Alternative, SimSpec, ZModel, generate

# _run_block does not call this; perfbench/tracing.py looks the name up here
# and wraps it, so it stays importable (its per-test spans stay empty on the
# grid)
from .inference import run_tests_from_moments  # noqa: F401

DEFAULT_TESTS = ("wald", "cq", "gs")
# Floats (R * K * S) in one block of R replications. A block is the grid's
# unit of work: one generate call, one moments pass and one call per test
# serve all its replications, so they share their Python work, and every
# block of every cell goes to one thread pool (BLAS/LAPACK and most numpy
# work release the GIL). A cell of K * S >= this runs in blocks of one.
# Chosen by a sweep over the paper grid's (K, S) shapes (rho = 0.5, normal
# rows, one thread, best of 3-5 noisy runs): ms per replication in blocks of
# one -> blocks of about 5e4 floats went K=20, S=50 0.26 -> 0.08; K=20,
# S=300 0.35 -> 0.22; K=20, S=600 0.77 -> 0.55; K=100, S=50 0.37 -> 0.22;
# K=500, S=50 0.83 -> 0.84. Blocks of about 1e5 floats were slower at K=20,
# S=600, K=100, S=50 and K=500, S=50, and faster only at K=20, S=50 (0.07).
# K=100, S=300 (3e4 floats) keeps blocks of one: blocks of two and three
# ran 1.26 and 1.43 ms against 1.54, inside the sweep's noise.
BLOCK_FLOATS = 50_000


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
class CellDiagnostics:
    """What lies behind one cell's rates; kept out of the result tables.

    The GS counts and fitted d are over the replications where GS ran;
    d_quantiles are the 5/50/95% quantiles of its finite fitted d, None
    where there is none (or GS was not run).
    """

    model: str
    K: int
    S: int
    rho: float
    alternative: str
    replications: int
    degenerate: dict  # (test, tag) -> count
    gs_screen_fired: int | None = None
    gs_normal_fallback: int | None = None
    gs_d_quantiles: tuple[float, float, float] | None = None


@dataclass
class GridResult:
    cells: list[CellResult]
    alpha: float
    seed: int
    diagnostics: list[CellDiagnostics] = field(default_factory=list, compare=False)

    @property
    def tests(self) -> list[str]:
        """The tests the grid ran, in run order."""
        return list(dict.fromkeys(c.test for c in self.cells))

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


def _run_block(spec: SimSpec, start: int, stop: int, tests, held) -> list[Outcomes]:
    """The tests on replications start .. stop - 1 of a cell, as one stack.

    A block of one is one S x K sample, whose statistics are numpy scalars:
    a tenth of the cost of length-1 arrays. The sample stays on `held`, a
    threading.local, until the thread's next block is drawn: freed before,
    it lets the allocator return the heap top to the OS, and every block of
    a large cell faults its pages in again (3x the minor faults on the
    K=500 grid of the benchmark, run on one thread).
    """
    held.phi = (generate(spec, start) if stop - start == 1 else generate(spec, start, stop)).phi
    return outcomes_from_moments(moments(held.phi), spec.alpha, tests)


class _Tally:
    """One cell's record, filled in block by block: per test, each
    replication's degenerate flag and decision, and the GS screen counts,
    normal fallbacks and fitted d behind the diagnostics."""

    def __init__(self, spec: SimSpec, tests):
        n = spec.replications
        self.spec, self.tests = spec, tests
        self.flag = {t: np.empty(n, dtype=np.intp) for t in tests}
        self.reject = {t: np.empty(n, dtype=bool) for t in tests}
        self.reasons = {}
        self.n_screened = np.empty(n, dtype=np.intp)
        self.fallback = np.empty(n, dtype=bool)
        self.d = np.empty(n)

    def add(self, start: int, stop: int, outcomes: list[Outcomes]) -> None:
        for o in outcomes:
            self.flag[o.test][start:stop] = o.flag
            self.reject[o.test][start:stop] = o.reject
            # a test's flags depend on K and S alone, which the cell fixes
            self.reasons[o.test] = o.flags
            if o.test == "gs":
                self.n_screened[start:stop] = o.extra["t0"]["n_screened"]
                self.fallback[start:stop] = o.extra["approx"]["normal_fallback"]
                self.d[start:stop] = o.extra["approx"]["d"]

    def result(self) -> tuple[list[CellResult], CellDiagnostics]:
        spec, n = self.spec, self.spec.replications
        key = dict(
            model=spec.model.value,
            K=spec.K,
            S=spec.S,
            rho=spec.rho,
            alternative=spec.alternative.value,
        )
        cells, degenerate = [], Counter()
        for t in self.tests:
            ran = self.flag[t] == 0
            per_flag = np.bincount(self.flag[t], minlength=len(self.reasons[t]) + 1)[1:]
            for (tag, _), count in zip(self.reasons[t], per_flag.tolist()):
                degenerate[(t, tag)] += count
            cells.append(
                CellResult(
                    **key,
                    test=t,
                    rejections=int(np.count_nonzero(self.reject[t] & ran)),
                    replications=n,
                    degenerate_count=n - int(np.count_nonzero(ran)),
                )
            )
        diagnostics = CellDiagnostics(**key, replications=n, degenerate=dict(+degenerate))
        if "gs" in self.tests:
            ran = self.flag["gs"] == 0
            diagnostics.gs_screen_fired = int(np.count_nonzero(ran & (self.n_screened > 0)))
            diagnostics.gs_normal_fallback = int(np.count_nonzero(ran & self.fallback))
            fitted = self.d[ran & np.isfinite(self.d)]
            if fitted.size:
                diagnostics.gs_d_quantiles = tuple(np.quantile(fitted, (0.05, 0.5, 0.95)).tolist())
        return cells, diagnostics


def _run_grid(specs, tests, alpha: float, seed: int) -> GridResult:
    tallies = [_Tally(spec, tests) for spec in specs]
    blocks = []
    for tally in tallies:
        n, size = tally.spec.replications, max(1, BLOCK_FLOATS // (tally.spec.K * tally.spec.S))
        blocks += [(tally, start, min(start + size, n)) for start in range(0, n, size)]

    held = threading.local()

    def run(block):
        tally, start, stop = block
        return _run_block(tally.spec, start, stop, tests, held)

    threads = min(os.cpu_count() or 1, len(blocks))
    with contextlib.ExitStack() as stack:
        run_all = map
        if threads > 1:
            run_all = stack.enter_context(ThreadPoolExecutor(max_workers=threads)).map
        # tallied in block order as the blocks finish: only the outcomes of
        # blocks that ran ahead of the first unfinished one are held at once
        for (tally, start, stop), outcomes in zip(blocks, run_all(run, blocks)):
            tally.add(start, stop, outcomes)
    per_cell = [tally.result() for tally in tallies]
    cells = [c for chunk, _ in per_cell for c in chunk]
    diagnostics = [diag for _, diag in per_cell]
    return GridResult(cells=cells, alpha=alpha, seed=seed, diagnostics=diagnostics)


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


def write_are_csv(result: GridResult, path) -> None:
    """ARE per (test, rho); NaN where _column_are has none."""
    rhos = sorted({c.rho for c in result.cells})
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["test", "rho", "are", "n_cells"])
        for test in result.tests:
            for rho in rhos:
                are, n = _column_are(result, test, rho)
                w.writerow([test, repr(rho), "NaN" if are is None else repr(are), n])


def format_grid_table(result: GridResult) -> str:
    """Aligned-text rendering: model/K/S rows, one column block per
    (alternative, rho), one column per test, '*' on the best cell of each
    block, and an ARE row under size tables."""
    cells, tests = result.cells, result.tests
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
    labels = [f"rho={rho:g}" if is_size else f"{alt} rho={rho:g}" for alt, rho in blocks]
    # a block is as wide as its test columns, or as its label if that is wider
    block_width = [max(width * len(tests), len(label)) for label in labels]
    for label, bw in zip(labels, block_width):
        head1 += " | " + f"{label:^{bw}}"
        head2 += " | " + f"{''.join(f'{t:^{width}}' for t in tests):^{bw}}"
    lines += [head1, head2, "-" * len(head2)]
    for model, K, S in rows:
        line = f"{model:<10} {K:>5} {S:>5}"
        for (alt, rho), bw in zip(blocks, block_width):
            part = ""
            for t in tests:
                rate, best = lookup.get((model, K, S, alt, rho, t), (None, False))
                cell = _fmt_rate(rate) + ("*" if best else "")
                part += f"{cell:^{width}}"
            line += " | " + f"{part:^{bw}}"
        lines.append(line)
    if is_size:
        are_line = f"{'ARE':<10} {'':>5} {'':>5}"
        for (_, rho), bw in zip(blocks, block_width):
            part = ""
            for t in tests:
                are = _column_are(result, t, rho)[0]
                cell = "NaN" if are is None else f"{are:.2f}"
                part += f"{cell:^{width}}"
            are_line += " | " + f"{part:^{bw}}"
        lines += ["-" * len(head2), are_line]
    return "\n".join(lines) + "\n"


def _fmt_float(value: float | None) -> str:
    return "NaN" if value is None else repr(value)


def write_diagnostics_csv(result: GridResult, path) -> None:
    """One row per cell: GS screen-fire and normal-fallback rates, quantiles
    of the fitted d, and a count per degenerate (test, tag) pair that occurs
    anywhere in the grid."""
    tests = result.tests
    tags = sorted(
        {key for diag in result.diagnostics for key in diag.degenerate},
        key=lambda key: (tests.index(key[0]), key[1]),
    )
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "model", "K", "S", "rho", "alternative", "replications",
                "gs_screen_fire_rate", "gs_normal_fallback_rate",
                "gs_d_q05", "gs_d_q50", "gs_d_q95",
                *(f"degenerate_{test}_{tag}" for test, tag in tags),
            ]
        )
        for diag in result.diagnostics:
            n = diag.replications
            rates = [
                None if count is None else count / n
                for count in (diag.gs_screen_fired, diag.gs_normal_fallback)
            ]
            w.writerow(
                [
                    diag.model, diag.K, diag.S, repr(diag.rho), diag.alternative, n,
                    *map(_fmt_float, rates),
                    *map(_fmt_float, diag.gs_d_quantiles or (None, None, None)),
                    *(diag.degenerate.get(key, 0) for key in tags),
                ]
            )


def emit_tables(result: GridResult, out_dir) -> list[str]:
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
        fh.write(format_grid_table(result))
    written.append(txt_path)
    if is_size:
        are_path = os.path.join(out_dir, "are.csv")
        write_are_csv(result, are_path)
        written.append(are_path)
    return written
