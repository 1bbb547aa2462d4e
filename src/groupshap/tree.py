"""Regression-tree ensembles: greedy CART boosting, prediction, model files.

Trees are stored as parallel node arrays. Leaves carry ``feature == -1``;
internal nodes split as ``x[feature] <= threshold goes left``. Every node
carries ``cover`` (training rows that reached it) and ``value`` (leaf output
for leaves, cover-weighted mean of the children for internal nodes), which is
what the attribution code walks. ``Tree`` checks every node, however built,
and stores the internal values it computes (so a trained model is a fixed
point of save and load); ``TreeEnsemble`` checks split features' range.

Every row-wise traversal is ``Tree.descend``, over the tree's edge table: an
edge ``2 * node + went_left`` indexes the child it leads to, and a leaf's two
edges loop back to the leaf, so one level of the walk is one gather from X,
one compare and one gather from the table, for every row at once, depth
levels in all. ``predict_many`` and ``tree_group_shap`` walk the rows in
blocks of about ``ROW_BLOCK_FLOATS`` floats (``row_blocks``), every tree over
one block before the next. Training presorts each column once and carries
the sorted values with the sort order through every split. Numeric CSV files
are parsed with one ``np.loadtxt`` call where it gives the scan's exact
result, and by the ``csv``/``float`` scan otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GroupShapError,
    ModelInvariantError,
    ModelParseError,
    ShapeError,
    TargetRequired,
)

MODEL_FORMAT_VERSION = 1
LEAF = -1
# Rows are walked in blocks of about this many floats of X, all trees over
# one block before the next, so the block and the walk's per-row arrays stay
# in cache across the trees. Chosen by a sweep of 2^12 .. 2^18 and a single
# block on a 20 000 x 15 matrix and 100 depth-3 trees (one thread, 2 MiB L2
# per core): 2^16 was fastest for predict_many and tree_group_shap; 2^18
# and a single block were 15-40% slower (best of 7), and blocks of 2^14 and
# below pay numpy's per-call cost on every level.
ROW_BLOCK_FLOATS = 1 << 16


class DataError(GroupShapError):
    """Dataset ingestion or precondition failure."""


class TreeShapeError(ValueError):
    """Node arrays that are not a valid tree, at ``node`` (of ``tree``) if known."""

    def __init__(self, reason: str, node: int | None = None, tree: int | None = None):
        where = ", ".join(f"{k} {v}" for k, v in (("tree", tree), ("node", node)) if v is not None)
        super().__init__(f"{reason} ({where})" if where else reason)
        self.reason, self.node, self.tree = reason, node, tree


def _preorder(feature, left, right, root=None) -> tuple[list[int], int]:
    """A tree's nodes in preorder from its root, and its depth, from its node
    lists. Raises TreeShapeError unless every child is a node, the root (if
    given) is the only node without a parent, every other node has one, and
    the root reaches every node."""
    n = len(feature)
    parents = [0] * n
    for i, f in enumerate(feature):
        if f != LEAF:
            for child in (left[i], right[i]):
                if not 0 <= child < n:
                    raise TreeShapeError("child ids out of range", i)
                parents[child] += 1
    roots = [i for i in range(n) if not parents[i]]
    if not roots:
        raise TreeShapeError("every node has a parent, so the nodes form a cycle")
    root = roots[0] if root is None else root
    if roots != [root]:
        raise TreeShapeError("the root must be the only parentless node", min(set(roots) - {root}))
    if max(parents) > 1:
        raise TreeShapeError("node has more than one parent", parents.index(max(parents)))
    # with one parent for every node but the root, the walk meets no node
    # twice; a cycle apart from the root is left unreached
    order, depth, stack = [], 0, [(root, 0)]
    while stack:
        i, d = stack.pop()
        order.append(i)
        depth = max(depth, d)
        if feature[i] != LEAF:
            stack += [(left[i], d + 1), (right[i], d + 1)]
    if len(order) < n:
        raise TreeShapeError("unreachable nodes in tree", min(set(range(n)) - set(order)))
    return order, depth


def _cover_weighted_values(order, feature, threshold, left, right, value, cover) -> list[float]:
    """``value`` with each internal node's replaced, children first, by its
    children's cover-weighted mean; ``order`` lists parents first. Raises
    TreeShapeError at the first node that fails a check ``Tree`` lists."""
    value = list(value)
    for i in reversed(order):
        f, c, l, r = feature[i], cover[i], left[i], right[i]
        for name, x in (("value", value[i]), ("cover", c)):
            if not math.isfinite(x):
                raise TreeShapeError(f"{name} {x} is not finite", i)
        if c < 0:
            raise TreeShapeError("cover must be nonnegative", i)
        if f == LEAF:
            continue
        if f < 0:
            raise TreeShapeError(f"split feature {f} is negative", i)
        if not math.isfinite(threshold[i]):
            raise TreeShapeError(f"threshold {threshold[i]} is not finite", i)
        if not math.isclose(c, cover[l] + cover[r], rel_tol=1e-9, abs_tol=1e-9):
            raise TreeShapeError(f"cover {c} != {cover[l]} + {cover[r]}", i)
        if c <= 0:
            raise TreeShapeError("internal node with zero cover", i)
        # rounding scales with the terms, not with a mean they cancel to
        exact = (cover[l] * value[l] + cover[r] * value[r]) / c
        if abs(value[i] - exact) > 1e-9 * max(1.0, abs(value[i]), abs(value[l]), abs(value[r])):
            raise TreeShapeError(f"value {value[i]} != cover-weighted child mean {exact}", i)
        value[i] = exact
    return value


@dataclass(frozen=True)
class Tree:
    """One binary regression tree as parallel node arrays, checked and frozen.

    Construction raises ``TreeShapeError`` (a ValueError) naming the node
    unless the nodes form one tree from ``root`` (if None, the parentless
    node), values and covers are finite, covers >= 0, splits on features >= 0
    at finite thresholds, and internal covers > 0 and values their children's
    sum and cover-weighted mean, to 1e-9; it stores those means. The six node
    arrays are read-only copies, so tables built from them cannot go stale.

    Edge ``2 * node + went_left`` leaves ``node`` to the left (went_left =
    1) or to the right (0). Five read-only tables are indexed by edge: the
    split of the edge's node (``edge_feature``, ``edge_threshold``), ``2 *
    child`` for the node it leads to (``edge_next``), that node's value
    (``edge_value``) and value(child) - value(node) (``edge_delta``). A leaf
    splits as ``x[0] <= +inf``, which holds for every finite x, and both its
    edges lead back to it, with a delta of +0.0.
    """

    feature: np.ndarray  # int64, LEAF for leaves
    threshold: np.ndarray  # float64, nan for leaves
    left: np.ndarray  # int64, LEAF for leaves
    right: np.ndarray
    value: np.ndarray  # float64
    cover: np.ndarray  # float64
    root: int | None = 0
    depth: int = field(init=False)  # edges on the longest root-to-leaf path
    edge_feature: np.ndarray = field(init=False, repr=False, compare=False)
    edge_threshold: np.ndarray = field(init=False, repr=False, compare=False)
    edge_next: np.ndarray = field(init=False, repr=False, compare=False)
    edge_value: np.ndarray = field(init=False, repr=False, compare=False)
    edge_delta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._freeze(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=float),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            value=np.array(self.value, dtype=float),
            cover=np.array(self.cover, dtype=float),
        )
        lists = [getattr(self, key).tolist() for key in _NODE_KEYS[1:]]
        order, depth = _preorder(lists[0], *lists[2:4], self.root)
        self._freeze(value=np.array(_cover_weighted_values(order, *lists)))
        leaf = self.feature == LEAF
        node = np.arange(self.n_nodes)
        right, left = np.where(leaf, node, self.right), np.where(leaf, node, self.left)
        edge_next = 2 * np.column_stack([right, left]).ravel()
        edge_value = self.value.take(edge_next >> 1)
        self._freeze(
            edge_feature=np.repeat(np.where(leaf, 0, self.feature), 2),
            edge_threshold=np.repeat(np.where(leaf, np.inf, self.threshold), 2),
            edge_next=edge_next,
            edge_value=edge_value,
            edge_delta=edge_value - np.repeat(self.value, 2),
        )
        object.__setattr__(self, "root", order[0])
        object.__setattr__(self, "depth", depth)

    def _freeze(self, **arrays):
        for name, a in arrays.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def descend(self, X: np.ndarray):
        """Walk every row of X from the root to its leaf, one level at a time.

        Yields ``edges`` ``depth`` times: the edge each row takes out of the
        node it is at, ``2 * node + went_left``. A row that has reached its
        leaf stays there, taking one of the leaf's edges. After the last
        level, ``edge_next[edges] >> 1`` is each row's leaf.
        """
        feature, threshold, after = self.edge_feature, self.edge_threshold, self.edge_next
        if self.depth:
            # every row starts at the root: one column against one threshold
            at = 2 * self.root
            edges = at + (X[:, feature[at]] <= threshold[at])
            yield edges
        row_base = np.arange(0, X.size, X.shape[1])
        for _ in range(1, self.depth):
            at = after.take(edges)  # each row's node, as its first edge
            edges = np.add(at, X.take(row_base + feature.take(at)) <= threshold.take(at), out=at)
            yield edges

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Value of the leaf each row of X ends in."""
        edges = np.full(X.shape[0], 2 * self.root)
        for edges in self.descend(X):
            pass
        return self.edge_value.take(edges)


@dataclass
class TreeEnsemble:
    """Additive regression trees plus an offset; a split >= n_features raises TreeShapeError."""

    trees: list[Tree]
    n_features: int
    base_score: float
    feature_names: list[str] | None = None

    def __post_init__(self):
        for ti, t in enumerate(self.trees):
            wide = np.flatnonzero(t.feature >= self.n_features)
            if len(wide):
                i, n = int(wide[0]), self.n_features
                raise TreeShapeError(f"split feature {t.feature[i]} outside [0, {n})", i, ti)

    def predict(self, x) -> float:
        """Prediction for a single feature vector: base_score + leaf sum."""
        X, one = feature_matrix(x, self.n_features)
        if not one:
            raise ShapeError(f"expected one feature vector, got shape {X.shape}")
        return float(self.predict_many(X)[0])

    def predict_many(self, X) -> np.ndarray:
        """Vectorized prediction over the rows of an S x F matrix.

        The rows are walked in blocks (``row_blocks``), every tree in turn
        within a block, so each row adds its leaf values in tree order.
        """
        X, _ = feature_matrix(X, self.n_features)
        out = np.full(X.shape[0], self.base_score)
        for rows in row_blocks(*X.shape):
            block, total = X[rows], out[rows]
            for t in self.trees:
                total += t.leaf_values(block)
        return out


def row_blocks(n_rows: int, width: int) -> list[slice]:
    """Consecutive slices covering ``range(n_rows)``, each of about
    ``ROW_BLOCK_FLOATS`` floats at ``width`` floats a row."""
    size = max(1, ROW_BLOCK_FLOATS // max(1, width))
    return [slice(start, min(start + size, n_rows)) for start in range(0, n_rows, size)]


def feature_matrix(X, n_features: int) -> tuple[np.ndarray, bool]:
    """X as an S x F float matrix, and whether X was one feature vector.

    Ragged rows, a cell that is not a number, any dimension other than 1 or
    2, a width other than n_features and a non-finite cell raise ShapeError.
    """
    try:
        X = np.asarray(X, dtype=float)
    except (TypeError, ValueError):
        rows = X if isinstance(X, (list, tuple)) else ()
        bad = [s for s, row in enumerate(rows)
               if not isinstance(row, (list, tuple, np.ndarray)) or len(row) != n_features]
        where = f"row {bad[0]}: " if bad else ""
        raise ShapeError(f"{where}expected rows of {n_features} numbers") from None
    if X.ndim not in (1, 2) or X.shape[-1] != n_features:
        raise ShapeError(f"expected {n_features} features, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ShapeError("feature matrix holds a non-finite value")
    # C order, so that a block of rows is one contiguous view for the walk
    return np.ascontiguousarray(np.atleast_2d(X)), X.ndim == 1


@dataclass
class Dataset:
    """Feature matrix with optional target and column names."""

    X: np.ndarray
    y: np.ndarray | None
    columns: list[str]

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


def read_numeric_csv(path, error, labels: int = 0) -> tuple[list[str], np.ndarray]:
    """Read a comma-delimited UTF-8 CSV with a header row as ``(header, cells)``.

    The first ``labels`` fields of each row are text and are skipped; the rest
    are parsed with ``float`` into ``cells``, one row per non-blank line. An
    empty file, a header with no data rows, bytes that are not UTF-8, and a
    ragged row, non-numeric cell or non-finite value (named by file:line, the
    physical line the row ends on) raise ``error``.

    Where one ``np.loadtxt`` call parses the file into a result the scan
    would accept, that result is returned: ``loadtxt`` is correctly rounded
    like ``float``, and rejects every cell text ``float`` rejects except for
    the separators U+001C..U+001F, which it strips as whitespace, so a file
    holding one of those bytes goes to the scan. Anything else (a quoted
    cell, ``1_000``, a non-ASCII digit, an error) is decided by the scan,
    the only source of error messages.
    """
    try:
        fast = _loadtxt_numeric_csv(path, labels)
        if fast is not None:
            return fast
        return _scan_numeric_csv(path, error, labels)
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None


def _loadtxt_numeric_csv(path, labels: int):
    """read_numeric_csv by one ``np.loadtxt`` call, or None where the scan
    must decide."""
    # U+001C..U+001F are whitespace to loadtxt and not to float; in UTF-8
    # each is its own byte
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            if any(c in chunk for c in range(0x1C, 0x20)):
                return None
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                # a file object is read line by line, split as csv splits it
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except (ValueError, Warning):
                return None
    cells = np.ascontiguousarray(data[:, labels:])
    if len(data) == 0 or data.shape[1] != len(header) or not np.isfinite(cells).all():
        return None
    return header, cells


def _scan_numeric_csv(path, error, labels: int) -> tuple[list[str], np.ndarray]:
    """read_numeric_csv row by row with ``csv`` and ``float``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise error(f"{path}: empty file")
        rows, linenos = [], []
        for row in reader:
            if not row:
                continue
            # the physical line the record ends on: a quoted field may hold
            # a line break
            lineno = reader.line_num
            if len(row) != len(header):
                raise error(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append(list(map(float, row[labels:])))
            except ValueError:
                raise error(f"{path}:{lineno}: non-numeric value") from None
            linenos.append(lineno)
    if not rows:
        raise error(f"{path}: no data rows")
    cells = np.asarray(rows, dtype=float)
    finite = np.isfinite(cells).all(axis=1)
    if not finite.all():
        raise error(f"{path}:{linenos[int(np.argmin(finite))]}: non-finite value")
    return header, cells


def read_key_lines(path, sep: str, error):
    """Yield ``(lineno, key, value)``, both stripped, for each ``key <sep> value``
    line of a UTF-8 text file, skipping blank lines and text after ``#``. Bytes
    that are not UTF-8 and a line without ``sep`` (named by file:line) raise
    ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if sep not in line:
            raise error(f"{path}:{lineno}: expected a {sep!r} between key and value")
        key, value = line.split(sep, 1)
        yield lineno, key.strip(), value.strip()


def read_csv_dataset(path, target: str | None = None) -> Dataset:
    """Load a comma-delimited CSV with a header row.

    If ``target`` names a column, it becomes ``y`` and is dropped from ``X``.
    Missing, non-numeric and non-finite cells and a column name (stripped)
    that appears twice are rejected.
    """
    header, data = read_numeric_csv(path, DataError)
    header = [h.strip() for h in header]
    seen = set()
    for name in header:
        if name in seen:
            raise DataError(f"{path}: duplicate column name {name!r}")
        seen.add(name)
    y = None
    if target is not None:
        if target not in header:
            raise DataError(f"{path}: no column named {target!r}")
        t = header.index(target)
        y = data[:, t]
        data = np.delete(data, t, axis=1)
        header = header[:t] + header[t + 1 :]
    if data.shape[1] == 0:
        raise DataError(f"{path}: no feature columns")
    return Dataset(X=data, y=y, columns=header)


# --------------------------------------------------------------------------
# training


def _best_split(resid, rows, order, xs, min_leaf: int):
    """Best variance-reduction split for one node, or None.

    ``rows`` lists the node's rows in increasing order; ``order`` holds the
    same rows once per feature, F x n_node, each line stably sorted by that
    feature's value, and ``xs`` holds those values in that order. Every
    feature is scored at once. Returns (gain, feature, threshold). Gain is
    the SSE decrease; candidate thresholds are midpoints between consecutive
    distinct sorted values, so the `x <= threshold` convention reproduces the
    training partition. Among equal gains the lowest feature index wins.
    """
    r = resid[rows]
    n = len(r)
    total = r.sum()
    sse_parent = float(((r - total / n) ** 2).sum())
    if sse_parent <= 0.0 or n < 2 * min_leaf:
        return None
    parent_term = total * total / n
    # the prefix sums of whole lines, less the last: `take` copies a sliced
    # index array such as order[:, :-1] first, which costs more than the sums
    sum_left = resid.take(order)
    sum_left = np.cumsum(sum_left, axis=1, out=sum_left)[:, :-1]
    # float counts: exact below 2**53, and they spare an int-to-float cast
    n_left = np.arange(1.0, n)
    n_right = n - n_left
    valid = (n_left >= min_leaf) & (n_right >= min_leaf) & (xs[:, :-1] < xs[:, 1:])
    # sum_left**2 / n_left + (total - sum_left)**2 / n_right, in place (a
    # float sum does not depend on the order of its two terms)
    score = total - sum_left
    np.square(score, out=score)
    score /= n_right
    left = np.square(sum_left, out=sum_left)
    left /= n_left
    score += left
    np.copyto(score, -np.inf, where=~valid)
    at = np.argmax(score, axis=1)
    gains = score[np.arange(len(at)), at] - parent_term
    f = int(np.argmax(gains))
    gain = float(gains[f])
    if not gain > 1e-10 * sse_parent:
        return None
    i = at[f]
    return gain, f, float((xs[f, i] + xs[f, i + 1]) / 2.0)


def _grow_tree(X, resid, order, xs, max_depth, min_leaf, scale) -> Tree:
    """Greedy depth-limited CART on the residuals, node values scaled by `scale`.

    ``order`` is the F x n stable sort order of each column of X, and ``xs``
    holds the sorted values, ``xs[f, j] == X[order[f, j], f]``. Each split
    partitions both stably at the same positions, so every node that may
    split sees its rows and their values presorted. A node's rows stay in
    increasing row order, so the filtered order equals a stable sort of the
    node's own values and the tree matches a per-node sort bit for bit.

    A node's value is ``scale`` times its rows' mean residual; ``Tree``
    stores an internal node's as its children's cover-weighted mean.
    """
    feature, threshold, left, right, value, cover = [], [], [], [], [], []

    def new_node(rows):
        feature.append(LEAF)
        threshold.append(math.nan)
        left.append(LEAF)
        right.append(LEAF)
        value.append(scale * float(resid[rows].mean()))
        cover.append(float(len(rows)))
        return len(feature) - 1

    def part(lines, keep):
        """The entries of the F lines at the flat positions `keep`, each line
        still in sorted order."""
        return lines.ravel().take(keep).reshape(lines.shape[0], -1)

    # explicit stack of (node_id, row_indices, presorted order and values,
    # depth) holding the nodes that may split
    all_rows = np.arange(X.shape[0])
    stack = [(new_node(all_rows), all_rows, order, xs, 0)] if max_depth > 0 else []
    while stack:
        node, rows, order, xs, depth = stack.pop()
        split = _best_split(resid, rows, order, xs, min_leaf)
        if split is None:
            continue
        _, f, thr = split
        row_left = X[:, f] <= thr
        go_left = row_left[rows]
        rows_left, rows_right = rows[go_left], rows[~go_left]
        feature[node], threshold[node] = f, thr
        l_id, r_id = new_node(rows_left), new_node(rows_right)
        left[node], right[node] = l_id, r_id
        if depth + 1 < max_depth:
            to_left = row_left.take(order).ravel()
            to_left, to_right = np.flatnonzero(to_left), np.flatnonzero(~to_left)
            stack.append((l_id, rows_left, part(order, to_left), part(xs, to_left), depth + 1))
            stack.append((r_id, rows_right, part(order, to_right), part(xs, to_right), depth + 1))
    return Tree(feature, threshold, left, right, value, cover)


def train_gbm(
    data: Dataset,
    n_trees: int = 100,
    max_depth: int = 3,
    learning_rate: float = 0.1,
    min_samples_leaf: int = 5,
) -> TreeEnsemble:
    """Stagewise squared-error boosting of depth-limited CART trees.

    base_score is mean(y); each stage fits the current residuals and is shrunk
    by the learning rate (leaf and internal node values carry the shrinkage).
    A constant target yields zero-output trees, not an error. X is checked
    by feature_matrix (ShapeError); a target that is not one finite number
    per row raises DataError.
    """
    if data.y is None:
        raise TargetRequired("train_gbm needs a dataset with a target column")
    if not 0.0 < learning_rate <= 1.0:
        raise ValueError("learning_rate must be in (0, 1]")
    for name, value in [
        ("n_trees", n_trees), ("max_depth", max_depth), ("min_samples_leaf", min_samples_leaf)
    ]:
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    X, _ = feature_matrix(data.X, len(data.columns))
    y = np.asarray(data.y, dtype=float)
    if y.shape != X.shape[:1]:
        raise DataError(f"expected a target of {X.shape[0]} values, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise DataError("target holds a non-finite value")
    if X.shape[0] < 2 * min_samples_leaf:
        raise DataError(
            f"need at least {2 * min_samples_leaf} rows, got {X.shape[0]}"
        )
    base = float(y.mean())
    resid = y - base
    # one stable presort per column, with its sorted values, serves every
    # node of every tree
    order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
    xs = np.take_along_axis(X, order.T, axis=0).T.copy()
    trees = []
    for _ in range(n_trees):
        t = _grow_tree(X, resid, order, xs, max_depth, min_samples_leaf, learning_rate)
        trees.append(t)
        resid -= t.leaf_values(X)
    return TreeEnsemble(
        trees=trees,
        n_features=X.shape[1],
        base_score=base,
        feature_names=list(data.columns),
    )


# --------------------------------------------------------------------------
# serialization


_NODE_KEYS = ("id", "feature", "threshold", "left", "right", "value", "cover")


def _tree_to_nodes(t: Tree) -> list[dict]:
    columns = [getattr(t, key).tolist() for key in _NODE_KEYS[1:]]
    nodes = []
    for i, (f, thr, l, r, v, c) in enumerate(zip(*columns)):
        split = [None] * 4 if f == LEAF else [f, thr, l, r]
        nodes.append(dict(zip(_NODE_KEYS, [i, *split, v, c])))
    return nodes


def save_model(model: TreeEnsemble, path) -> None:
    """Write the ensemble as a self-describing JSON document."""
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "base_score": float(model.base_score),
        "n_features": int(model.n_features),
        "feature_names": model.feature_names,
        "trees": [{"nodes": _tree_to_nodes(t)} for t in model.trees],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _json_number(v) -> float | None:
    """A parsed JSON number as a float (an integer too large for one as an
    infinity), or None for any other value, true, false and null included."""
    if type(v) not in (int, float):
        return None
    try:
        return float(v)
    except OverflowError:
        return math.copysign(math.inf, v)


def _parse_tree(tree_doc, ti: int) -> Tree:
    """One tree of a model file: its fields' JSON types are checked here, and
    every node invariant by ``Tree``."""
    if not isinstance(tree_doc, dict) or "nodes" not in tree_doc:
        raise ModelParseError("tree entry must be an object with 'nodes'", ti)
    nodes = tree_doc["nodes"]
    if not isinstance(nodes, list) or not nodes:
        raise ModelParseError("'nodes' must be a non-empty array", ti)
    n = len(nodes)
    feature, left, right = [LEAF] * n, [LEAF] * n, [LEAF] * n
    threshold, value, cover = [math.nan] * n, [0.0] * n, [0.0] * n
    seen = set()
    for pos, nd in enumerate(nodes):
        if not isinstance(nd, dict):
            raise ModelParseError("node must be an object", ti, pos)
        try:
            i, f, thr, lc, rc, value_i, cover_i = [nd[key] for key in _NODE_KEYS]
        except KeyError as exc:
            raise ModelParseError(f"bad node fields: missing {exc}", ti, pos) from None
        if type(i) is not int or not 0 <= i < n or i in seen:
            raise ModelParseError("node ids must be unique integers 0..n-1", ti, pos)
        seen.add(i)
        if len({v is None for v in (f, thr, lc, rc)}) > 1:
            raise ModelParseError(
                "feature/threshold/left/right must be all present or all null", ti, i
            )
        thr, value[i], cover[i] = (_json_number(v) for v in (thr, value_i, cover_i))
        if value[i] is None or cover[i] is None or thr is None and f is not None:
            raise ModelParseError("bad node fields: threshold/value/cover must be numbers", ti, i)
        if f is not None:
            if {type(f), type(lc), type(rc)} != {int} or max(map(abs, (f, lc, rc))) >= 2**63:
                raise ModelParseError("feature/left/right must be 64-bit integers", ti, i)
            if f == LEAF:  # Tree would take a split on the leaf marker for a leaf
                raise ModelInvariantError("split feature -1 is negative", ti, i)
            feature[i], threshold[i], left[i], right[i] = f, thr, lc, rc
    try:
        return Tree(feature, threshold, left, right, value, cover, root=None)
    except TreeShapeError as exc:
        raise ModelInvariantError(exc.reason, ti, exc.node) from None


def load_model(path) -> TreeEnsemble:
    """Read a model file, checking every field's JSON type and every node
    invariant (ModelParseError and ModelInvariantError, naming the tree and
    node where there is one). version, n_features, id, feature, left and
    right must be JSON integers (not booleans; 64-bit ones for the last
    three), the other numbers JSON numbers, and feature_names n_features
    distinct strings; the node invariants are ``Tree``'s and ``TreeEnsemble``'s."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError:
        raise ModelParseError(f"{path}: not UTF-8 text") from None
    except (ValueError, RecursionError) as exc:  # also too many digits, or too deep
        raise ModelParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelParseError(f"{path}: top level must be an object")
    try:
        version, base_score, n_features, trees_doc = [
            doc[key] for key in ("version", "base_score", "n_features", "trees")
        ]
    except KeyError as exc:
        raise ModelParseError(f"{path}: missing field {exc}") from None
    feature_names = doc.get("feature_names")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ModelParseError(f"{path}: unsupported version {version!r}")
    base_score = _json_number(base_score)
    if base_score is None:
        raise ModelParseError(f"{path}: base_score must be a number")
    if not math.isfinite(base_score):
        raise ModelInvariantError(f"{path}: base_score {base_score} is not finite")
    if type(n_features) is not int or n_features < 1:
        raise ModelParseError(f"{path}: n_features must be a positive integer")
    if feature_names is not None and not (
        isinstance(feature_names, list)
        and all(isinstance(name, str) for name in feature_names)
        and len(set(feature_names)) == len(feature_names) == n_features
    ):
        raise ModelParseError(f"{path}: feature_names must be n_features distinct strings")
    if not isinstance(trees_doc, list):
        raise ModelParseError(f"{path}: 'trees' must be an array")
    trees = [_parse_tree(td, ti) for ti, td in enumerate(trees_doc)]
    try:
        return TreeEnsemble(trees, n_features, base_score, feature_names)
    except TreeShapeError as exc:
        raise ModelInvariantError(exc.reason, exc.tree, exc.node) from None
