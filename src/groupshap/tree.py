"""Regression-tree ensembles: greedy CART boosting, prediction, model files.

Trees are stored as parallel node arrays. Leaves carry ``feature == -1``;
internal nodes split as ``x[feature] <= threshold goes left``. Every node
carries ``cover`` (training rows that reached it) and ``value`` (leaf output
for leaves, cover-weighted mean of the children for internal nodes), which is
what the attribution code walks.

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


@dataclass(frozen=True)
class Tree:
    """One binary regression tree as parallel node arrays.

    The walk reads the tree through its edge table. Edge ``2 * node +
    went_left`` leaves ``node`` to the left (went_left = 1) or to the right
    (0). Three read-only arrays are indexed by edge: ``edge_feature`` and
    ``edge_threshold`` hold the split of the edge's node (both edges of a
    node hold the same one), and ``edge_next`` holds ``2 * child``, the
    first edge of the node the edge leads to. A leaf splits as
    ``x[0] <= +inf``, which holds for every finite x, and both its edges lead
    back to it.

    The split arrays (feature, threshold, left, right) are stored as
    read-only copies and the tree is frozen, so the edge table built from
    them at construction can never go stale. ``value`` and ``cover`` stay
    writable; the walk does not read them.
    """

    feature: np.ndarray  # int64, LEAF for leaves
    threshold: np.ndarray  # float64, nan for leaves
    left: np.ndarray  # int64, LEAF for leaves
    right: np.ndarray
    value: np.ndarray  # float64
    cover: np.ndarray  # float64
    root: int = 0
    depth: int = field(init=False)  # edges on the longest root-to-leaf path
    edge_feature: np.ndarray = field(init=False, repr=False, compare=False)
    edge_threshold: np.ndarray = field(init=False, repr=False, compare=False)
    edge_next: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        split = {
            "feature": np.array(self.feature, dtype=np.int64),
            "threshold": np.array(self.threshold, dtype=float),
            "left": np.array(self.left, dtype=np.int64),
            "right": np.array(self.right, dtype=np.int64),
        }
        for name, a in split.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        leaf = self.feature == LEAF
        node = np.arange(self.n_nodes)
        right, left = np.where(leaf, node, self.right), np.where(leaf, node, self.left)
        edges = {
            "edge_feature": np.repeat(np.where(leaf, 0, self.feature), 2),
            "edge_threshold": np.repeat(np.where(leaf, np.inf, self.threshold), 2),
            "edge_next": 2 * np.column_stack([right, left]).ravel(),
        }
        for name, a in edges.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        is_leaf, left, right = leaf.tolist(), self.left.tolist(), self.right.tolist()
        depth, level = 0, {self.root}
        while level := {c for i in level if not is_leaf[i] for c in (left[i], right[i])}:
            depth += 1
            if depth >= self.n_nodes:
                raise ValueError("tree nodes below the root form a cycle")
        object.__setattr__(self, "depth", depth)

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
        # the value of the leaf each edge leads to, per edge
        return self.value.take(self.edge_next >> 1).take(edges)


@dataclass
class TreeEnsemble:
    """Additive collection of regression trees plus a constant offset."""

    trees: list[Tree]
    n_features: int
    base_score: float
    feature_names: list[str] | None = None

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
        feature[node] = f
        threshold[node] = thr
        l_id = new_node(rows_left)
        r_id = new_node(rows_right)
        left[node] = l_id
        right[node] = r_id
        if depth + 1 < max_depth:
            to_left = row_left.take(order).ravel()
            to_left, to_right = np.flatnonzero(to_left), np.flatnonzero(~to_left)
            stack.append((l_id, rows_left, part(order, to_left), part(xs, to_left), depth + 1))
            stack.append((r_id, rows_right, part(order, to_right), part(xs, to_right), depth + 1))

    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=float),
        cover=np.asarray(cover, dtype=float),
    )


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


def _tree_to_nodes(t: Tree) -> list[dict]:
    nodes = []
    for i in range(t.n_nodes):
        leaf = t.feature[i] == LEAF
        nodes.append(
            {
                "id": i,
                "feature": None if leaf else int(t.feature[i]),
                "threshold": None if leaf else float(t.threshold[i]),
                "left": None if leaf else int(t.left[i]),
                "right": None if leaf else int(t.right[i]),
                "value": float(t.value[i]),
                "cover": float(t.cover[i]),
            }
        )
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


def _parse_tree(tree_doc, n_features: int, ti: int) -> Tree:
    if not isinstance(tree_doc, dict) or "nodes" not in tree_doc:
        raise ModelParseError("tree entry must be an object with 'nodes'", ti)
    nodes = tree_doc["nodes"]
    if not isinstance(nodes, list) or not nodes:
        raise ModelParseError("'nodes' must be a non-empty array", ti)
    n = len(nodes)
    feature = np.full(n, LEAF, dtype=np.int64)
    threshold = np.full(n, math.nan)
    left = np.full(n, LEAF, dtype=np.int64)
    right = np.full(n, LEAF, dtype=np.int64)
    value = np.zeros(n)
    cover = np.zeros(n)
    seen = set()
    for pos, nd in enumerate(nodes):
        if not isinstance(nd, dict):
            raise ModelParseError("node must be an object", ti, pos)
        try:
            i = nd["id"]
            f = nd["feature"]
            thr = nd["threshold"]
            lc = nd["left"]
            rc = nd["right"]
            value_i = float(nd["value"])
            cover_i = float(nd["cover"])
            thr = None if thr is None else float(thr)
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelParseError(f"bad node fields: {exc}", ti, pos) from None
        if not isinstance(i, int) or not 0 <= i < n or i in seen:
            raise ModelParseError("node ids must be unique integers 0..n-1", ti, pos)
        seen.add(i)
        internal_fields = [f, thr, lc, rc]
        if any(v is None for v in internal_fields) != all(
            v is None for v in internal_fields
        ):
            raise ModelParseError(
                "feature/threshold/left/right must be all present or all null",
                ti,
                i,
            )
        if f is not None:
            if not isinstance(f, int) or not (
                isinstance(lc, int) and isinstance(rc, int)
            ):
                raise ModelParseError("feature/left/right must be integers", ti, i)
            if not 0 <= lc < n or not 0 <= rc < n or lc == rc:
                raise ModelParseError("child ids out of range", ti, i)
            if not 0 <= f < n_features:
                raise ModelInvariantError(
                    f"split feature {f} outside [0, {n_features})", ti, i
                )
            if not math.isfinite(thr):
                raise ModelInvariantError(f"threshold {thr} is not finite", ti, i)
            feature[i] = f
            threshold[i] = thr
            left[i] = lc
            right[i] = rc
        for name, v in [("value", value_i), ("cover", cover_i)]:
            if not math.isfinite(v):
                raise ModelInvariantError(f"{name} {v} is not finite", ti, i)
        if cover_i < 0:
            raise ModelInvariantError("cover must be nonnegative", ti, i)
        value[i] = value_i
        cover[i] = cover_i
    root, order = _validate_structure(feature, left, right, ti)
    t = Tree(feature, threshold, left, right, value, cover, root)
    _validate_covers_and_values(t, ti, order)
    return t


def _validate_structure(feature, left, right, ti: int) -> tuple[int, list[int]]:
    """Check the node graph is a single rooted tree; return the root id and
    the nodes in preorder."""
    n = len(feature)
    parents = np.zeros(n, dtype=int)
    for i in range(n):
        if feature[i] != LEAF:
            parents[left[i]] += 1
            parents[right[i]] += 1
    roots = np.nonzero(parents == 0)[0]
    if len(roots) != 1:
        raise ModelInvariantError(f"expected exactly one root, found {len(roots)}", ti)
    if (parents > 1).any():
        bad = int(np.nonzero(parents > 1)[0][0])
        raise ModelInvariantError("node has more than one parent", ti, bad)
    root = int(roots[0])
    # with one parent per node and none for the root, the walk meets no node
    # twice; a cycle apart from the root is left unreached
    order = []
    stack = [root]
    while stack:
        i = stack.pop()
        order.append(i)
        if feature[i] != LEAF:
            stack.extend((int(left[i]), int(right[i])))
    if len(order) != n:
        raise ModelInvariantError("unreachable nodes in tree", ti)
    return root, order


def _validate_covers_and_values(t: Tree, ti: int, order: list[int]) -> None:
    """Enforce cover additivity, then recompute internal values bottom-up.

    Stored internal values must agree with the cover-weighted descendant mean
    to 1e-9 relative; the recomputed (exact) values replace them. order is a
    preorder, so reversed it gives children before parents.
    """
    for i in reversed(order):
        if t.feature[i] == LEAF:
            continue
        l, r = int(t.left[i]), int(t.right[i])
        if not math.isclose(
            t.cover[i], t.cover[l] + t.cover[r], rel_tol=1e-9, abs_tol=1e-9
        ):
            raise ModelInvariantError(
                f"cover {t.cover[i]} != {t.cover[l]} + {t.cover[r]}", ti, i
            )
        if t.cover[i] <= 0:
            raise ModelInvariantError("internal node with zero cover", ti, i)
        recomputed = (t.cover[l] * t.value[l] + t.cover[r] * t.value[r]) / t.cover[i]
        if not math.isclose(t.value[i], recomputed, rel_tol=1e-9, abs_tol=1e-9):
            raise ModelInvariantError(
                f"value {t.value[i]} != cover-weighted child mean {recomputed}", ti, i
            )
        t.value[i] = recomputed


def load_model(path) -> TreeEnsemble:
    """Read a model file, re-validating every node invariant."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError:
        raise ModelParseError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelParseError(f"{path}: top level must be an object")
    try:
        version = doc["version"]
        base_score = float(doc["base_score"])
        n_features = doc["n_features"]
        feature_names = doc.get("feature_names")
        trees_doc = doc["trees"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelParseError(f"{path}: missing or bad field: {exc}") from None
    if version != MODEL_FORMAT_VERSION:
        raise ModelParseError(f"{path}: unsupported version {version!r}")
    if not math.isfinite(base_score):
        raise ModelInvariantError(f"{path}: base_score {base_score} is not finite")
    if not isinstance(n_features, int) or n_features < 1:
        raise ModelParseError(f"{path}: n_features must be a positive integer")
    if feature_names is not None and len(feature_names) != n_features:
        raise ModelParseError(f"{path}: feature_names length != n_features")
    if not isinstance(trees_doc, list):
        raise ModelParseError(f"{path}: 'trees' must be an array")
    trees = [_parse_tree(td, n_features, ti) for ti, td in enumerate(trees_doc)]
    return TreeEnsemble(
        trees=trees,
        n_features=n_features,
        base_score=base_score,
        feature_names=list(feature_names) if feature_names is not None else None,
    )
