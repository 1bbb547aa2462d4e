"""Exception taxonomy shared across the package."""


class GroupShapError(Exception):
    """Base class for all package errors."""


class TargetRequired(GroupShapError):
    """Training was requested on a dataset without a target column."""


class ShapeError(GroupShapError):
    """Input dimensions do not match the model or each other."""


class ModelFileError(GroupShapError):
    """A model file problem, located at a tree and node where known."""

    def __init__(self, message, tree_index=None, node_index=None):
        loc = []
        if tree_index is not None:
            loc.append(f"tree {tree_index}")
        if node_index is not None:
            loc.append(f"node {node_index}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.tree_index = tree_index
        self.node_index = node_index


class ModelParseError(ModelFileError):
    """A model file is structurally malformed."""


class ModelInvariantError(ModelFileError):
    """A model file parses but violates a structural invariant."""


class GroupingError(GroupShapError):
    """A feature grouping is not a partition of the feature set."""


class SampleTooSmall(GroupShapError):
    """Too few observations for the requested statistic."""


class InvalidCorrelation(GroupShapError, ValueError):
    """Compound-symmetry correlation outside [0, 1); a bad argument value,
    hence also a ValueError."""


class AREUnavailable(GroupShapError):
    """No non-degenerate empirical sizes to average."""


class DegenerateConcentration(GroupShapError):
    """Concentration measures need at least one positive value."""
