"""Group attribution for tree ensembles with trace-based significance tests."""

__version__ = "0.1.0"

from .errors import (
    AREUnavailable,
    DegenerateConcentration,
    GroupingError,
    GroupShapError,
    InvalidCorrelation,
    ModelInvariantError,
    ModelParseError,
    SampleTooSmall,
    ShapeError,
    TargetRequired,
)
from .experiments import (
    CellResult,
    ConcentrationReport,
    GridResult,
    are_metric,
    corr_determinant,
    emit_tables,
    grid_specs,
    lorenz_gini,
    run_power_grid,
    run_size_grid,
)
from .inference import (
    ChiSqApprox,
    SampleMoments,
    TestReport,
    cq_test,
    group_joint_test,
    gs_test,
    moments,
    wald_test,
)
from .shapley import (
    FeatureGrouping,
    ShapMatrix,
    base_value,
    exact_group_shapley,
    read_grouping_file,
    read_shap_csv,
    tree_group_shap,
    value_function,
)
from .simgen import (
    Alternative,
    SimSpec,
    ZModel,
    alternative_mu,
    covariance_root,
    draw_z,
    generate,
    synth_regression,
)
from .tree import (
    DataError,
    Dataset,
    Tree,
    TreeEnsemble,
    TreeShapeError,
    load_model,
    read_csv_dataset,
    save_model,
    train_gbm,
)
