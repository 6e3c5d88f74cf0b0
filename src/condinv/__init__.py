"""Conditionally invariant kernel features for multi-domain classification.

Learns a kernel-space linear transformation whose class-conditional
feature distributions agree across labeled source domains, so a simple
KNN classifier transfers to domains never seen in training. Ships the
marginal-invariance, kernel PCA and kernel FDA baselines, a synthetic
multi-domain benchmark, and a leave-domains-out experiment harness with a
CLI.
"""

from .dataset import (
    CellSpec,
    DatasetError,
    GroupIndex,
    LabeledDataset,
    SyntheticSpec,
    benchmark_spec,
    generate_synthetic,
    group_index,
    load_csv,
    save_csv,
    split,
)
from .kernel import (
    CenteringStats,
    KernelError,
    KernelSpec,
    center_cross,
    center_train,
    gram,
    median_bandwidth,
    resolve_bandwidth,
)
from .scatter import (
    MissingClassError,
    ScatterError,
    ScatterSet,
    WeightSet,
    between_scatter,
    build_weights,
    conditional_scatter,
    domain_scatter,
    prior_scatter,
    scatter_set,
    uniform_domain_weights,
    within_scatter,
)
from .solver import (
    ProjectionModel,
    SolverError,
    default_q,
    load_model,
    project,
    save_model,
    solve,
)
from .classify import (
    METHOD_TAGS,
    ClassifyError,
    Method,
    accuracy,
    fit_baseline,
    knn_predict,
)
from .harness import (
    ChosenParams,
    CsvSource,
    ExperimentConfig,
    Grids,
    HarnessError,
    MethodResult,
    RepetitionResult,
    ResultRecord,
    config_from_file,
    config_from_mapping,
    export_features,
    grid_search,
    load_dataset,
    load_spec,
    refit_repetition,
    repetition_parts,
    report_json,
    report_table,
    run_experiment,
)

__version__ = "0.1.0"
