"""Ablated data augmentation for tabular models, the closed-form penalized
solvers it converges to, and integrated-gradients penalty diagnostics for
feed-forward networks."""

from .dataset import (
    CLASSIFICATION,
    REGRESSION,
    Dataset,
    DatasetError,
    FeatureStats,
    SplitSpec,
    feature_stats,
    load_csv,
    one_hot_encode,
    split,
    standardize,
    synth_correlated,
)
from .augment import (
    INVERTED_DROPOUT,
    MEAN_ABLATION,
    AugmentError,
    AugmentSpec,
    ablate,
    augmented_chunks,
    batch_masks,
    build_augmented,
)
from .linear import (
    CCP,
    ML2P,
    LinearModel,
    RegularizedFit,
    SingularModelError,
    fit_ccp,
    fit_ml2p,
    fit_ols,
)
from .penalty import (
    ContributionMatrix,
    ccp_pairwise,
    ccp_variance_form,
    contributions_linear,
    ml2p,
    ml2p_from_avg_gradients,
)
from .nn import (
    MlpModel,
    TrainConfig,
    TrainLog,
    TrainingDivergedError,
    evaluate,
    forward,
    init,
    input_gradients,
    linear_as_mlp,
    loss,
    param_gradients,
    train,
)
from .attribution import (
    AttributionConfig,
    AttributionResult,
    CompletenessSummary,
    as_contributions,
    completeness_report,
    integrated_gradients,
)
from .harness import (
    ConvergenceRun,
    CrossTrendReport,
    MomentCheck,
    ReportError,
    SweepCell,
    SweepResult,
    check_moment_limits,
    converge_theorem1,
    converge_theorem2,
    cross_trend_check,
    emit_report,
    lambda_sweep,
    penalty_trend,
    render_report,
)

__version__ = "0.1.0"
