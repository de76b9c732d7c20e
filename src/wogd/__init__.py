"""Windowed online gradient descent for recurrent regression.

A numpy toolkit for training simple recurrent networks online by descending
the mean of the last w losses under spectral-norm constraints, alongside
LSTM/clockwork baselines, local-regret and smoothness instrumentation, and a
reproducible multi-seed experiment harness.
"""

from .analysis import (
    RegretLedger,
    SmoothnessBounds,
    SmoothnessEstimate,
    estimate_smoothness,
    regret_bound,
    smoothness_bounds,
)
from .gradients import (
    ActivationTape,
    NumericOverflowError,
    fd_gradient,
    instant_gradient,
    smoothed_loss,
    tbptt_gradient,
)
from .harness import (
    ConfigError,
    DivergedSeedsError,
    ExperimentConfig,
    GridSearchError,
    RunResult,
    Summary,
    aggregate,
    config_from_mapping,
    emit_outputs,
    grid_search,
    load_config,
    run_batch,
    run_many,
    run_single,
)
from .linalg import (
    SvdResult,
    clip_singular_values,
    spectral_norm,
    svd,
)
from .models import (
    CwrnnParams,
    LstmGates,
    LstmParams,
    SrnnParams,
    random_cwrnn,
    random_lstm,
    random_srnn,
)
from .optim import (
    BaselineConfig,
    WogdConfig,
    baseline_step,
    project_l2_ball,
    projected_gradient,
    wogd_step,
)
from .tasks import (
    BinaryAddState,
    CsvFormatError,
    LOSS_CROSS_ENTROPY,
    LOSS_SQUARED,
    ScalingSpec,
    binary_add_stream,
    fit_scaling,
    load_csv_stream,
    losses,
    scaled_stream,
    synthetic_regression_stream,
)

__version__ = "0.1.0"
