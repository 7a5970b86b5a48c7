"""Complex-valued function approximation with an inversion activation.

A single-hidden-layer network whose hidden units are products of shifted
complex reciprocals, trained on real targets with an imaginary-error
penalty, plus a contour-quadrature oracle for the same kernel family and a
reproducible experiment harness.
"""

from .activation import (DEFAULT_EPSILON, cauchy_activation,
                         cauchy_activation_derivative)
from .baseline import MlpModel, init_mlp, mlp_trainable
from .complex_linalg import Rng, as_inputs, derive_seed, normal_complex
from .data import (Decomposition, DiskMask, IntervalMask, ScalerState,
                   SplitDataset, apply_mask, find_turning_points, load_series_csv,
                   make_split, scaler_apply, scaler_fit, scaler_invert,
                   seasonal_decompose_multiplicative, target_2d_missing_disk,
                   target_2d_surface, target_exp1, target_exp2_gap,
                   target_intro_spike)
from .experiments import (ExperimentSpec, MetricsReport, ModelSpec, PRESETS,
                          fit, fit_baseline, get_preset, metric_mae, metric_mse,
                          prepare, run_experiment, run_kernel_demo,
                          run_lambda_ablation, run_sensitivity_grid)
from .grad import (GradientWork, LossValue, batch_gradient, cauchynet_trainable,
                   finite_difference_gradients)
from .kernel import (BoundaryMesh, KernelExpansion, ellipse_mesh,
                     evaluate_expansion_grid, fit_expansion_least_squares,
                     quadrature_expansion)
from .model import (CauchyNetModel, forward_batch, init_elliptical,
                    load_checkpoint, parameter_count, predict, save_checkpoint)
from .optim import (AdamState, TrainConfig, TrainLog, Trainable, adam_step,
                    lr_at, train)

__version__ = "0.1.0"
