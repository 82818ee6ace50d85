"""Primal-dual Langevin sampling toolkit.

Samplers for log-concave targets exp(-f(Kx) - g(x)) built from proximal
operators and matrix-free linear maps, with analytic Gaussian oracles,
Wasserstein metrics, and coupled-chain verification harnesses.
"""

from .analytic import (
    GaussModel1D,
    bias_bound_c1,
    gaussian_w2,
    general_noise_primal_variance,
    lyapunov_cov,
    modified_sde_coefficients,
    modified_sde_stationary_cov,
    stationary_cov_pd,
    target_variance,
)
from .coupling import (
    CouplingTrace,
    SweepResult,
    fit_contraction_rate,
    run_coupled_pair,
    sweep,
)
from .linop import (
    LinearMap,
    diff_pair,
    grad2d,
    scalar_map,
    sym_grad2d,
    tgv_block,
)
from .metrics import (
    EmpiricalMeasure,
    RunningMoments,
    moments,
    pixelwise_variance,
    psnr,
    w2_1d,
    w2_exact,
)
from .models import (
    gauss1d_target,
    tgv_image_target,
    tv2pixel_target,
    tv_image_target,
)
from .prox import (
    ProxOperator,
    group_ball_projection,
    interval_projection,
    quadratic_data_prox,
    scaled_square_prox,
)
from .samplers import (
    ChainState,
    DivergenceError,
    SamplerParams,
    SampleStore,
    TargetSpec,
    ValidationReport,
    make_step,
    run_ensemble,
    validate_params,
)

__version__ = "0.1.0"
