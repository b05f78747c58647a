"""Joint denoising, bias-field correction and multiphase segmentation.

The model fits kernel-weighted region means under a smooth multiplicative
bias field, regularizes contour length with a heat-kernel estimate, and
denoises with an I-divergence fidelity plus adaptive total variation, making
it robust to Poisson and multiplicative Gamma noise. Minimization alternates
closed-form mean/bias updates, a relaxed scalar-auxiliary-variable gradient
flow for the smooth image, and convolution thresholding for the partition.
"""

__version__ = "0.1.0"

from .energy import (
    IndicatorSet,
    ModelParams,
    SegState,
    gray_indicator,
    idiv_energy,
    tv_energy,
    tv_gradient,
)
from .errors import ConfigError, DegenerateInputError, NumericalFailure
from .field import (
    Kernel,
    biharmonic,
    convolve,
    divergence,
    gaussian_kernel,
    gradient,
    heat_kernel_pixels,
    inner_product,
    solve_implicit,
)
from .metrics import (
    ConfusionCounts,
    accuracy,
    confusion,
    dsc,
    iou,
    kappa,
    match_phases,
    multiphase_report,
    score_masks,
)
from .noise import NoiseSpec, apply_multiplicative, apply_poisson, corrupt, sample_gamma_field
from .solve import (
    GContext,
    IterationLog,
    build_g_context,
    evaluate,
    force,
    g_energy,
    relaxation_coefficient,
    rmsav_step,
    segment,
    threshold,
    update_bias,
    update_image,
    update_means,
)
from .synth import Shape, SynthSpec, generate
