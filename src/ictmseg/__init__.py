"""Joint denoising, bias-field correction and multiphase segmentation.

The model fits kernel-weighted region means under a smooth multiplicative
bias field, regularizes contour length with a heat-kernel estimate, and
denoises with an I-divergence fidelity plus adaptive total variation, making
it robust to Poisson and multiplicative Gamma noise. Minimization alternates
closed-form mean/bias updates, a relaxed scalar-auxiliary-variable gradient
flow for the smooth image, and convolution thresholding for the partition.
"""

__version__ = "0.1.0"

from .energy import *
from .errors import *
from .field import *
from .metrics import *
from .noise import *
from .solve import *
from .synth import *
