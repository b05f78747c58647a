"""Model state types and every term of the segmentation energy.

The joint objective couples four pieces:

  fit     sum_i lam_i * <u_i, e_i>, where e_i(x) is the kernel-weighted
          squared residual between the smooth image g and the bias-scaled
          region mean c_i,
  length  mu * sqrt(pi/t) * sum_i sum_{j != i} <u_i, K_t * u_j>, the
          heat-kernel perimeter estimate (t in pixel^2 units),
  idiv    gamma * sum(g - f*log(g)), the Poisson/Gamma fidelity,
  tv      nu * sum(alpha * sqrt(|grad g|^2 + eps^2)), total variation with
          the gray-level indicator alpha as adaptive weight.

Smoothing note: TV is evaluated with the eps floor everywhere, so the solver
force in `solve` is the exact gradient of the energy evaluated here.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .field import Kernel, convolve, gaussian_kernel, gradient, heat_std, kernel_std

__all__ = [
    "ModelParams",
    "IndicatorSet",
    "SegState",
    "gray_indicator",
    "residual_fields",
    "idiv_energy",
    "tv_gradient",
    "tv_energy",
]


class ModelParams(NamedTuple):
    """All tunables of the model and its solver, in the order the run manifest
    lists them; the config keys are these names, with `lambdas` read from
    `n_phases` and `lambda`.

    `tau` is the heat time of the length kernel in normalized-domain units
    (image long side = 1) unless `tau_in_pixels` is set; `rho` and `sigma`
    are pixel-unit Gaussian standard deviations.
    """

    lambdas: tuple[float, ...] = (1.0, 1.0)
    mu: float = 1e-9 * 255.0**2
    gamma: float = 0.1
    nu: float = 1.0
    rho: float = 3.0
    tau: float = 0.02
    sigma: float = 1.0
    p: float = 1.3
    c0: float = 1.0
    eta_relax: float = 0.99
    eps_tv: float = 1e-2
    g_floor: float = 1e-3
    tol1: float = 1e-8
    tol2: float = 1e-3
    intensity_scale: float | None = None
    dt: float | None = None
    tau_in_pixels: bool = False
    max_outer: int = 500
    max_inner: int = 5
    freeze_bias: bool = False

    @property
    def n_phases(self) -> int:
        return len(self.lambdas)

    @property
    def time_step(self) -> float:
        """Flow step: explicit `dt`, or a default scaled down when the TV
        weight raises the force magnitude (keeps the per-step displacement
        of the image flow roughly weight-independent)."""
        if self.dt is not None:
            return self.dt
        return 0.05 / max(1.0, self.nu)

    def scale_of(self, f: np.ndarray) -> float:
        """Intensity scale of image f >= 0: `intensity_scale` if set, else the
        0.999-quantile of f (np.quantile's bit for bit, with no numpy.ma import),
        or its maximum when that is 0; from the data, a run is scale-equivariant."""
        if self.intensity_scale is not None:
            return self.intensity_scale
        x = np.asarray(f, dtype=np.float64)
        if x.min() < 0:
            raise ValueError("image must be nonnegative")
        pos = (x.size - 1) * 0.999
        lo = int(pos)
        hi = min(lo + 1, x.size - 1)
        low, high = np.partition(x.ravel(), [lo, hi])[[lo, hi]].tolist()
        t, step = pos - lo, high - low
        scale = (high - step * (1.0 - t) if t >= 0.5 else low + step * t) or float(x.max())
        if scale <= 0.0:
            raise ConfigError("input is all zero: no intensity_scale can be taken from it")
        return scale

    def validate(self) -> "ModelParams":
        """Refuse values out of range."""
        for name, value in [*(("lambdas", l) for l in self.lambdas), *self._asdict().items()]:
            if isinstance(value, (float, np.floating)) and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.n_phases < 2:
            raise ConfigError("need at least 2 phases")
        if min(self.lambdas) <= 0:
            raise ConfigError("lambda weights must be positive")
        if min(self.mu, self.gamma, self.nu, self.p) < 0:
            raise ConfigError("mu, gamma, nu, p must be nonnegative")
        for name in ("dt", "intensity_scale", "rho", "tau", "sigma", "c0", "eps_tv", "g_floor"):
            value = getattr(self, name)
            if value is not None and value <= 0:      # dt and intensity_scale may be None
                raise ConfigError(f"{name} must be positive")
        tiny = np.finfo(np.float64).tiny      # the TV term divides by sqrt(... + eps^2)
        if self.eps_tv * self.eps_tv < tiny:
            raise ConfigError(f"eps_tv must be at least {np.sqrt(tiny):.3g} (its square "
                              f"must not underflow), got {self.eps_tv!r}")
        for name in ("rho", "sigma"):
            kernel_std(getattr(self, name), f"{name} = {getattr(self, name):.6g}")
        if not 0.0 <= self.eta_relax <= 1.0:
            raise ConfigError("eta_relax must lie in [0, 1]")
        if self.tol1 < 0 or self.tol2 < 0:
            raise ConfigError("tolerances must be nonnegative")
        if self.max_outer < 1 or self.max_inner < 0:
            raise ConfigError("iteration caps out of range")
        if self.max_outer % 1 or self.max_inner % 1:
            raise ConfigError("iteration caps (max_outer, max_inner) must be whole numbers")
        return self

    def heat_time_pixels(self, shape: tuple[int, int]) -> float:
        """Length-kernel heat time in pixel^2 units for an image shape,
        refused by `heat_std`, naming tau, when `heat_kernel_pixels` would
        refuse its kernel."""
        scale = 1.0 if self.tau_in_pixels else float(max(shape))
        time_px = self.tau * scale * scale
        heat_std(time_px, f"tau = {self.tau:.6g} (heat time {time_px:.6g} px^2)")
        return time_px


class IndicatorSet:
    """A hard partition into n phases, stored as one label per pixel, the form
    thresholding produces, with the boolean masks u_i = [labels == i] made
    once beside it. The solver reads u_i only through gathers and per-phase
    sums. Labels and masks are read-only, so sets are shared."""

    def __init__(self, labels: np.ndarray, n: int):
        """From an (H, W) map of integer labels in [0, n), copied."""
        labels = np.asarray(labels)
        if labels.ndim != 2 or labels.dtype.kind not in "biu" or 0 in labels.shape:
            raise ValueError("labels must be a 2-D integer map with positive dims, "
                             f"got shape {labels.shape}")
        if labels.min() < 0 or labels.max() >= n:
            raise ValueError(f"labels out of range for {n} phases")
        self._labels, self.n = labels.astype(np.intp), n
        self._masks = tuple(self._labels == i for i in range(n))
        for a in (self._labels, *self._masks):
            a.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self._labels.shape

    def labels(self) -> np.ndarray:
        return self._labels

    def phase_masks(self) -> tuple[np.ndarray, ...]:
        """The n read-only boolean masks labels == i."""
        return self._masks

    def weighted_sum(self, w) -> np.ndarray:
        """sum_i w_i u_i: the weight of the phase each pixel belongs to."""
        return np.asarray(w, dtype=np.float64)[self._labels]

    def inner_products(self, fields: np.ndarray) -> np.ndarray:
        """(<u_i, F_i>)_i for a stack F of n fields, (<u_i, F>)_i for one field:
        sums over each phase's pixels, faster than a gather or a bincount."""
        return np.array([np.sum(fields[i] if fields.ndim == 3 else fields, where=m)
                         for i, m in enumerate(self.phase_masks())])

    def distance(self, other: "IndicatorSet") -> float:
        """sqrt(sum_i |u_i - v_i|^2): each relabelled pixel changes two masks."""
        return float(np.sqrt(2.0 * np.count_nonzero(self._labels != other._labels)))


class SegState:
    """Current iterate: means c, bias b, smooth image g, partition u."""

    def __init__(self, c: np.ndarray, b: np.ndarray, g: np.ndarray, u: IndicatorSet):
        self.c, self.b, self.g, self.u = c, b, g, u


def gray_indicator(f: np.ndarray, sigma: float, p: float) -> np.ndarray:
    """Adaptive diffusion weight ((K_sigma*f)/max)^p, values in [0, 1].

    Bright regions (where signal-dependent noise is strongest) get weight 1;
    darker regions smaller, slowing diffusion there.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.min() < 0:
        raise ValueError("image must be nonnegative")
    smoothed = convolve(f, gaussian_kernel(sigma))
    # K_sigma*f >= 0: clear the transform's roundoff below 0, NaN under ** p
    np.maximum(smoothed, 0.0, out=smoothed)
    m = smoothed.max()
    if m <= 0:
        raise ValueError("all-zero image has no gray-level scale")
    return (smoothed / m) ** p


def residual_fields(g: np.ndarray, c, kb: np.ndarray, kb2: np.ndarray) -> np.ndarray:
    """Stacked kernel-weighted squared residuals, one per mean c_i:

        e_i(x) = sum_y K(y-x) * (g(x) - b(y) * c_i)^2
               = g^2 - 2 c_i g (K*b) + c_i^2 (K*b^2)       (K*1 = 1),

    `kb` and `kb2` being K*b and K*b^2 (K*1 = 1: the kernel has unit mass and
    the boundary reflects), clamped at 0 against roundoff. Each field is built
    in its own slot of the stack, with one temporary.
    """
    g = np.asarray(g, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    g2 = g * g
    e = np.empty((len(c),) + g.shape)
    for c_i, e_i in zip(c, e):
        np.multiply(2.0 * c_i, g, out=e_i)
        e_i *= kb
        np.subtract(g2, e_i, out=e_i)
        e_i += c_i * c_i * kb2
        np.maximum(e_i, 0.0, out=e_i)
    return e


def fit_term(e_fields: np.ndarray, u: IndicatorSet, lambdas) -> float:
    """sum_i lam_i * <u_i, e_i> for fixed residual fields."""
    return float(sum(lam * s for lam, s in zip(lambdas, u.inner_products(e_fields), strict=True)))


def length_potentials(u: IndicatorSet, kernel: Kernel) -> np.ndarray:
    """Stacked heat-kernel mass outside each phase, sum_{j != i} K_t*u_j.

    The kernel has unit mass and the phases sum to 1, so the mass outside
    phase i is 1 - K_t*u_i, and that outside the last phase is the sum of
    the others' K_t*u_j: n - 1 convolutions, made in turn in the calling
    thread (`segment` runs this on the helper) and summed in phase order. A
    one-phase set has a zero field; an empty phase sees the full mass."""
    potentials = np.zeros((u.n,) + u.shape)
    for i, mask in enumerate(u.phase_masks()[:-1]):
        potentials[i] = convolve(mask, kernel)      # copied; its own buffer goes at once
        potentials[-1] += potentials[i]
        np.subtract(1.0, potentials[i], out=potentials[i])
    return potentials


def length_term(u: IndicatorSet, potentials: np.ndarray, mu: float,
                time_px: float) -> float:
    """mu * sqrt(pi/t) * sum_i <u_i, potentials_i>."""
    return mu * (np.sqrt(np.pi / time_px) * float(u.inner_products(potentials).sum()))


def idiv_energy(g: np.ndarray, gamma_f: np.ndarray, gamma: float, g_floor: float) -> float:
    """Fidelity gamma * sum(g - f * log g) = gamma * sum(g) - <gamma * f, log g>
    of g >= g_floor > 0, `gamma_f` being gamma * f, the form the image flow
    keeps. Made with one temporary field, log g."""
    g = np.asarray(g, dtype=np.float64)
    if g.min() < g_floor:
        raise ValueError(f"g fell below the positivity floor {g_floor}")
    return gamma * float(g.sum()) - float(np.einsum("ij,ij->", gamma_f, np.log(g)))


def tv_gradient(g: np.ndarray, eps_tv: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gx, gy, mag): forward differences of g and mag = sqrt(|grad g|^2 + eps^2),
    what the TV energy and its force both read."""
    gx, gy = gradient(g)
    return gx, gy, np.sqrt(gx * gx + gy * gy + eps_tv * eps_tv)


def tv_energy(grad: tuple, alpha: np.ndarray, nu: float) -> float:
    """Weighted smoothed total variation nu * sum(alpha * sqrt(|grad g|^2 + eps^2))
    of the g whose `tv_gradient(g, eps)` is `grad`, in one pass."""
    return nu * float(np.einsum("ij,ij->", alpha, grad[2]))
