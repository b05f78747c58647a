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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateInputError
from .field import Kernel, convolve, convolve_each, gaussian_kernel, gradient

__all__ = [
    "ModelParams",
    "IndicatorSet",
    "SegState",
    "EnergyBreakdown",
    "FitFields",
    "gray_indicator",
    "fit_fields",
    "residual_fields",
    "idiv_energy",
    "TVGradient",
    "tv_gradient",
    "tv_energy",
]


@dataclass
class ModelParams:
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
    intensity_scale: float = 255.0
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

    def validate(self) -> "ModelParams":
        for name, value in [*(("lambdas", l) for l in self.lambdas), *vars(self).items()]:
            if isinstance(value, (float, np.floating)) and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.n_phases < 2:
            raise ConfigError("need at least 2 phases")
        if any(l < 0 for l in self.lambdas):
            raise ConfigError("lambda weights must be nonnegative")
        if self.mu < 0 or self.gamma < 0 or self.nu < 0:
            raise ConfigError("mu, gamma, nu must be nonnegative")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.intensity_scale <= 0:
            raise ConfigError("intensity_scale must be positive")
        for name in ("rho", "tau", "sigma", "c0", "eps_tv", "g_floor"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 <= self.eta_relax <= 1.0:
            raise ConfigError("eta_relax must lie in [0, 1]")
        if self.tol1 < 0 or self.tol2 < 0:
            raise ConfigError("tolerances must be nonnegative")
        if self.max_outer < 1 or self.max_inner < 0:
            raise ConfigError("iteration caps out of range")
        return self

    def heat_time_pixels(self, shape: tuple[int, int]) -> float:
        """Length-kernel heat time in pixel^2 units for an image shape."""
        if self.tau_in_pixels:
            return self.tau
        scale = float(max(shape))
        return self.tau * scale * scale


class IndicatorSet:
    """A hard partition into n phases, stored as one label per pixel, the form
    thresholding produces. The solver reads the binary masks u_i only through
    gathers and per-phase sums of the labels. The labels are read-only, so
    sets are shared, and so are the boolean masks labels == i, made once when
    first read. `from_labels` is the one constructor."""

    _phase_masks: tuple[np.ndarray, ...] | None = None

    def __init__(self, *args, **kwargs):
        raise TypeError("build an IndicatorSet with IndicatorSet.from_labels")

    @classmethod
    def from_labels(cls, labels: np.ndarray, n: int) -> "IndicatorSet":
        """From an (H, W) map of integer labels in [0, n), copied."""
        labels = np.asarray(labels)
        if labels.ndim != 2 or labels.dtype.kind not in "biu":
            raise ValueError(f"labels must be a 2-D integer map, got {labels.shape}")
        if labels.min() < 0 or labels.max() >= n:
            raise ValueError(f"labels out of range for {n} phases")
        u = cls.__new__(cls)
        u._labels, u.n = labels.astype(np.intp), n
        u._labels.flags.writeable = False
        return u

    @property
    def shape(self) -> tuple[int, int]:
        return self._labels.shape

    def labels(self) -> np.ndarray:
        return self._labels

    def phase_masks(self) -> tuple[np.ndarray, ...]:
        """The n read-only boolean masks labels == i."""
        if self._phase_masks is None:
            masks = tuple(self._labels == i for i in range(self.n))
            for m in masks:
                m.flags.writeable = False
            self._phase_masks = masks
        return self._phase_masks

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


@dataclass
class SegState:
    """Current iterate: means c, bias b, smooth image g, partition u."""

    c: np.ndarray
    b: np.ndarray
    g: np.ndarray
    u: IndicatorSet


@dataclass(frozen=True)
class EnergyBreakdown:
    fit: float
    length: float
    idiv: float
    tv: float
    total: float

    @classmethod
    def build(cls, fit: float, length: float, idiv: float, tv: float) -> "EnergyBreakdown":
        return cls(fit, length, idiv, tv, fit + length + idiv + tv)


def gray_indicator(f: np.ndarray, sigma: float, p: float) -> np.ndarray:
    """Adaptive diffusion weight ((K_sigma*f)/max)^p, values in (0, 1].

    Bright regions (where signal-dependent noise is strongest) get weight 1;
    darker regions smaller, slowing diffusion there.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.min() < 0:
        raise ValueError("image must be nonnegative")
    smoothed = convolve(f, gaussian_kernel(sigma))
    m = smoothed.max()
    if m <= 0:
        raise DegenerateInputError("all-zero image has no gray-level scale")
    return (smoothed / m) ** p


class FitFields(NamedTuple):
    """The two fit-kernel passes through which the model reads the bias,
    K*b and K*b^2, new after each bias update. K*1 is not among them: the
    kernel has unit mass and the boundary reflects, so K*1 = 1."""

    kb: np.ndarray
    kb2: np.ndarray


def fit_fields(b: np.ndarray, kernel: Kernel) -> FitFields:
    """K*b and K*b^2 for the bias `b`, side by side."""
    b = np.asarray(b, dtype=np.float64)
    return FitFields(*convolve_each((b, b * b), kernel))


def residual_fields(g: np.ndarray, c, fields: FitFields) -> np.ndarray:
    """Stacked kernel-weighted squared residuals, one per mean c_i:

        e_i(x) = sum_y K(y-x) * (g(x) - b(y) * c_i)^2
               = g^2 - 2 c_i g (K*b) + c_i^2 (K*b^2)       (K*1 = 1),

    clamped at 0 against roundoff. Each field is built in its own slot of
    the stack, with one temporary.
    """
    g = np.asarray(g, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    g2 = g * g
    e = np.empty((len(c),) + g.shape)
    for c_i, e_i in zip(c, e):
        np.multiply(2.0 * c_i, g, out=e_i)
        e_i *= fields.kb
        np.subtract(g2, e_i, out=e_i)
        e_i += c_i * c_i * fields.kb2
        np.maximum(e_i, 0.0, out=e_i)
    return e


def fit_term(e_fields: np.ndarray, u: IndicatorSet, lambdas) -> float:
    """sum_i lam_i * <u_i, e_i> for fixed residual fields."""
    return float(sum(lam * s for lam, s in zip(lambdas, u.inner_products(e_fields))))


def length_potentials(u: IndicatorSet, kernel: Kernel) -> np.ndarray:
    """Stacked heat-kernel mass outside each phase, sum_{j != i} K_t*u_j.

    The kernel has unit mass and the phases sum to 1, so the mass outside
    phase i is 1 - K_t*u_i, and that outside the last phase is the sum of
    the others' K_t*u_j: n - 1 convolutions. A one-phase set has a zero
    field; an empty phase sees the full mass. The n - 1 convolutions run side
    by side and are summed in phase order."""
    potentials = np.zeros((u.n,) + u.shape)
    spreads = convolve_each(u.phase_masks()[:-1], kernel)
    for i, spread in enumerate(spreads):
        potentials[-1] += spread
        np.subtract(1.0, spread, out=potentials[i])
    return potentials


def length_term(u: IndicatorSet, potentials: np.ndarray, mu: float,
                time_px: float) -> float:
    """mu * sqrt(pi/t) * sum_i <u_i, potentials_i>."""
    return mu * (np.sqrt(np.pi / time_px) * float(u.inner_products(potentials).sum()))


def idiv_energy(g: np.ndarray, f: np.ndarray, gamma: float, g_floor: float) -> float:
    """Fidelity gamma * sum(g - f * log g); requires g >= g_floor > 0.
    Made with one temporary field."""
    if gamma == 0.0:
        return 0.0
    g = np.asarray(g, dtype=np.float64)
    if g.min() < g_floor:
        raise ValueError(f"g fell below the positivity floor {g_floor}")
    r = np.log(g)
    r *= f
    return gamma * float(np.sum(np.subtract(g, r, out=r)))


class TVGradient(NamedTuple):
    """Forward differences of g and mag = sqrt(|grad g|^2 + eps^2): what the
    TV energy and its force both read."""

    gx: np.ndarray
    gy: np.ndarray
    mag: np.ndarray


def tv_gradient(g: np.ndarray, eps_tv: float) -> TVGradient:
    gx, gy = gradient(g)
    return TVGradient(gx, gy, np.sqrt(gx * gx + gy * gy + eps_tv * eps_tv))


def tv_energy(g: np.ndarray, alpha: np.ndarray, nu: float, eps_tv: float,
              grad: TVGradient | None = None) -> float:
    """Weighted smoothed total variation nu * sum(alpha * sqrt(|grad g|^2 + eps^2)).

    `grad`, if given, is `tv_gradient(g, eps_tv)` and is not recomputed.
    """
    if nu == 0.0:
        return 0.0
    if grad is None:
        grad = tv_gradient(g, eps_tv)
    return nu * float(np.sum(np.asarray(alpha, dtype=np.float64) * grad.mag))
