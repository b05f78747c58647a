"""Seeded corruption models: multiplicative Gamma speckle and Poisson counts.

Reproducibility: every sampler drives a Philox4x64-10 counter-based generator
keyed by the user seed and fills arrays in row-major order, so a fixed seed
gives bit-identical output on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NoiseSpec", "sample_gamma_field", "apply_multiplicative", "apply_poisson",
           "corrupt"]


@dataclass(frozen=True)
class NoiseSpec:
    """What corruption to apply: kind in {'none', 'gamma', 'poisson'}.

    For 'gamma', `looks` is the shape parameter L; the scale is fixed at 1/L
    so the speckle has unit mean and variance 1/L.
    """

    kind: str = "none"
    looks: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "gamma", "poisson"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gamma" and self.looks <= 0:
            raise ValueError(f"looks must be positive, got {self.looks}")


def _generator(seed: int) -> np.random.Generator:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64) to key Philox, got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def sample_gamma_field(width: int, height: int, looks: float, seed: int) -> np.ndarray:
    """I.i.d. Gamma(shape=looks, scale=1/looks) speckle field, mean 1."""
    if looks <= 0:
        raise ValueError(f"looks must be positive, got {looks}")
    if width < 1 or height < 1:
        raise ValueError("field dimensions must be positive")
    rng = _generator(seed)
    eta = rng.gamma(shape=looks, scale=1.0 / looks, size=(height, width))
    # Gamma(0+) mass is a measure-zero event; guard the exact-zero draw anyway.
    return np.maximum(eta, np.finfo(np.float64).tiny)


def apply_multiplicative(clean: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Pointwise product clean * eta. No clamping here; that is I/O policy."""
    clean = np.asarray(clean, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    if clean.shape != eta.shape:
        raise ValueError(f"shape mismatch: {clean.shape} vs {eta.shape}")
    if clean.min() < 0:
        raise ValueError("clean image must be nonnegative")
    return clean * eta


def apply_poisson(clean: np.ndarray, seed: int) -> np.ndarray:
    """Per-pixel Poisson draw with the pixel value as the mean.

    Pixel values on the usual [0, 255] display scale are used directly as
    Poisson means, without photon-count rescaling.
    """
    clean = np.asarray(clean, dtype=np.float64)
    if clean.min() < 0:
        raise ValueError("Poisson means must be nonnegative")
    rng = _generator(seed)
    return rng.poisson(lam=clean).astype(np.float64)


def corrupt(clean: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Apply the configured corruption; 'none' returns a copy."""
    if spec.kind == "none":
        return np.array(clean, dtype=np.float64)
    if spec.kind == "gamma":
        h, w = np.asarray(clean).shape
        eta = sample_gamma_field(w, h, spec.looks, spec.seed)
        return apply_multiplicative(clean, eta)
    return apply_poisson(clean, spec.seed)
