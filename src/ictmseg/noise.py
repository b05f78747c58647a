"""Seeded corruption models: multiplicative Gamma speckle and Poisson counts.

Reproducibility: every sampler drives a Philox4x64-10 counter-based generator
keyed by the user seed and fills arrays in row-major order, so a fixed seed
gives bit-identical output on every run.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NoiseSpec", "sample_gamma_field", "corrupt"]


class NoiseSpec:
    """What corruption to apply: kind in {'none', 'gamma', 'poisson'}.

    For 'gamma', `looks` is the shape parameter L; the scale is fixed at 1/L
    so the speckle has unit mean and variance 1/L.
    """

    def __init__(self, kind: str = "none", looks: float = 10.0, seed: int = 0):
        if kind not in ("none", "gamma", "poisson"):
            raise ValueError(f"unknown noise kind {kind!r}")
        if kind == "gamma" and not 0 < looks < np.inf:
            raise ValueError(f"looks must be positive and finite, got {looks}")
        self.kind, self.looks, self.seed = kind, looks, seed


def _generator(seed: int) -> np.random.Generator:
    if not (0 <= seed < 2**64 and seed == int(seed)):
        raise ValueError(f"seed must be in [0, 2^64) and an integer to key Philox, got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def sample_gamma_field(width: int, height: int, looks: float, seed: int) -> np.ndarray:
    """I.i.d. Gamma(shape=looks, scale=1/looks) speckle field, mean 1."""
    if not 0 < looks < np.inf:
        raise ValueError(f"looks must be positive and finite, got {looks}")
    if width < 1 or height < 1:
        raise ValueError("field dimensions must be positive")
    rng = _generator(seed)
    eta = rng.gamma(shape=looks, scale=1.0 / looks, size=(height, width))
    # Gamma(0+) mass is a measure-zero event; guard the exact-zero draw anyway.
    return np.maximum(eta, np.finfo(np.float64).tiny)


def corrupt(clean: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Corrupt a 2-D nonnegative image: 'gamma' multiplies it by
    `sample_gamma_field` speckle, 'poisson' draws counts with each pixel value
    as the mean (no photon rescaling) and 'none' copies it, its values
    unchecked. Clamping is I/O policy."""
    clean = np.asarray(clean, dtype=np.float64)
    if clean.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {clean.shape}")
    if spec.kind == "none":
        return clean.copy()
    if clean.min() < 0:
        raise ValueError("clean image must be nonnegative")
    if spec.kind == "gamma":
        h, w = clean.shape
        return clean * sample_gamma_field(w, h, spec.looks, spec.seed)
    return _generator(spec.seed).poisson(clean).astype(np.float64)
