"""2-D grid arithmetic: smoothing kernels, reflective convolution, discrete
difference operators, and the spectral solver for (I + dt * Lap^2).

Fields are float64 arrays of shape (height, width), row-major. All boundary
handling is reflective (symmetric half-sample padding), which realizes a
zero-normal-derivative closure. Under that extension every symmetric stencil
is diagonal in the DCT-II basis, so convolution and the implicit solve are
both one cosine-transform round trip with a separable multiplier; applying
the operator and inverting it are exact inverses.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import fft as _fft

__all__ = [
    "Kernel",
    "gaussian_kernel",
    "heat_kernel",
    "convolve",
    "convolve_each",
    "gradient",
    "divergence",
    "laplacian",
    "biharmonic",
    "implicit_symbol",
    "solve_implicit",
    "inner_product",
    "as_field",
]

# Kernels are truncated at this many standard deviations, then renormalized.
DEFAULT_TRUNCATION = 4.0


def as_field(values) -> np.ndarray:
    """Validate and return a 2-D float64 field."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"field must be 2-D with positive dims, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("field contains NaN or Inf")
    return arr


@dataclass(frozen=True)
class Kernel:
    """Separable, symmetric 2-D smoothing kernel.

    `profile` is the 1-D cross-section normalized to sum 1; the full 2-D
    stencil is its outer product, so the (2*radius+1)^2 weights also sum to 1
    and are symmetric under x -> -x and y -> -y.
    """

    radius: int
    profile: np.ndarray
    _multipliers: dict = dc_field(default_factory=dict, init=False, repr=False,
                                  compare=False)

    def multiplier(self, n: int) -> np.ndarray:
        """The profile's DCT-II eigenvalues on n samples, made once per n."""
        m = self._multipliers.get(n)
        if m is None:     # helpers may race here; both make the same bits
            m = _multiplier(self.profile, n)
            m.flags.writeable = False
            self._multipliers[n] = m
        return m

    @property
    def weights(self) -> np.ndarray:
        """Full 2-D weight stencil, shape (2*radius+1, 2*radius+1)."""
        return np.outer(self.profile, self.profile)

    def std_pixels(self) -> float:
        """Standard deviation of the (truncated, renormalized) kernel."""
        x = np.arange(-self.radius, self.radius + 1, dtype=np.float64)
        return float(np.sqrt(np.sum(self.profile * x * x)))


def _profile_from_std(std: float, truncation: float) -> tuple[int, np.ndarray]:
    radius = int(np.ceil(truncation * std))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    p = np.exp(-0.5 * (x / std) ** 2)
    return radius, p / p.sum()


def gaussian_kernel(std_dev: float, truncation: float = DEFAULT_TRUNCATION) -> Kernel:
    """Sampled Gaussian with standard deviation `std_dev` in pixels.

    Truncated at `truncation` standard deviations and renormalized to unit sum.
    """
    if std_dev <= 0:
        raise ValueError(f"std_dev must be positive, got {std_dev}")
    if truncation < 2:
        raise ValueError(f"truncation must be >= 2, got {truncation}")
    radius, profile = _profile_from_std(float(std_dev), float(truncation))
    return Kernel(radius=radius, profile=profile)


def heat_kernel(time: float, domain_scale: float,
                truncation: float = DEFAULT_TRUNCATION) -> Kernel:
    """Heat kernel exp(-|x|^2 / (4*time)) on normalized coordinates.

    Positions are measured in units of `domain_scale` pixels (pass the image
    long side to make the domain's long side have length 1). The resulting
    pixel-space standard deviation is sqrt(2*time) * domain_scale.
    """
    if time <= 0:
        raise ValueError(f"time must be positive, got {time}")
    if domain_scale <= 0:
        raise ValueError(f"domain_scale must be positive, got {domain_scale}")
    std_px = np.sqrt(2.0 * time) * domain_scale
    if truncation * std_px < 1.0:
        raise ValueError(
            f"heat time {time} gives a sub-pixel kernel (std {std_px:.4f} px); "
            "increase the time or the domain scale")
    radius, profile = _profile_from_std(std_px, float(truncation))
    return Kernel(radius=radius, profile=profile)


def heat_kernel_pixels(time_px: float, truncation: float = DEFAULT_TRUNCATION) -> Kernel:
    """Heat kernel with the diffusion time given directly in pixel^2 units."""
    return heat_kernel(time_px, 1.0, truncation)


def _multiplier(stencil, n: int) -> np.ndarray:
    """DCT-II eigenvalues h_0 + 2 sum_m h_m cos(pi k m / n), k < n, of a centred
    symmetric stencil: its taps folded onto the 2n-periodic reflected extension."""
    r = len(stencil) // 2
    taps = np.bincount(np.arange(-r, r + 1) % (2 * n), stencil, 2 * n)
    return np.fft.rfft(taps)[:n].real


def convolve(field: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Convolve with reflective (symmetric) boundary handling.

    One DCT-II round trip with the kernel's separable multiplier, equal to
    the full 2-D sum over the reflected field for any radius; the cost does
    not depend on the radius. The spectrum is scaled by the two 1-D factors in
    turn and inverted in place; `field` is never written to.
    """
    x = np.asarray(field, dtype=np.float64)
    spec = _fft.dctn(x, type=2, norm="ortho", overwrite_x=not np.may_share_memory(x, field))
    spec *= kernel.multiplier(spec.shape[0])[:, None]
    spec *= kernel.multiplier(spec.shape[1])
    return _fft.idctn(spec, type=2, norm="ortho", overwrite_x=True)


# One single-thread executor per CPU the process may run on, each pinned to
# its CPU, made on first use and forgotten in a forked child (whose copies
# of the threads do not run). Pinning matters: an unpinned helper is woken on
# its caller's CPU and never overlaps with its sibling.
_helpers: list[ThreadPoolExecutor] | None = None


def _pin(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})      # pid 0: this helper thread only


def _helper_pool() -> list[ThreadPoolExecutor]:
    global _helpers
    if _helpers is None:
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        _helpers = [ThreadPoolExecutor(1, initializer=_pin, initargs=(cpu,))
                    for cpu in cpus] if len(cpus) > 1 else []
    return _helpers


def _forget_helpers() -> None:
    global _helpers
    _helpers = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def convolve_each(fields: Sequence[np.ndarray], kernel: Kernel) -> list[np.ndarray]:
    """[convolve(f, kernel) for f in fields], bit for bit, with the fields
    spread over helper threads pinned one to each CPU while the caller waits.
    One field, or one CPU, runs in the caller."""
    pool = _helper_pool() if len(fields) > 1 else []
    if not pool:
        return [convolve(f, kernel) for f in fields]
    jobs = [pool[j % len(pool)].submit(convolve, f, kernel)
            for j, f in enumerate(fields)]
    return [job.result() for job in jobs]


def gradient(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences; the last column/row difference is zero.

    Returns (gx, gy): gx differences along width (axis 1), gy along height.
    """
    field = np.asarray(field, dtype=np.float64)
    gx = np.empty_like(field)
    gy = np.empty_like(field)
    gx[:, :-1] = field[:, 1:] - field[:, :-1]
    gx[:, -1] = 0.0
    np.subtract(field[1:], field[:-1], out=gy[:-1])
    gy[-1] = 0.0
    return gx, gy


def divergence(px: np.ndarray, py: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Backward-difference divergence, the exact negative adjoint of gradient.

    The closure mirrors the gradient's: first entry passes through, last entry
    contributes only its backward neighbor. <grad f, (p,q)> == -<f, div(p,q)>
    holds to machine precision for all (p, q). `out`, if given, receives the
    result; it must not overlap px or py.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    if px.shape != py.shape:
        raise ValueError(f"component shapes differ: {px.shape} vs {py.shape}")
    out = np.empty_like(px) if out is None else out
    if px.shape[1] > 1:
        out[:, 0] = px[:, 0]
        out[:, 1:-1] = px[:, 1:-1] - px[:, :-2]
        out[:, -1] = 0.0 - px[:, -2]     # +0.0, not -0.0, where px is zero
    else:
        out.fill(0.0)
    if py.shape[0] > 1:
        out[0] += py[0]
        out[1:-1] += py[1:-1] - py[:-2]
        out[-1] -= py[-2]
    return out


def laplacian(field: np.ndarray) -> np.ndarray:
    """5-point Laplacian with reflective (zero normal derivative) closure."""
    field = np.asarray(field, dtype=np.float64)
    p = np.pad(field, 1, mode="symmetric")
    return p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * field


def biharmonic(field: np.ndarray) -> np.ndarray:
    """Squared Laplacian: the 5-point stencil applied twice."""
    return laplacian(laplacian(field))


def implicit_symbol(shape: tuple[int, int], dt: float) -> np.ndarray:
    """DCT-II eigenvalues 1 + dt * (lam_y + lam_x)^2 of I + dt * Lap^2 on
    `shape`, read-only: a flow that solves with one (shape, dt) at every step
    builds it once."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    lam_y, lam_x = (_multiplier([1.0, -2.0, 1.0], n) for n in shape)
    lam = lam_y[:, None] + lam_x[None, :]
    symbol = 1.0 + dt * lam * lam
    symbol.flags.writeable = False
    return symbol


def solve_implicit(rhs: np.ndarray, dt: float,
                   symbol: np.ndarray | None = None) -> np.ndarray:
    """Solve (I + dt * Lap^2) x = rhs by cosine-transform diagonalization.

    The DCT-II basis diagonalizes the reflected-closure Laplacian, so the
    solve inverts exactly the same operator that `biharmonic` applies.
    `symbol`, if given, is `implicit_symbol(rhs.shape, dt)`.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if symbol is None:
        symbol = implicit_symbol(rhs.shape, dt)
    spec = _fft.dctn(rhs, type=2, norm="ortho")
    spec /= symbol
    return _fft.idctn(spec, type=2, norm="ortho", overwrite_x=True)


def inner_product(a: np.ndarray, b: np.ndarray) -> float:
    """Discrete L2 pairing sum(a * b)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"field shapes differ: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))
