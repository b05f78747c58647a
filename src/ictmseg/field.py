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

import importlib.machinery
import importlib.util
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

__all__ = [
    "Kernel",
    "gaussian_kernel",
    "heat_kernel_pixels",
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

# Kernels are cut off at this many standard deviations, then renormalized.
CUTOFF_SDS = 4.0


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


def gaussian_kernel(std_dev: float) -> Kernel:
    """Sampled Gaussian with standard deviation `std_dev` in pixels, cut off
    at `CUTOFF_SDS` standard deviations and renormalized to unit sum."""
    if std_dev <= 0:
        raise ValueError(f"std_dev must be positive, got {std_dev}")
    radius = int(np.ceil(CUTOFF_SDS * std_dev))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    p = np.exp(-0.5 * (x / std_dev) ** 2)
    return Kernel(radius=radius, profile=p / p.sum())


def heat_kernel_pixels(time_px: float) -> Kernel:
    """Heat kernel exp(-|x|^2 / (4*time_px)), the diffusion time in pixel^2
    units: a Gaussian of standard deviation sqrt(2*time_px) pixels."""
    if time_px <= 0:
        raise ValueError(f"time must be positive, got {time_px}")
    std_px = np.sqrt(2.0 * time_px)
    if CUTOFF_SDS * std_px < 1.0:
        raise ValueError(
            f"heat time {time_px} gives a sub-pixel kernel (std {std_px:.4f} px); "
            "increase the time")
    return gaussian_kernel(std_px)


def _multiplier(stencil, n: int) -> np.ndarray:
    """DCT-II eigenvalues h_0 + 2 sum_m h_m cos(pi k m / n), k < n, of a centred
    symmetric stencil: its taps folded onto the 2n-periodic reflected extension."""
    r = len(stencil) // 2
    taps = np.bincount(np.arange(-r, r + 1) % (2 * n), stencil, 2 * n)
    return np.fft.rfft(taps)[:n].real


def _load_dct():
    """The transform `_dct`, bound to the compiled extension that `scipy.fft`
    itself calls. The extension is loaded from its file, without importing the
    `scipy.fft` package (0.3 s and 23 MB of modules this program never uses),
    and is kept out of `sys.modules`. Raises ImportError when the file is
    missing, naming every path searched, or when it does not load."""
    name = "scipy.fft._pocketfft.pypocketfft"
    spec = importlib.util.find_spec("scipy")      # locates scipy, imports nothing
    paths = [os.path.join(folder, "fft", "_pocketfft", "pypocketfft" + suffix)
             for folder in (spec.submodule_search_locations if spec else ())
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's compiled DCT extension {name} not found; searched: "
                          f"{', '.join(paths) if paths else 'no scipy installation'}")
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    transform = module.dct

    def dct(x, type, out):
        # the call scipy.fft.dctn/idctn(type=2, norm="ortho") make: both axes,
        # orthonormal scaling, one thread
        return transform(x, type, (0, 1), 1, out, 1)
    return dct


# The orthonormal 2-D DCT-II of a float64 field (type 2) or its inverse, the
# DCT-III (type 3), into `out`: None for a fresh array, or `x` itself.
_dct = _load_dct()


def convolve(field: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Convolve with reflective (symmetric) boundary handling.

    One DCT-II round trip with the kernel's separable multiplier, equal to
    the full 2-D sum over the reflected field for any radius; the cost does
    not depend on the radius. The spectrum is scaled by the two 1-D factors in
    turn and inverted in place; `field` is never written to.
    """
    x = np.asarray(field, dtype=np.float64)
    spec = _dct(x, 2, None if np.may_share_memory(x, field) else x)
    spec *= kernel.multiplier(spec.shape[0])[:, None]
    spec *= kernel.multiplier(spec.shape[1])
    return _dct(spec, 3, spec)


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


def divergence(px: np.ndarray, py: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Backward-difference divergence, the exact negative adjoint of gradient.

    The closure mirrors the gradient's: first entry passes through, last entry
    contributes only its backward neighbor. <grad f, (p,q)> == -<f, div(p,q)>
    holds to machine precision for all (p, q). `out` receives the result; it
    must not overlap px or py.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    if px.shape != py.shape:
        raise ValueError(f"component shapes differ: {px.shape} vs {py.shape}")
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


def solve_implicit(rhs: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Solve (I + dt * Lap^2) x = rhs by cosine-transform diagonalization,
    `symbol` being `implicit_symbol(rhs.shape, dt)`.

    The DCT-II basis diagonalizes the reflected-closure Laplacian, so the
    solve inverts exactly the same operator that `biharmonic` applies.
    """
    spec = _dct(np.asarray(rhs, dtype=np.float64), 2, None)
    spec /= symbol
    return _dct(spec, 3, spec)


def inner_product(a: np.ndarray, b: np.ndarray) -> float:
    """Discrete L2 pairing sum(a * b)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"field shapes differ: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))
