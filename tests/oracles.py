"""Brute-force reference implementations used to freeze expected values.

Everything here is written as literal double/quadruple loops over the
defining sums, with reflective (symmetric) boundary extension done by
explicit index folding, and stays independent of the library's fast paths.
`rmsav_step_reference` is the exception: it is the RMSAV step written out
term by term from the library's force and energy, without the reuse the
library's step makes. `relaxation_quadratic_root` finds the relaxation
weight as the root of the quadratic in xi that the library's closed form
solves. The energy terms below `assemble_implicit_matrix`
(`fit_residual` to `total_energy`, and `phase_costs`) compose the library's
fields and partition terms for a given state, as the solver loop does; the
solver itself fuses them and never forms the cost stack. `run_inputs` makes
the per-run values the solver functions take, as `segment` makes them, and
`g_context` the g-subproblem's context of a state from the definition of its
fit constant, which `segment` evaluates as <den, b^2> instead. The
one-line helpers after the imports give the tests the float forms the
library does not keep: a kernel's 2-D stencil, a partition's mask stack, a
state's copy and the fit fields of any bias (`segment` starts from b = 1,
whose fit fields are b itself, and convolves only the biases it makes).
"""

from itertools import permutations

import numpy as np

from ictmseg.energy import (IndicatorSet, SegState, fit_term, idiv_energy,
                            length_potentials, length_term, residual_fields,
                            tv_energy, tv_gradient)
from ictmseg.errors import NumericalFailure
from ictmseg.field import (biharmonic, convolve, gaussian_kernel, heat_kernel_pixels,
                           implicit_symbol, inner_product, solve_implicit)
from ictmseg.solve import (FlowRun, StepResult, build_g_context, evaluate, force,
                           relaxation_coefficient)


def stencil(kernel) -> np.ndarray:
    """The full (2r+1)^2 weight stencil, the outer product of the profile."""
    return np.outer(kernel.profile, kernel.profile)


def float_masks(u) -> np.ndarray:
    """The (n, H, W) float64 stack of the binary masks of partition `u`."""
    return (u.labels() == np.arange(u.n)[:, None, None]).astype(np.float64)


def from_masks(masks) -> IndicatorSet:
    """The partition whose masks are the exact 0/1 partition stack `masks`."""
    assert ((masks == 0) | (masks == 1)).all() and (masks.sum(axis=0) == 1).all()
    return IndicatorSet(np.argmax(masks, axis=0), len(masks))


def two_phase(mask: np.ndarray) -> IndicatorSet:
    """Phase 0 where the 0/1 `mask` is 1, phase 1 elsewhere."""
    return from_masks(np.stack([mask, 1.0 - mask]))


def copy_state(state) -> SegState:
    """A copy of c, b and g; the partition is read-only and is shared."""
    return SegState(state.c.copy(), state.b.copy(), state.g.copy(), state.u)


def fit_fields(b: np.ndarray, kernel) -> tuple[np.ndarray, np.ndarray]:
    """(K*b, K*b^2) of the bias `b`."""
    return convolve(b, kernel), convolve(b * b, kernel)


def reflect_index(i: int, n: int) -> int:
    """Symmetric half-sample reflection: ...2,1,0 | 0,1,..,n-1 | n-1,n-2,..."""
    period = 2 * n
    i = i % period
    if i < 0:
        i += period
    return i if i < n else period - 1 - i


def sample_reflected(field: np.ndarray, y: int, x: int) -> float:
    return field[reflect_index(y, field.shape[0]), reflect_index(x, field.shape[1])]


def conv2d_direct(field: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """out(x) = sum_o W(o) field_reflected(x - o), W centered (2r+1)^2."""
    r = weights.shape[0] // 2
    h, w = field.shape
    out = np.zeros_like(field, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    acc += weights[dy + r, dx + r] * sample_reflected(field, y - dy, x - dx)
            out[y, x] = acc
    return out


def fit_residual_direct(g: np.ndarray, b: np.ndarray, c: float,
                        weights: np.ndarray) -> np.ndarray:
    """e(x) = sum_y K(y - x) (g(x) - b(y) c)^2 with reflective extension."""
    r = weights.shape[0] // 2
    h, w = g.shape
    out = np.zeros_like(g, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    bv = sample_reflected(b, y + dy, x + dx)
                    acc += weights[dy + r, dx + r] * (g[y, x] - bv * c) ** 2
            out[y, x] = acc
    return out


def means_direct(u: np.ndarray, g: np.ndarray, b: np.ndarray,
                 weights: np.ndarray) -> float:
    """c = [sum_x u g (K*b)] / [sum_x u (K*b^2)] via direct convolutions."""
    kb = conv2d_direct(b, weights)
    kb2 = conv2d_direct(b * b, weights)
    return float(np.sum(u * g * kb) / np.sum(u * kb2))


def bias_direct(u_masks: np.ndarray, g: np.ndarray, c: np.ndarray,
                lambdas: np.ndarray, weights: np.ndarray) -> np.ndarray:
    num = np.zeros_like(g, dtype=np.float64)
    den = np.zeros_like(g, dtype=np.float64)
    for i in range(len(c)):
        num += lambdas[i] * c[i] * conv2d_direct(u_masks[i] * g, weights)
        den += lambdas[i] * c[i] * c[i] * conv2d_direct(u_masks[i], weights)
    return num / den


def phi_direct(e_fields: np.ndarray, u_masks: np.ndarray, lambdas: np.ndarray,
               mu: float, time_px: float, weights: np.ndarray) -> np.ndarray:
    n = u_masks.shape[0]
    pref = 2.0 * mu * np.sqrt(np.pi / time_px)
    out = np.empty_like(e_fields)
    for i in range(n):
        acc = np.zeros_like(u_masks[0])
        for j in range(n):
            if j != i:
                acc += conv2d_direct(u_masks[j], weights)
        out[i] = lambdas[i] * e_fields[i] + pref * acc
    return out


def laplacian_direct(field: np.ndarray) -> np.ndarray:
    h, w = field.shape
    out = np.zeros_like(field, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            out[y, x] = (sample_reflected(field, y - 1, x)
                         + sample_reflected(field, y + 1, x)
                         + sample_reflected(field, y, x - 1)
                         + sample_reflected(field, y, x + 1)
                         - 4.0 * field[y, x])
    return out


def biharmonic_direct(field: np.ndarray) -> np.ndarray:
    return laplacian_direct(laplacian_direct(field))


def assemble_implicit_matrix(shape: tuple[int, int], dt: float) -> np.ndarray:
    """Dense A = I + dt * Lap^2, row by row from basis vectors."""
    h, w = shape
    n = h * w
    mat = np.zeros((n, n))
    for k in range(n):
        basis = np.zeros(n)
        basis[k] = 1.0
        mat[:, k] = (basis + dt * biharmonic_direct(basis.reshape(h, w)).ravel())
    return mat


def gradient_zero_filled(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences written into zero-filled arrays."""
    gx = np.zeros_like(field)
    gy = np.zeros_like(field)
    gx[:, :-1] = field[:, 1:] - field[:, :-1]
    gy[:-1, :] = field[1:, :] - field[:-1, :]
    return gx, gy


def divergence_zero_filled(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Backward-difference divergence accumulated into a zero-filled array."""
    out = np.zeros_like(px)
    if px.shape[1] > 1:
        out[:, 0] += px[:, 0]
        out[:, 1:-1] += px[:, 1:-1] - px[:, :-2]
        out[:, -1] += -px[:, -2]
    if py.shape[0] > 1:
        out[0, :] += py[0, :]
        out[1:-1, :] += py[1:-1, :] - py[:-2, :]
        out[-1, :] += -py[-2, :]
    return out


def gradient_slices(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences written slice by slice, row-wise for gx."""
    gx = np.empty_like(field)
    gy = np.empty_like(field)
    gx[:, :-1] = field[:, 1:] - field[:, :-1]
    gx[:, -1] = 0.0
    gy[:-1] = field[1:] - field[:-1]
    gy[-1] = 0.0
    return gx, gy


def divergence_slices(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Backward-difference divergence written slice by slice, row-wise for
    the x part, whose last column is 0.0 - px[:, -2] (+0.0 where px is 0)."""
    out = np.empty_like(px)
    if px.shape[1] > 1:
        out[:, 0] = px[:, 0]
        out[:, 1:-1] = px[:, 1:-1] - px[:, :-2]
        out[:, -1] = 0.0 - px[:, -2]
    else:
        out.fill(0.0)
    if py.shape[0] > 1:
        out[0] += py[0]
        out[1:-1] += py[1:-1] - py[:-2]
        out[-1] -= py[-2]
    return out


def fit_residual(g: np.ndarray, b: np.ndarray, c_i: float, kernel) -> np.ndarray:
    """The residual field e_i of one mean c_i (see `residual_fields`)."""
    return residual_fields(g, [c_i], *fit_fields(b, kernel))[0]


def fitting_energy(state, params, kernel=None) -> float:
    """sum_i lam_i * <u_i, e_i>."""
    fields = fit_fields(state.b, kernel or gaussian_kernel(params.rho))
    return fit_term(residual_fields(state.g, state.c, *fields), state.u, params.lambdas)


def length_energy(u, mu: float, time_px: float, kernel=None) -> float:
    """Heat-kernel contour-length term, in pixel units.

    mu * sqrt(pi/t) * sum_i sum_{j != i} <u_i, K_t * u_j>. Each interface is
    counted once per adjacent phase, so a straight edge of length N in a
    two-phase partition contributes 2N (the sum of both phase perimeters).
    """
    if time_px <= 0:
        raise ValueError("heat time must be positive")
    kernel = kernel or heat_kernel_pixels(time_px)
    return length_term(u, length_potentials(u, kernel), mu, time_px)


def total_energy(state, f: np.ndarray, alpha: np.ndarray, params,
                 fit_kernel=None, length_kernel=None) -> tuple[float, float, float, float]:
    """The four terms of the joint objective, (fit, length, idiv, tv)."""
    time_px = params.heat_time_pixels(state.g.shape)
    fit = fitting_energy(state, params, fit_kernel)
    length = length_energy(state.u, params.mu, time_px, length_kernel)
    idiv = idiv_energy(state.g, params.gamma * f, params.gamma, params.g_floor)
    tv = tv_energy(tv_gradient(state.g, params.eps_tv), alpha, params.nu)
    return fit, length, idiv, tv


def phase_costs(e_fields: np.ndarray, potentials: np.ndarray, lambdas,
                mu: float, time_px: float) -> np.ndarray:
    """Stacked per-phase pointwise costs

        phi_i = lam_i e_i + 2 mu sqrt(pi/t) potentials_i,

    nonnegative by construction (clamped against roundoff). Their pixelwise
    minimizer is the thresholding step of the partition energy."""
    pref = 2.0 * mu * np.sqrt(np.pi / time_px)
    phis = np.empty_like(e_fields)
    for i in range(len(phis)):
        phis[i] = lambdas[i] * e_fields[i] + pref * potentials[i]
    return np.maximum(phis, 0.0, out=phis)


def threshold_fields(e_fields: np.ndarray, u, params, time_px: float,
                     kernel=None) -> np.ndarray:
    """Per-phase pointwise costs of the partition `u`,

        phi_i = lam_i e_i + 2 mu sqrt(pi/t) sum_{j != i} K_t * u_j.
    """
    potentials = length_potentials(u, kernel or heat_kernel_pixels(time_px))
    return phase_costs(e_fields, potentials, params.lambdas, params.mu, time_px)


def partition_energy(e_fields: np.ndarray, u, params, time_px: float,
                     kernel=None) -> float:
    """Fitting plus heat-kernel length of `u` with the residual fields held
    fixed: the quantity the thresholding step decreases monotonically."""
    return (fit_term(e_fields, u, params.lambdas)
            + length_energy(u, params.mu, time_px, kernel))


def best_overlap_exhaustive(pred_masks: np.ndarray, truth_masks: np.ndarray) -> int:
    """Largest total overlap sum_i |pred_i & truth_perm(i)| over all n! phase
    permutations."""
    n = len(pred_masks)
    overlap = [[int(np.count_nonzero((pred_masks[i] > 0) & (truth_masks[j] > 0)))
                for j in range(n)] for i in range(n)]
    return max(sum(overlap[i][perm[i]] for i in range(n))
               for perm in permutations(range(n)))


def run_inputs(state, f: np.ndarray, params) -> tuple:
    """What `segment` hands `build_g_context`: the fit fields of `state.b`
    and a `FlowRun` of `f`."""
    return fit_fields(state.b, gaussian_kernel(params.rho)), FlowRun(f, params)


def fit_constant(state, params, kb2: np.ndarray) -> float:
    """<sum_i lam_i c_i^2 u_i, K*b^2>, the fitting term's constant by its
    definition, `kb2` being K*b^2."""
    lam_c2 = np.asarray(params.lambdas) * np.asarray(state.c) ** 2
    return inner_product(state.u.weighted_sum(lam_c2), kb2)


def g_context(state, params, fields, run):
    """`build_g_context` of `state` from its fit fields (`run_inputs`)."""
    kb, kb2 = fields
    return build_g_context(state, params, kb, fit_constant(state, params, kb2), run)


def relaxation_quadratic_root(z_tilde: float, z_prev: float, e_next: float,
                              g_val: float, shift: float, eta: float) -> float:
    """Smallest xi in [0, 1] with q*xi^2 + d*xi + h <= 0,

        q = (z_tilde - r)^2,  d = 2*(z_tilde - r)*r,
        h = r^2 - z_tilde^2 - (z_tilde - z_prev)^2 - eta*G,  r = sqrt(E+shift),

    i.e. xi = max{0, (-d - sqrt(d^2 - 4qh)) / (2q)}, with the q ~ 0 cases
    taken apart. A discriminant negative beyond roundoff raises."""
    r = np.sqrt(e_next + shift)
    q = (z_tilde - r) ** 2
    d = 2.0 * (z_tilde - r) * r
    h = e_next + shift - z_tilde**2 - (z_tilde - z_prev)**2 - eta * g_val
    if q > 1e-14:
        disc = d * d - 4.0 * q * h
        if disc < 0.0:
            if disc < -1e-8 * max(d * d, abs(4.0 * q * h), 1.0):
                raise NumericalFailure(f"relaxation discriminant {disc:.3e} negative")
            disc = 0.0
        xi = max(0.0, (-d - np.sqrt(disc)) / (2.0 * q))
    elif h <= 0.0:
        xi = 0.0
    elif d < 0.0:
        xi = h / -d
    else:
        xi = 1.0      # q ~ 0, d >= 0, h > 0 is roundoff; xi = 1 is feasible
    return float(min(1.0, xi))


def rmsav_step_reference(g: np.ndarray, z: float, ctx, e_cur: float | None = None,
                         outer: int | None = None,
                         inner: int | None = None) -> StepResult:
    """The unfused RMSAV step: the force recomputed from g, G from its
    definition (1/dt) <delta, A delta> with the biharmonic applied, and the
    floor applied out of place."""
    if z <= 0.0:
        raise NumericalFailure(f"auxiliary variable must stay positive, got {z}",
                               outer, inner)
    if e_cur is None:
        e_cur = evaluate(g, ctx)[0]
    root_cur = np.sqrt(e_cur + ctx.shift)
    m = force(g, ctx, evaluate(g, ctx)[4]) / root_cur
    m_hat = solve_implicit(m, implicit_symbol(m.shape, ctx.dt))
    ip = inner_product(m, m_hat)
    z_tilde = z / (1.0 + 0.5 * ctx.dt * ip)
    g_raw = g - ctx.dt * z_tilde * m_hat
    delta = g_raw - g
    g_val = (inner_product(delta, delta)
             + ctx.dt * inner_product(delta, biharmonic(delta))) / ctx.dt
    g_next = np.maximum(g_raw, ctx.g_floor)
    floored = bool(g_raw.min() < ctx.g_floor)
    e_next, fit, idiv, tv, tv_force = evaluate(g_next, ctx)
    if not (np.isfinite(e_next) and np.isfinite(z_tilde) and np.isfinite(g_val)):
        raise NumericalFailure("non-finite value in SAV step", outer, inner)
    xi = relaxation_coefficient(z_tilde, z, e_next, g_val, ctx.shift, ctx.eta,
                                outer, inner)
    z_next = xi * z_tilde + (1.0 - xi) * np.sqrt(e_next + ctx.shift)
    err2 = abs(e_next - e_cur) / max(abs(e_next), np.finfo(float).tiny)
    return StepResult(outer=outer, inner=inner, g_next=g_next, z_tilde=float(z_tilde),
                      z_next=float(z_next), xi=float(xi), g_val=float(g_val),
                      e_next=float(e_next), fit=float(fit), idiv=float(idiv), tv=float(tv),
                      err2=float(err2), floored=floored, tv_force=tv_force)
