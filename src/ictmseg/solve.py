"""Alternating minimization: closed-form mean and bias updates, a relaxed
scalar-auxiliary-variable (RMSAV) gradient flow for the smooth image, and
convolution thresholding for the partition.

The g-subproblem flow keeps an auxiliary scalar z tracking sqrt(E_g + C0).
One inner step, with m = F'(g_j)/sqrt(E_g(g_j)+C0) and m_hat = A^{-1} m for
A = I + dt*Lap^2:

    z_tilde = z_j / (1 + dt/2 * <m, m_hat>)
    g_{j+1} = g_j - dt * z_tilde * m_hat
    z_{j+1} = xi * z_tilde + (1 - xi) * sqrt(E_g(g_{j+1}) + C0)

xi is the smallest value in [0, 1] keeping z_{j+1}^2 <= B, where

    B = z_tilde^2 + (z_tilde - z_j)^2 + eta * G,
    G = (1/dt) * <g_{j+1} - g_j, A (g_{j+1} - g_j)>.

Since g_{j+1} - g_j = -dt * z_tilde * m_hat and A m_hat = m, the step evaluates
G = dt * z_tilde^2 * <m, m_hat> from the inner product it already has, with
no biharmonic; the tests check it against the definition above. The identity
G = -2*z_tilde^2 + 2*z_tilde*z_j holds exactly by construction and is a
second cross-check; with it, B = z_j^2 - (1-eta)*G. As xi goes from 0 to 1,
z_{j+1} moves linearly from r = sqrt(E_g(g_{j+1}) + C0) to z_tilde <= sqrt(B),
so xi is 0 when r <= sqrt(B), and otherwise the weight at which z_{j+1} meets
sqrt(B). Then z_{j+1} = min(r, sqrt(B)), which is the unconditional stability
law z_{j+1}^2 - z_j^2 <= -(1-eta)*G, with equality whenever xi > 0.

The step never forms m: it solves A x = F'(g_j) and carries the
normalisation in scalars, <m, m_hat> = <F', x> / (E_g + C0) and
dt * z_tilde * m_hat = (dt * z_tilde / sqrt(E_g + C0)) * x.

One step costs one force, one DCT round trip, one TV gradient and one energy
evaluation: the gradient of g_{j+1} serves its energy and, turned in place
into the TV part of the force, the next step and the next flow. Besides the
two DCTs, a step of the fit-free flow makes 27 passes over the field: force
3, spectrum 1, <F', x> 1, update and floor 4, gradient 2, |grad g|_eps 5,
TV sum 1, fidelity 4, flux 3, divergence 3; a fitting term adds 6.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericalFailure
from .energy import (
    IndicatorSet,
    ModelParams,
    SegState,
    fit_term,
    gray_indicator,
    idiv_energy,
    length_potentials,
    length_term,
    residual_fields,
    tv_energy,
    tv_gradient,
)
from .field import (
    Kernel,
    as_field,
    convolve,
    divergence,
    gaussian_kernel,
    heat_kernel_pixels,
    implicit_symbol,
    inner_product,
    on_helper,
    solve_implicit,
)

__all__ = [
    "StepResult",
    "OuterRecord",
    "IterationLog",
    "GContext",
    "FlowRun",
    "build_g_context",
    "energy_shift",
    "evaluate",
    "g_energy",
    "force",
    "rmsav_step",
    "relaxation_coefficient",
    "update_means",
    "update_bias",
    "update_image",
    "threshold",
    "segment",
]


# --------------------------------------------------------------------------
# bookkeeping types

class StepResult(NamedTuple):
    """One RMSAV step; the log keeps it with g_next and tv_force None."""

    outer: int
    inner: int
    g_next: np.ndarray | None
    z_tilde: float
    z_next: float
    xi: float
    g_val: float          # G = (1/dt) <delta, A delta> of the pre-floor delta,
                          # evaluated as dt * z_tilde^2 * <m, m_hat>
    e_next: float         # E_g at the (floored) new iterate
    fit: float
    idiv: float
    tv: float
    err2: float           # |E_g change| / |E_g| of the step
    floored: bool
    tv_force: np.ndarray | None   # TV part of the force at g_next (`evaluate`)

    @property
    def z_sq(self) -> float:
        return self.z_next * self.z_next


class OuterRecord(NamedTuple):
    """Outer iteration k: the four terms of the joint energy at its end, of
    (c, b, g) and u^{k+1}, and the partition energy of u^k."""

    outer: int
    fit: float
    length: float
    idiv: float
    tv: float
    eu_before: float          # partition energy of u^k  (same residual fields)
    err1: float
    flags: tuple

    @property
    def total(self) -> float:
        return self.fit + self.length + self.idiv + self.tv

    @property
    def eu_after(self) -> float:
        """Partition energy of u^{k+1}: its fit and length terms."""
        return float(self.fit + self.length)


class IterationLog:
    def __init__(self):
        self.outers, self.inners, self.warnings = [], [], []


# --------------------------------------------------------------------------
# closed-form subproblems

def update_means(state: SegState, kb: np.ndarray,
                 kb2: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Optimal region means c_i = <u_i * g, K*b> / <u_i, K*b^2>, `kb` and
    `kb2` being K*b and K*b^2 of `state.b`.

    An empty phase (zero denominator) keeps its previous mean and is flagged;
    thresholding may repopulate it later.
    """
    c = np.array(state.c, dtype=np.float64)
    flags = []
    nums = state.u.inner_products(state.g * kb)
    for i, denom in enumerate(state.u.inner_products(kb2)):
        if denom <= 0.0:
            flags.append(f"phase {i} empty; keeping previous mean {c[i]:.6g}")
            continue
        c[i] = nums[i] / denom
    return c, flags


def update_bias(state: SegState, params: ModelParams,
                kernel: Kernel) -> tuple[np.ndarray, float]:
    """Optimal bias field and the fitting term's constant, (b, fit_const):

        b(y) = sum_i lam_i c_i (K*(u_i g))(y) / sum_i lam_i c_i^2 (K*u_i)(y)
             = K*(sum_i lam_i c_i u_i g) / den,  den = K*(sum_i lam_i c_i^2 u_i),

    two convolutions for any number of phases (K is linear): the helper
    thread makes den while the caller makes the numerator, so a helper job
    must not call this. K is self-adjoint, so fit_const =
    <sum_i lam_i c_i^2 u_i, K*b^2> = <den, b^2>. A frozen bias keeps
    b = `state.b` = 1, and den is sum_i lam_i c_i^2 u_i (K*1 = 1).
    """
    c = np.asarray(state.c, dtype=np.float64)
    lam_c = np.asarray(params.lambdas, dtype=np.float64) * c
    if params.freeze_bias:
        b, den = state.b, state.u.weighted_sum(lam_c * c)
    else:
        if not np.any(c != 0.0):
            raise ValueError("all region means are zero; bias undefined")
        den_job = on_helper(lambda: convolve(state.u.weighted_sum(lam_c * c), kernel))
        num = convolve(state.u.weighted_sum(lam_c) * state.g, kernel)
        den = den_job()
        np.maximum(den, np.finfo(np.float64).tiny, out=den)
        b = np.divide(num, den, out=num)
    return b, float(np.einsum("ij,ij,ij->", den, b, b))


# --------------------------------------------------------------------------
# g-subproblem: energy, force, RMSAV flow

class GContext(NamedTuple):
    """Everything the g-subproblem needs with (c, b, u) held fixed.

    weight = sum_i lam_i u_i and target = (K*b) * sum_i lam_i c_i u_i
    collapse the per-phase fitting terms (K*1 = 1), so

        E_fit(g) = <g^2, weight> - 2 <g, target> + fit_const,
        dE_fit   = 2 (weight * g - target).

    The run's context, `FlowRun.ctx`, has no fitting term: weight and target
    are None and fit_const is 0. `build_g_context` fills them in.

    The image f and the gray-level weight alpha enter the flow only as
    gamma_f = gamma * f and nu_alpha = nu * alpha, folded once per run in
    their place: the fidelity is gamma * sum(g) - <gamma_f, log g> with force
    gamma - gamma_f / g, and the TV term is sum(nu_alpha * |grad g|_eps).

    `shift` is the effective positivity offset for the auxiliary variable
    z = sqrt(E_g + shift): the configured margin c0 plus the magnitude of the
    exact lower bound of the fidelity term (attained pointwise at g = f), so
    E_g + shift >= c0 > 0 is guaranteed along the whole flow.
    """

    gamma_f: np.ndarray
    nu_alpha: np.ndarray
    gamma: float
    eps_tv: float
    g_floor: float
    dt: float
    shift: float
    eta: float
    symbol: np.ndarray    # implicit_symbol(f.shape, dt), shared by every step
    weight: np.ndarray | None = None
    target: np.ndarray | None = None
    fit_const: float = 0.0


class FlowRun:
    """What the image flows of one run share: `ctx`, the run's `GContext` of
    the image f under `params`, with no fitting term, made once, and `entry`,
    the (TV force term, idiv, tv) of the g the next flow starts from, or
    None. `update_image` takes `entry` out, so that no second reference keeps
    the field alive through the flow, and puts in that of the g it returns."""

    def __init__(self, f: np.ndarray, params: ModelParams):
        f = np.asarray(f, dtype=np.float64)
        nu_alpha = gray_indicator(f, params.sigma, params.p)
        nu_alpha *= params.nu
        self.ctx = GContext(
            gamma_f=params.gamma * f, nu_alpha=nu_alpha,
            gamma=params.gamma, eps_tv=params.eps_tv,
            g_floor=params.g_floor, dt=params.time_step,
            shift=energy_shift(f, params), eta=params.eta_relax,
            symbol=implicit_symbol(f.shape, params.time_step))
        self.entry = None


def energy_shift(f: np.ndarray, params: ModelParams) -> float:
    """`GContext.shift`: c0 plus the magnitude of the fidelity's infimum over
    g >= g_floor, the I-divergence at g = max(f, g_floor)."""
    low = params.gamma * idiv_energy(np.maximum(f, params.g_floor), f, 1.0, params.g_floor)
    return params.c0 + max(0.0, -low)


def build_g_context(state: SegState, params: ModelParams, kb: np.ndarray,
                    fit_const: float, run: FlowRun) -> GContext:
    """`run.ctx` with the fitting term of (c, b, u) = `state`, `kb` being
    K*b and `fit_const` <sum_i lam_i c_i^2 u_i, K*b^2>."""
    lam = np.asarray(params.lambdas, dtype=np.float64)
    c = np.asarray(state.c, dtype=np.float64)
    return run.ctx._replace(weight=state.u.weighted_sum(lam),
                            target=kb * state.u.weighted_sum(lam * c), fit_const=fit_const)


def evaluate(g: np.ndarray, ctx: GContext) -> tuple:
    """The one evaluation of an iterate g: (total, fit, idiv, tv) = `g_energy`
    and tv_force = div(nu_alpha * grad g / sqrt(|grad g|^2 + eps^2)), the TV
    part of the force, made in the buffers of the one TV gradient."""
    grad = tv_gradient(g, ctx.eps_tv)
    energies = g_energy(g, ctx, grad)
    gx, gy, mag = grad
    # mag is read; its buffer takes the flux weight nu_alpha / mag
    np.divide(ctx.nu_alpha, mag, out=mag)
    gx *= mag
    gy *= mag
    return *energies, divergence(gx, gy, out=mag)


def _fit_energy(g: np.ndarray, ctx: GContext) -> float:
    # at least 0 (K*b^2 >= (K*b)^2): clamped, as `residual_fields` clamps each
    # e_i, against the roundoff of a difference of three large sums
    return 0.0 if ctx.weight is None else max(0.0, (
        float(np.einsum("ij,ij,ij->", g, g, ctx.weight))
        - 2.0 * float(np.einsum("ij,ij->", g, ctx.target)) + ctx.fit_const))


def g_energy(g: np.ndarray, ctx: GContext,
             grad: tuple) -> tuple[float, float, float, float]:
    """E_g(g) = fitting + I-divergence + weighted TV; returns (total, parts).
    `grad` is `tv_gradient(g, ctx.eps_tv)`."""
    # The step calls this with the TV gradient of g_next alive: the sums make
    # no product field and the fidelity one temporary. nu is in nu_alpha.
    tv = tv_energy(grad, ctx.nu_alpha, 1.0)
    fit = _fit_energy(g, ctx)
    idiv = idiv_energy(g, ctx.gamma_f, ctx.gamma, ctx.g_floor)
    return fit + idiv + tv, fit, idiv, tv


def force(g: np.ndarray, ctx: GContext, tv_force: np.ndarray) -> np.ndarray:
    """Variational derivative of E_g; the exact gradient of `g_energy`.

        F'(g) = 2 (weight*g - target) + gamma - gamma_f / g
                - div(nu_alpha * grad g / sqrt(|grad g|^2 + eps^2))

    `tv_force` is the last term's div(...) at g (`evaluate`).
    """
    out = np.divide(ctx.gamma_f, g)
    np.subtract(ctx.gamma, out, out=out)
    if ctx.weight is not None:
        out += 2.0 * (ctx.weight * g - ctx.target)
    out -= tv_force
    return out


def rmsav_step(g: np.ndarray, z: float, ctx: GContext, e_cur: float,
               tv_force: np.ndarray, outer: int, inner: int) -> StepResult:
    """One relaxed-SAV step of the g gradient flow from `g`, whose energy E_g
    is `e_cur` and the TV part of whose force is `tv_force`, as `evaluate`
    gives them; the result carries both for `g_next`. The positivity floor
    is applied after the update, and the G-functional is that of the
    pre-floor displacement. `outer` and `inner` number the step and locate
    a failure.
    """
    if z <= 0.0:
        raise NumericalFailure(f"auxiliary variable must stay positive, got {z}",
                               outer, inner)
    # m = F'/sqrt(E+C) is never formed; the scalars carry 1/sqrt(E+C)
    grad_e = force(g, ctx, tv_force)
    solved = solve_implicit(grad_e, ctx.symbol)
    ip = inner_product(grad_e, solved) / (e_cur + ctx.shift)
    del grad_e
    z_tilde = z / (1.0 + 0.5 * ctx.dt * ip)
    g_val = ctx.dt * z_tilde * z_tilde * ip
    # g_next = g - dt * z_tilde * m_hat, built in the buffer of A^-1 F'
    g_next = solved
    g_next *= -ctx.dt * z_tilde / np.sqrt(e_cur + ctx.shift)
    g_next += g
    floored = bool(g_next.min() < ctx.g_floor)
    np.maximum(g_next, ctx.g_floor, out=g_next)
    e_next, fit, idiv, tv, tv_next = evaluate(g_next, ctx)
    if not (np.isfinite(e_next) and np.isfinite(z_tilde) and np.isfinite(g_val)):
        raise NumericalFailure("non-finite value in SAV step", outer, inner)
    xi = relaxation_coefficient(z_tilde, z, e_next, g_val, ctx.shift, ctx.eta,
                                outer, inner)
    z_next = xi * z_tilde + (1.0 - xi) * np.sqrt(e_next + ctx.shift)
    err2 = abs(e_next - e_cur) / max(abs(e_next), np.finfo(float).tiny)
    return StepResult(outer=outer, inner=inner, g_next=g_next, z_tilde=float(z_tilde),
                      z_next=float(z_next), xi=float(xi), g_val=float(g_val),
                      e_next=float(e_next), fit=float(fit), idiv=float(idiv), tv=float(tv),
                      err2=float(err2), floored=floored, tv_force=tv_next)


def relaxation_coefficient(z_tilde: float, z_prev: float, e_next: float,
                           g_val: float, shift: float, eta: float,
                           outer: int, inner: int) -> float:
    """Smallest xi in [0, 1] with z(xi)^2 <= B, where

        z(xi) = xi*z_tilde + (1 - xi)*r,  r = sqrt(E + shift),
        B = z_tilde^2 + (z_tilde - z_prev)^2 + eta*G.

    z(xi) moves linearly from r to z_tilde, so xi is 0 when
    r <= max(sqrt(B), z_tilde), and otherwise the weight at which z meets
    sqrt(B), at most 1. E + shift <= 0 leaves no r and B < 0 no xi: both
    raise, and `outer` and `inner` locate the failure.
    """
    if e_next + shift <= 0.0:
        raise NumericalFailure("energy fell below -shift; the shift is too small",
                               outer, inner)
    bound = z_tilde**2 + (z_tilde - z_prev)**2 + eta * g_val
    if bound < 0.0:
        raise NumericalFailure(f"relaxation bound {bound:.3e} is negative", outer, inner)
    r, root = np.sqrt(e_next + shift), np.sqrt(bound)
    if r <= max(root, z_tilde):
        return 0.0
    return float(min(1.0, (r - root) / (r - z_tilde)))


def update_image(g: np.ndarray, ctx: GContext, run: FlowRun, params: ModelParams,
                 outer: int) -> tuple[np.ndarray, list[StepResult], bool]:
    """Run the RMSAV inner loop of `ctx` from `g` until the relative energy
    change drops to tol2 (or max_inner is hit, which sets the warning flag).
    `run` carries the hand-off between flows: its `entry` must belong to `g`.
    `outer` numbers the steps, listed with their two arrays released.
    """
    g = np.asarray(g, dtype=np.float64)
    if run.entry is None:
        e_cur, _, idiv, tv, tv_force = evaluate(g, ctx)
    else:       # the same sum as g_energy's, with idiv and tv of the same g
        tv_force, idiv, tv = run.entry
        e_cur = _fit_energy(g, ctx) + idiv + tv
    run.entry = None
    z = float(np.sqrt(e_cur + ctx.shift))
    records: list[StepResult] = []
    err2 = np.inf
    while err2 > params.tol2 and len(records) < params.max_inner:
        step = rmsav_step(g, z, ctx, e_cur, tv_force, outer, len(records))
        records.append(step._replace(g_next=None, tv_force=None))
        g, e_cur, tv_force, z = step.g_next, step.e_next, step.tv_force, step.z_next
        idiv, tv, err2 = step.idiv, step.tv, step.err2
    run.entry = (tv_force, idiv, tv)
    hit_cap = err2 > params.tol2
    return g, records, hit_cap


# --------------------------------------------------------------------------
# partition subproblem: thresholding

def threshold(e_fields: np.ndarray, potentials: np.ndarray, lambdas,
              mu: float, time_px: float) -> IndicatorSet:
    """Assign each pixel to the phase of least cost

        phi_i = lam_i e_i + 2 mu sqrt(pi/t) potentials_i,

    clamped at 0 against roundoff; ties take the lowest index: the exact binary
    minimizer of sum_i <u_i, phi_i> over the partition simplex, np.argmin of
    the stacked costs. The scan forms each cost as it compares it, with one
    contiguous strict comparison per phase (faster than a strided argmin)."""
    if e_fields.ndim != 3 or len(e_fields) < 2:
        raise ValueError("need at least two phase cost fields")
    pref = 2.0 * mu * np.sqrt(np.pi / time_px)
    least, phi = np.empty((2,) + e_fields.shape[1:])
    labels = np.zeros(least.shape, dtype=np.intp)
    for i, (lam, e, p) in enumerate(zip(lambdas, e_fields, potentials, strict=True)):
        cost = phi if i else least
        np.multiply(lam, e, out=cost)
        cost += pref * p
        np.maximum(cost, 0.0, out=cost)
        if i:
            np.copyto(labels, i, where=cost < least)
            np.minimum(least, cost, out=least)
    del least, phi, cost     # freed first, so the set's masks reuse them: fewer page faults
    return IndicatorSet(labels, len(e_fields))


# --------------------------------------------------------------------------
# full alternating loop

def segment(f: np.ndarray, init: IndicatorSet, params: ModelParams,
            progress=None) -> tuple[SegState, IterationLog]:
    """Alternate mean, bias, smooth-image and partition updates until the
    partition stops changing (err1 <= tol1) or max_outer is reached.

    Intensities are divided by `params.scale_of(f)` for the run (the
    default weights balance the fitting and denoising forces at unit scale)
    and the returned means and smooth image are scaled back to input units.
    `progress`, if given, is called with each OuterRecord as it is logged;
    logged energies are in normalized units.

    Each iteration runs in two lanes. The caller runs the chain each step
    waits on; the helper thread (`on_helper`) takes two jobs: the bias
    denominator in `update_bias`, then K*b^2, which the flow does not read,
    with the current partition's potentials and length term, through the
    flow. So record k is logged after iteration k + 1's flow, or as that
    iteration fails, and the last one after the loop.
    """
    params.validate()
    f = as_field(f)
    if init.shape != f.shape or init.n != params.n_phases:
        raise ValueError(
            f"init partition {init.n}x{init.shape} does not match "
            f"{params.n_phases} phases on image {f.shape}")
    scale = params.scale_of(f)
    f = f / scale

    run = FlowRun(f, params)
    fit_kernel = gaussian_kernel(params.rho)
    time_px = params.heat_time_pixels(f.shape)
    length_kernel = heat_kernel_pixels(time_px)

    state = SegState(
        c=np.zeros(params.n_phases),
        b=np.ones_like(f),
        g=np.maximum(f, params.g_floor),
        u=init,
    )
    del f       # the flow reads it as run.ctx.gamma_f

    def length_of(u):     # a helper job: it must not call on_helper
        potentials = length_potentials(u, length_kernel)
        return potentials, length_term(u, potentials, params.mu, time_px)

    def after_flow(b, u):   # the helper's job through the flow: K*b^2, then u's length
        return (b if params.freeze_bias else convolve(b * b, fit_kernel)), *length_of(u)

    log = IterationLog()

    def emit(length):       # the pending record, now that its length term is made
        log.outers.append(OuterRecord(**pending, length=length))
        if progress is not None:
            progress(log.outers[-1])

    # K*b, K*b^2 change only with the bias; the length potentials only with u.
    # b = 1 and K*1 = 1: b is its own K*b and K*b^2; nothing writes into them.
    kb = kb2 = state.b
    pending = None      # the last iteration's record fields, but its length term

    err1 = np.inf
    k = 0
    while err1 > params.tol1 and k < params.max_outer:
        after = None
        try:
            state.c, flags = update_means(state, kb, kb2)
            log.warnings.extend(msg for msg in flags if msg not in log.warnings)
            del kb, kb2     # the old bias's; update_means was their last reader
            state.b, fit_const = update_bias(state, params, fit_kernel)
            # hand over before K*b: made first, K*b delays the helper's job (ROADMAP *Tried*)
            after = on_helper(after_flow, state.b, state.u)
            kb = state.b if params.freeze_bias else convolve(state.b, fit_kernel)
            state.g, inner_records, hit_cap = update_image(
                state.g, build_g_context(state, params, kb, fit_const, run), run, params, k)
        finally:        # the last record, even when this iteration fails early
            kb2, potentials, length = after() if after else (None, *length_of(state.u))
            if pending is not None:
                emit(length)
        log.inners.extend(inner_records)
        if hit_cap:
            flags.append(f"inner loop hit max_inner={params.max_inner}")
        idiv, tv = run.entry[1:]    # of state.g; binds no second ref to its TV force

        e_fields = residual_fields(state.g, state.c, kb, kb2)
        eu_before = fit_term(e_fields, state.u, params.lambdas) + length
        u_new = threshold(e_fields, potentials, params.lambdas, params.mu, time_px)
        fit_new = fit_term(e_fields, u_new, params.lambdas)
        del e_fields, potentials, after     # after holds them too
        err1 = u_new.distance(state.u)
        state.u = u_new
        pending = dict(outer=k, fit=fit_new, idiv=idiv, tv=tv, eu_before=float(eu_before),
                       err1=err1, flags=tuple(flags))
        k += 1
    emit(length_of(state.u)[1])

    if err1 > params.tol1:
        log.warnings.append(f"stopped at max_outer={params.max_outer} "
                            f"with err1={err1:.3e} > tol1={params.tol1}")
    state.c = state.c * scale
    state.g = state.g * scale
    return state, log
