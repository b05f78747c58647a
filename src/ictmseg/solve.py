"""Alternating minimization: closed-form mean and bias updates, a relaxed
scalar-auxiliary-variable (RMSAV) gradient flow for the smooth image, and
convolution thresholding for the partition.

The g-subproblem flow keeps an auxiliary scalar z tracking sqrt(E_g + C0).
One inner step, with m = F'(g_j)/sqrt(E_g(g_j)+C0) and m_hat = A^{-1} m for
A = I + dt*Lap^2:

    z_tilde = z_j / (1 + dt/2 * <m, m_hat>)
    g_{j+1} = g_j - dt * z_tilde * m_hat
    z_{j+1} = xi * z_tilde + (1 - xi) * sqrt(E_g(g_{j+1}) + C0)

xi is the smallest value in [0, 1] keeping

    z_{j+1}^2 - z_tilde^2 - (z_tilde - z_j)^2 <= eta * G,
    G = (1/dt) * <g_{j+1} - g_j, A (g_{j+1} - g_j)>,

which yields the unconditional stability law z_{j+1}^2 - z_j^2 <= -(1-eta)*G
(with equality whenever xi lands strictly inside (0, 1]). Since
g_{j+1} - g_j = -dt * z_tilde * m_hat and A m_hat = m, the step evaluates
G = dt * z_tilde^2 * <m, m_hat> from the inner product it already has, with
no biharmonic; the tests check it against the definition above. The identity
G = -2*z_tilde^2 + 2*z_tilde*z_j holds exactly by construction and is a
second cross-check.

One step costs one force, one DCT round trip, one TV gradient and one energy
evaluation: the gradient of g_{j+1} serves its energy and, turned in place
into the TV part of the force, the next step and the next flow.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field, replace

import numpy as np

from .errors import DegenerateInputError, NumericalFailure
from .energy import (
    EnergyBreakdown,
    FitFields,
    IndicatorSet,
    ModelParams,
    SegState,
    TVGradient,
    fit_fields,
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
    convolve_each,
    divergence,
    gaussian_kernel,
    heat_kernel_pixels,
    implicit_symbol,
    inner_product,
    solve_implicit,
)

__all__ = [
    "StepResult",
    "InnerRecord",
    "OuterRecord",
    "IterationLog",
    "GContext",
    "FlowRun",
    "build_g_context",
    "fidelity_lower_bound",
    "energy_shift",
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

@dataclass(frozen=True)
class StepResult:
    g_next: np.ndarray
    z_tilde: float
    z_next: float
    xi: float
    g_val: float          # G = (1/dt) <delta, A delta> of the pre-floor delta,
                          # evaluated as dt * z_tilde^2 * <m, m_hat>
    e_next: float         # E_g at the (floored) new iterate
    fit: float
    idiv: float
    tv: float
    floored: bool
    tv_force: np.ndarray | None = None   # _tv_force of g_next (None when nu = 0)


@dataclass(frozen=True)
class InnerRecord:
    outer: int
    inner: int
    energy: float
    fit: float
    idiv: float
    tv: float
    z: float
    z_tilde: float
    xi: float
    g_val: float
    err2: float
    floored: bool

    @property
    def z_sq(self) -> float:
        return self.z * self.z


@dataclass(frozen=True)
class OuterRecord:
    outer: int
    energy: EnergyBreakdown   # full joint energy at the end of the iteration
    eu_before: float          # partition energy of u^k  (same residual fields)
    eu_after: float           # partition energy of u^{k+1}
    err1: float
    flags: tuple = ()


@dataclass
class IterationLog:
    header: dict = dc_field(default_factory=dict)
    outers: list = dc_field(default_factory=list)
    inners: list = dc_field(default_factory=list)
    warnings: list = dc_field(default_factory=list)


# --------------------------------------------------------------------------
# closed-form subproblems

def update_means(state: SegState, fields: FitFields) -> tuple[np.ndarray, list[str]]:
    """Optimal region means c_i = <u_i * g, K*b> / <u_i, K*b^2>, `fields`
    being the fit fields of `state.b`.

    An empty phase (zero denominator) keeps its previous mean and is flagged;
    thresholding may repopulate it later.
    """
    c = np.array(state.c, dtype=np.float64)
    flags = []
    nums = state.u.inner_products(state.g * fields.kb)
    for i, denom in enumerate(state.u.inner_products(fields.kb2)):
        if denom <= 0.0:
            flags.append(f"phase {i} empty; keeping previous mean {c[i]:.6g}")
            continue
        c[i] = nums[i] / denom
    return c, flags


def update_bias(state: SegState, params: ModelParams, kernel: Kernel) -> np.ndarray:
    """Optimal bias field

        b(y) = sum_i lam_i c_i (K*(u_i g))(y) / sum_i lam_i c_i^2 (K*u_i)(y)
             = K*(sum_i lam_i c_i u_i g) / K*(sum_i lam_i c_i^2 u_i),

    two convolutions for any number of phases (K is linear), side by side.
    """
    c = np.asarray(state.c, dtype=np.float64)
    if not np.any(c != 0.0):
        raise DegenerateInputError("all region means are zero; bias undefined")
    lam_c = np.asarray(params.lambdas, dtype=np.float64) * c
    num, den = convolve_each((state.u.weighted_sum(lam_c) * state.g,
                              state.u.weighted_sum(lam_c * c)), kernel)
    den = np.maximum(den, np.finfo(np.float64).tiny)
    return num / den


# --------------------------------------------------------------------------
# g-subproblem: energy, force, RMSAV flow

@dataclass(frozen=True)
class GContext:
    """Everything the g-subproblem needs with (c, b, u) held fixed.

    weight = sum_i lam_i u_i and target = (K*b) * sum_i lam_i c_i u_i
    collapse the per-phase fitting terms (K*1 = 1), so

        E_fit(g) = <g^2, weight> - 2 <g, target> + fit_const,
        dE_fit   = 2 (weight * g - target).

    The run's context, `FlowRun.ctx`, has no fitting term: weight and target
    are None and fit_const is 0. `build_g_context` fills them in.

    `shift` is the effective positivity offset for the auxiliary variable
    z = sqrt(E_g + shift): the configured margin c0 plus the magnitude of the
    exact lower bound of the fidelity term (attained pointwise at g = f), so
    E_g + shift >= c0 > 0 is guaranteed along the whole flow.
    """

    f: np.ndarray
    alpha: np.ndarray
    gamma: float
    nu: float
    eps_tv: float
    g_floor: float
    dt: float
    shift: float
    eta: float
    symbol: np.ndarray    # implicit_symbol(f.shape, dt), shared by every step
    weight: np.ndarray | None = None
    target: np.ndarray | None = None
    fit_const: float = 0.0


@dataclass
class FlowRun:
    """What the image flows of one run share: `ctx`, the run's `GContext`
    with no fitting term, made once, and `entry`, the (TV force term, idiv,
    tv) of the g the next flow starts from, or None. `update_image` takes
    `entry` out, so that no second reference keeps the field alive through
    the flow, and puts in that of the g it returns."""

    ctx: GContext
    entry: tuple | None = None

    @classmethod
    def start(cls, f: np.ndarray, params: ModelParams) -> "FlowRun":
        f = np.asarray(f, dtype=np.float64)
        return cls(GContext(
            f=f, alpha=gray_indicator(f, params.sigma, params.p),
            gamma=params.gamma, nu=params.nu, eps_tv=params.eps_tv,
            g_floor=params.g_floor, dt=params.time_step,
            shift=energy_shift(f, params), eta=params.eta_relax,
            symbol=implicit_symbol(f.shape, params.time_step)))


def fidelity_lower_bound(f: np.ndarray, gamma: float, g_floor: float) -> float:
    """Exact infimum of the I-divergence term over g >= g_floor."""
    return idiv_energy(np.maximum(f, g_floor), f, gamma, g_floor)


def energy_shift(f: np.ndarray, params: ModelParams) -> float:
    """`GContext.shift`: c0 plus the magnitude of the fidelity's lower bound."""
    return params.c0 + max(0.0, -fidelity_lower_bound(f, params.gamma, params.g_floor))


def build_g_context(state: SegState, params: ModelParams, fields: FitFields,
                    run: FlowRun) -> GContext:
    """`run.ctx` with the fitting term of (c, b, u) = `state`, `fields` being
    the fit fields of `state.b`."""
    lam = np.asarray(params.lambdas, dtype=np.float64)
    c = np.asarray(state.c, dtype=np.float64)
    return replace(run.ctx, weight=state.u.weighted_sum(lam),
                   target=fields.kb * state.u.weighted_sum(lam * c),
                   fit_const=inner_product(state.u.weighted_sum(lam * c * c), fields.kb2))


def _tv_force(grad: TVGradient | None, ctx: GContext) -> np.ndarray | None:
    """nu * div(alpha * grad g / sqrt(|grad g|^2 + eps^2)), the TV part of the
    force, made in the buffers of `grad` = tv_gradient(g, eps), None if nu = 0."""
    if grad is None:
        return None
    for d in grad[:2]:      # the flux alpha * grad g / mag
        d *= ctx.alpha
        d /= grad.mag
    div = divergence(grad.gx, grad.gy, out=grad.mag)
    return np.multiply(div, ctx.nu, out=div)


def _evaluate(g: np.ndarray, ctx: GContext) -> tuple:
    """`g_energy` of g and the TV part of its force, from one TV gradient."""
    grad = tv_gradient(g, ctx.eps_tv) if ctx.nu > 0.0 else None
    return *g_energy(g, ctx, grad), _tv_force(grad, ctx)


def _fit_energy(g: np.ndarray, ctx: GContext) -> float:
    return 0.0 if ctx.weight is None else (
        float(np.sum(g * g * ctx.weight) - 2.0 * np.sum(g * ctx.target)) + ctx.fit_const)


def g_energy(g: np.ndarray, ctx: GContext,
             grad: TVGradient | None = None) -> tuple[float, float, float, float]:
    """E_g(g) = fitting + I-divergence + weighted TV; returns (total, parts).

    `grad`, if given, is `tv_gradient(g, ctx.eps_tv)`."""
    # The step calls this with the TV gradient of g_next alive: TV comes
    # first and the fidelity uses one temporary.
    tv = tv_energy(g, ctx.alpha, ctx.nu, ctx.eps_tv, grad)
    fit = _fit_energy(g, ctx)
    idiv = idiv_energy(g, ctx.f, ctx.gamma, ctx.g_floor)
    return fit + idiv + tv, fit, idiv, tv


def force(g: np.ndarray, ctx: GContext,
          tv_force: np.ndarray | None = None) -> np.ndarray:
    """Variational derivative of E_g; the exact gradient of `g_energy`.

        F'(g) = 2 (weight*g - target) - gamma*(f-g)/g
                - nu * div(alpha * grad g / sqrt(|grad g|^2 + eps^2))

    `tv_force`, if given, is the last term's nu * div(...) at g (`_tv_force`).
    """
    # The divergence comes first, so that `out` is not alive while it runs.
    if tv_force is None and ctx.nu > 0.0:
        tv_force = _tv_force(tv_gradient(g, ctx.eps_tv), ctx)
    out = ctx.gamma * (1.0 - ctx.f / g) if ctx.gamma > 0.0 else np.zeros_like(g)
    if ctx.weight is not None:
        out += 2.0 * (ctx.weight * g - ctx.target)
    if tv_force is not None:
        out -= tv_force
    return out


def rmsav_step(g: np.ndarray, z: float, ctx: GContext, e_cur: float,
               tv_force: np.ndarray | None, outer: int, inner: int) -> StepResult:
    """One relaxed-SAV step of the g gradient flow from `g`, whose energy E_g
    is `e_cur` and the TV part of whose force is `tv_force` (`_tv_force`;
    `force` makes it when None). The result carries both for `g_next`. The
    positivity floor is applied after the update, and the G-functional is
    that of the pre-floor displacement. `outer` and `inner` locate a failure.
    """
    if z <= 0.0:
        raise NumericalFailure(f"auxiliary variable must stay positive, got {z}",
                               outer, inner)
    m = force(g, ctx, tv_force)
    m /= np.sqrt(e_cur + ctx.shift)
    m_hat = solve_implicit(m, ctx.symbol)
    ip = inner_product(m, m_hat)
    del m
    z_tilde = z / (1.0 + 0.5 * ctx.dt * ip)
    g_val = ctx.dt * z_tilde * z_tilde * ip
    # g_next = g - dt * z_tilde * m_hat, built in the buffer of m_hat
    g_next = m_hat
    g_next *= -ctx.dt * z_tilde
    g_next += g
    floored = bool(g_next.min() < ctx.g_floor)
    np.maximum(g_next, ctx.g_floor, out=g_next)
    e_next, fit, idiv, tv, tv_next = _evaluate(g_next, ctx)
    if not (np.isfinite(e_next) and np.isfinite(z_tilde) and np.isfinite(g_val)):
        raise NumericalFailure("non-finite value in SAV step", outer, inner)
    xi = relaxation_coefficient(z_tilde, z, e_next, g_val, ctx.shift, ctx.eta,
                                outer, inner)
    z_next = xi * z_tilde + (1.0 - xi) * np.sqrt(e_next + ctx.shift)
    return StepResult(g_next=g_next, z_tilde=float(z_tilde), z_next=float(z_next),
                      xi=float(xi), g_val=float(g_val), e_next=float(e_next),
                      fit=float(fit), idiv=float(idiv), tv=float(tv),
                      floored=floored, tv_force=tv_next)


def relaxation_coefficient(z_tilde: float, z_prev: float, e_next: float,
                           g_val: float, shift: float, eta: float,
                           outer: int, inner: int) -> float:
    """Smallest xi in [0, 1] satisfying the relaxation constraint

        q*xi^2 + d*xi + h <= 0,
        q = (z_tilde - r)^2,  d = 2*(z_tilde - r)*r,
        h = r^2 - z_tilde^2 - (z_tilde - z_prev)^2 - eta*G,  r = sqrt(E+shift),

    i.e. xi = max{0, (-d - sqrt(d^2 - 4qh)) / (2q)}. xi = 1 is always
    feasible, so a significantly negative discriminant indicates a numerical
    fault and raises; `outer` and `inner` locate it.
    """
    if e_next + shift <= 0.0:
        raise NumericalFailure("energy fell below -shift; the shift is too small",
                               outer, inner)
    r = np.sqrt(e_next + shift)
    q = (z_tilde - r) ** 2
    d = 2.0 * (z_tilde - r) * r
    h = e_next + shift - z_tilde**2 - (z_tilde - z_prev)**2 - eta * g_val
    if q > 1e-14:
        disc = d * d - 4.0 * q * h
        if disc < 0.0:
            scale = max(d * d, abs(4.0 * q * h), 1.0)
            if disc < -1e-8 * scale:
                raise NumericalFailure(
                    f"relaxation discriminant {disc:.3e} negative beyond roundoff",
                    outer, inner)
            disc = 0.0
        xi = (-d - np.sqrt(disc)) / (2.0 * q)
        xi = max(0.0, xi)
    elif h <= 0.0:
        xi = 0.0
    elif d < 0.0:
        xi = h / -d
    else:
        # q ~ 0, d >= 0, h > 0 is pure roundoff; xi = 1 is feasible exactly.
        xi = 1.0
    return float(min(1.0, xi))


def update_image(g: np.ndarray, ctx: GContext, run: FlowRun, params: ModelParams,
                 outer: int) -> tuple[np.ndarray, list[InnerRecord], bool]:
    """Run the RMSAV inner loop of `ctx` from `g` until the relative energy
    change drops to tol2 (or max_inner is hit, which sets the warning flag).
    `run` carries the hand-off between flows: its `entry` must belong to `g`.
    `outer` numbers the records and locates a failure.
    """
    g = np.asarray(g, dtype=np.float64)
    if run.entry is None:
        e_cur, _, idiv, tv, tv_force = _evaluate(g, ctx)
    else:       # the same sum as g_energy's, with idiv and tv of the same g
        tv_force, idiv, tv = run.entry
        e_cur = _fit_energy(g, ctx) + idiv + tv
    run.entry = None
    z = float(np.sqrt(e_cur + ctx.shift))
    records: list[InnerRecord] = []
    err2 = np.inf
    while err2 > params.tol2 and len(records) < params.max_inner:
        step = rmsav_step(g, z, ctx, e_cur, tv_force, outer, len(records))
        err2 = abs(step.e_next - e_cur) / max(abs(step.e_next), np.finfo(float).tiny)
        records.append(InnerRecord(
            outer=outer, inner=len(records), energy=step.e_next,
            fit=step.fit, idiv=step.idiv, tv=step.tv,
            z=step.z_next, z_tilde=step.z_tilde, xi=step.xi,
            g_val=step.g_val, err2=float(err2), floored=step.floored))
        g, e_cur, tv_force, z = step.g_next, step.e_next, step.tv_force, step.z_next
        idiv, tv = step.idiv, step.tv
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
    for i, (lam, e, p) in enumerate(zip(lambdas, e_fields, potentials)):
        cost = phi if i else least
        np.multiply(lam, e, out=cost)
        cost += pref * p
        np.maximum(cost, 0.0, out=cost)
        if i:
            np.copyto(labels, i, where=cost < least)
            np.minimum(least, cost, out=least)
    return IndicatorSet.from_labels(labels, len(e_fields))


# --------------------------------------------------------------------------
# full alternating loop

def segment(f: np.ndarray, init: IndicatorSet, params: ModelParams,
            progress=None) -> tuple[SegState, IterationLog]:
    """Alternate mean, bias, smooth-image and partition updates until the
    partition stops changing (err1 <= tol1) or max_outer is reached.

    Intensities are divided by `params.intensity_scale` for the run (the
    default weights balance the fitting and denoising forces at unit scale)
    and the returned means and smooth image are scaled back to input units.
    `progress`, if given, is called with each OuterRecord as it is produced;
    logged energies are in normalized units.
    """
    params.validate()
    if any(l <= 0 for l in params.lambdas):
        raise ValueError("segmentation requires strictly positive lambda weights")
    f = as_field(f)
    if f.min() < 0:
        raise ValueError("input image must be nonnegative")
    if init.shape != f.shape or init.n != params.n_phases:
        raise ValueError(
            f"init partition {init.n}x{init.shape} does not match "
            f"{params.n_phases} phases on image {f.shape}")
    f = f / params.intensity_scale

    run = FlowRun.start(f, params)
    fit_kernel = gaussian_kernel(params.rho)
    time_px = params.heat_time_pixels(f.shape)
    length_kernel = heat_kernel_pixels(time_px)

    state = SegState(
        c=np.zeros(params.n_phases),
        b=np.ones_like(f),
        g=np.maximum(f, params.g_floor),
        u=init,
    )
    # K*b, K*b^2 change only with the bias; the length potentials only with u.
    fields = fit_fields(state.b, fit_kernel)
    potentials = length_potentials(state.u, length_kernel)

    log = IterationLog(header={
        "n_phases": params.n_phases, **asdict(params),
        "dt_effective": params.time_step,
        "heat_time_pixels": time_px,
        "energy_shift": run.ctx.shift,
    })

    err1 = np.inf
    k = 0
    while err1 > params.tol1 and k < params.max_outer:
        flags: list[str] = []
        state.c, mean_flags = update_means(state, fields)
        flags += mean_flags
        if not params.freeze_bias:
            state.b = update_bias(state, params, fit_kernel)
            fields = fit_fields(state.b, fit_kernel)
        state.g, inner_records, hit_cap = update_image(
            state.g, build_g_context(state, params, fields, run), run, params, k)
        log.inners.extend(inner_records)
        if hit_cap:
            flags.append(f"inner loop hit max_inner={params.max_inner}")
        idiv, tv = run.entry[1:]    # of state.g; binds no second ref to its TV force

        e_fields = residual_fields(state.g, state.c, fields)
        eu_before = (fit_term(e_fields, state.u, params.lambdas)
                     + length_term(state.u, potentials, params.mu, time_px))
        u_new = threshold(e_fields, potentials, params.lambdas, params.mu, time_px)
        fit_new = fit_term(e_fields, u_new, params.lambdas)
        del e_fields, potentials     # one n-stack, the new potentials, lives across the flow
        potentials = length_potentials(u_new, length_kernel)
        len_new = length_term(u_new, potentials, params.mu, time_px)
        eu_after = fit_new + len_new

        err1 = u_new.distance(state.u)
        state.u = u_new

        breakdown = EnergyBreakdown.build(fit=fit_new, length=len_new, idiv=idiv, tv=tv)
        record = OuterRecord(outer=k, energy=breakdown,
                             eu_before=float(eu_before), eu_after=float(eu_after),
                             err1=float(err1), flags=tuple(flags))
        log.outers.append(record)
        log.warnings.extend(msg for msg in mean_flags if msg not in log.warnings)
        if progress is not None:
            progress(record)
        k += 1

    if err1 > params.tol1:
        log.warnings.append(f"stopped at max_outer={params.max_outer} "
                            f"with err1={err1:.3e} > tol1={params.tol1}")
    state.c = state.c * params.intensity_scale
    state.g = state.g * params.intensity_scale
    return state, log
