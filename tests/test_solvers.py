"""Subproblem solver tests: exact minimizers, the relaxed-SAV energy laws,
and the thresholding step."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from ictmseg.energy import (
    IndicatorSet,
    ModelParams,
    SegState,
    fit_fields,
    gray_indicator,
    idiv_energy,
    tv_energy,
)
from ictmseg.errors import DegenerateInputError, NumericalFailure
from ictmseg.field import (biharmonic, convolve, gaussian_kernel, heat_kernel_pixels,
                           inner_product)
from ictmseg.noise import sample_gamma_field
from ictmseg.solve import (
    FlowRun,
    build_g_context,
    energy_shift,
    fidelity_lower_bound,
    force,
    g_energy,
    relaxation_coefficient,
    rmsav_step,
    segment,
    threshold,
    update_bias,
    update_image,
    update_means,
)
from oracles import (bias_direct, copy_state, fit_residual, fitting_energy, float_masks,
                     from_masks, means_direct, phi_direct, rmsav_step_reference,
                     run_inputs, stencil, threshold_fields, two_phase)

rng = np.random.default_rng(777)



def random_instance(n=8):
    mask = (rng.random((n, n)) > 0.5).astype(float)
    return SegState(
        c=np.array([1.0 + rng.random(), 3.0 + rng.random()]),
        b=rng.random((n, n)) + 0.5,
        g=rng.random((n, n)) * 5 + 0.5,
        u=two_phase(mask),
    )


# --------------------------------------------------------------- mean update

def test_update_means_constants_pass_through():
    n = 10
    u = two_phase(np.ones((n, n)))
    state = SegState(c=np.zeros(2), b=np.ones((n, n)),
                     g=np.full((n, n), 5.0), u=u)
    c, flags = update_means(state, fit_fields(state.b, gaussian_kernel(ModelParams().rho)))
    assert c[0] == pytest.approx(5.0, rel=1e-12)
    assert any("phase 1" in f for f in flags)  # empty phase keeps previous
    assert c[1] == 0.0


def test_update_means_constant_bias_scales():
    n = 10
    u = two_phase(np.ones((n, n)))
    state = SegState(c=np.zeros(2), b=np.full((n, n), 2.0),
                     g=np.full((n, n), 5.0), u=u)
    c, _ = update_means(state, fit_fields(state.b, gaussian_kernel(ModelParams().rho)))
    assert c[0] == pytest.approx(2.5, rel=1e-12)  # (5*2) / (2^2)


def test_update_means_matches_direct_quotient():
    state = random_instance()
    k = gaussian_kernel(1.2)
    c, _ = update_means(state, fit_fields(state.b, k))
    for i in range(2):
        ref = means_direct(float_masks(state.u)[i], state.g, state.b, stencil(k))
        assert c[i] == pytest.approx(ref, abs=1e-10, rel=1e-10)


def test_update_means_is_stationary():
    params = ModelParams()
    k = gaussian_kernel(params.rho)
    for _ in range(20):
        state = random_instance(16)
        c, _ = update_means(state, fit_fields(state.b, k))
        state.c = c
        base = fitting_energy(state, params, k)
        for i in range(2):
            for delta in (1e-3, -1e-3):
                trial = copy_state(state)
                trial.c = c.copy()
                trial.c[i] += delta
                assert fitting_energy(trial, params, k) >= base - 1e-9 * max(1, base)


# --------------------------------------------------------------- bias update

def test_update_bias_recovers_constant():
    n = 10
    masks = np.zeros((2, n, n))
    masks[0] = 1.0
    state = SegState(c=np.array([1.0, 0.0]), b=np.ones((n, n)),
                     g=np.full((n, n), 7.0), u=from_masks(masks))
    params = ModelParams()
    b = update_bias(state, params, gaussian_kernel(params.rho))
    assert np.allclose(b, 7.0, atol=1e-10)


def test_update_bias_recovers_smooth_field():
    n = 24
    yy, xx = np.mgrid[0:n, 0:n].astype(float)
    b_true = 1.0 + 0.5 * np.sin(xx / 8.0) * np.cos(yy / 9.0)
    masks = np.zeros((2, n, n))
    masks[0] = 1.0
    c1 = 3.0
    state = SegState(c=np.array([c1, 0.0]), b=np.ones((n, n)),
                     g=c1 * b_true, u=from_masks(masks))
    k = gaussian_kernel(3.0)
    b = update_bias(state, ModelParams(), k)
    ref = convolve(b_true, k) / convolve(np.ones((n, n)), k)
    assert np.abs(b - ref).max() < 1e-10


def multiphase_instance(n_phases, size=8, seed=0):
    r = np.random.default_rng(seed)
    return SegState(
        c=1.0 + 3.0 * r.random(n_phases),
        b=r.random((size, size)) + 0.5,
        g=r.random((size, size)) * 5 + 0.5,
        u=IndicatorSet.from_labels(r.integers(0, n_phases, (size, size)), n_phases),
    ), tuple(0.5 + r.random(n_phases))


@pytest.mark.parametrize("n_phases", [2, 3, 4])
def test_update_bias_matches_direct_quotient(n_phases):
    # two convolutions of phase-weighted sums against 2n direct ones
    state, lambdas = multiphase_instance(n_phases, seed=n_phases)
    state.c[1] = 0.0   # a zero-mean phase drops out of both sums
    k = gaussian_kernel(1.2)
    params = ModelParams(lambdas=lambdas, rho=1.2)
    b = update_bias(state, params, k)
    ref = bias_direct(float_masks(state.u), state.g, state.c,
                      np.array(params.lambdas), stencil(k))
    assert np.abs(b - ref).max() < 1e-10


def test_update_bias_rejects_all_zero_means():
    state = random_instance()
    state.c = np.zeros(2)
    with pytest.raises(DegenerateInputError):
        update_bias(state, ModelParams(), gaussian_kernel(ModelParams().rho))


def test_update_bias_is_stationary():
    params = ModelParams()
    k = gaussian_kernel(params.rho)
    for _ in range(20):
        state = random_instance(16)
        state.b = update_bias(state, params, k)
        base = fitting_energy(state, params, k)
        trial = copy_state(state)
        trial.b = state.b + 1e-3 * (rng.random(state.b.shape) - 0.5)
        assert fitting_energy(trial, params, k) >= base - 1e-9 * max(1, base)


# ------------------------------------------------------------- force / energy

def make_context(state, f, params):
    return build_g_context(state, params, *run_inputs(state, f, params))


def image_flow(state, f, params):
    """`update_image` from `state.g`, as the first flow of a `segment` run."""
    fields, run = run_inputs(state, f, params)
    return update_image(state.g, build_g_context(state, params, fields, run), run, params, 0)


def test_force_zero_at_perfect_fit():
    n = 8
    u = two_phase(np.ones((n, n)))
    g = np.full((n, n), 4.0)
    state = SegState(c=np.array([4.0, 0.0]), b=np.ones((n, n)), g=g, u=u)
    params = ModelParams(gamma=0.0, nu=0.0)
    ctx = make_context(state, g, params)
    assert np.abs(force(g, ctx)).max() < 1e-10


def test_force_zero_at_idiv_stationary_point():
    n = 8
    f = rng.random((n, n)) * 10 + 1
    params = ModelParams(gamma=0.7, nu=0.0)
    ctx = FlowRun.start(f, params).ctx
    assert np.abs(force(f, ctx)).max() < 1e-12


def test_force_is_exact_gradient_of_energy():
    n = 16
    state = random_instance(n)
    f = rng.random((n, n)) * 5 + 1
    params = ModelParams(gamma=0.3, nu=0.8)
    ctx = make_context(state, f, params)
    g = rng.random((n, n)) * 4 + 2
    grad = force(g, ctx)
    t = 1e-5
    for _ in range(10):
        delta = rng.standard_normal((n, n))
        fd = (g_energy(g + t * delta, ctx)[0] - g_energy(g - t * delta, ctx)[0]) / (2 * t)
        analytic = inner_product(grad, delta)
        assert abs(fd - analytic) / max(1.0, abs(fd)) < 1e-4


# ----------------------------------------------------------------- SAV steps

def noisy_context(n=16, gamma=0.1, nu=1.0, dt=0.1):
    clean = np.full((n, n), 80.0)
    clean[n // 4: 3 * n // 4, n // 4: 3 * n // 4] = 180.0
    eta = sample_gamma_field(n, n, 10.0, seed=5)
    f = clean * eta
    mask = (clean > 100).astype(float)
    state = SegState(c=np.zeros(2), b=np.ones((n, n)),
                     g=np.maximum(f, 1e-3), u=two_phase(mask))
    params = ModelParams(gamma=gamma, nu=nu, dt=dt)
    state.c, _ = update_means(state, fit_fields(state.b, gaussian_kernel(params.rho)))
    ctx = make_context(state, f, params)
    return state.g.copy(), ctx


def test_rmsav_step_fixed_point():
    n = 8
    g = np.full((n, n), 4.0)
    u = two_phase(np.ones((n, n)))
    state = SegState(c=np.array([4.0, 0.0]), b=np.ones((n, n)), g=g, u=u)
    params = ModelParams(gamma=0.0, nu=0.0)
    ctx = make_context(state, g, params)
    e0 = g_energy(g, ctx)[0]
    z0 = float(np.sqrt(e0 + ctx.shift))
    step = rmsav_step(g, z0, ctx, e0, None, 0, 0)
    assert np.abs(step.g_next - g).max() < 1e-12
    assert step.z_tilde == pytest.approx(z0, rel=1e-12)
    assert step.z_next == pytest.approx(z0, rel=1e-12)
    assert step.e_next == pytest.approx(e0, rel=1e-12)


def test_rmsav_inner_product_identity():
    # G = -2*z_tilde^2 + 2*z_tilde*z holds exactly by construction
    g, ctx = noisy_context()
    z = float(np.sqrt(g_energy(g, ctx)[0] + ctx.shift))
    for j in range(20):
        step = rmsav_step(g, z, ctx, g_energy(g, ctx)[0], None, 0, j)
        assert not step.floored
        ident = -2.0 * step.z_tilde**2 + 2.0 * step.z_tilde * z
        scale = max(abs(step.g_val), abs(ident), 1e-12)
        assert abs(step.g_val - ident) / scale < 1e-8
        g, z = step.g_next, step.z_next


def test_rmsav_stability_law():
    # z^2 never increases, and the decrease is at least (1-eta)*G
    g, ctx = noisy_context()
    z = float(np.sqrt(g_energy(g, ctx)[0] + ctx.shift))
    for j in range(30):
        step = rmsav_step(g, z, ctx, g_energy(g, ctx)[0], None, 0, j)
        assert not step.floored
        dz2 = (step.z_next - z) * (step.z_next + z)
        assert dz2 <= 1e-10
        slack = dz2 + (1.0 - ctx.eta) * step.g_val
        assert slack <= 1e-8 * max(1.0, z * z)
        if step.xi > 0.0:
            # the relaxation constraint is active: equality holds
            assert abs(slack) <= 1e-6 * max(1.0, z * z)
        g, z = step.g_next, step.z_next


def test_rmsav_energy_decreases_on_noisy_field():
    g, ctx = noisy_context()
    e = g_energy(g, ctx)[0]
    z = float(np.sqrt(e + ctx.shift))
    for j in range(30):
        step = rmsav_step(g, z, ctx, e, None, 0, j)
        g, z, e_new = step.g_next, step.z_next, step.e_next
        assert e_new <= e + 1e-8 * max(1.0, abs(e))
        e = e_new


def test_rmsav_g_val_matches_definition():
    # the step evaluates G = dt*z_tilde^2*<m, m_hat>; recompute it from the
    # definition (1/dt) <delta, (I + dt*Lap^2) delta>, delta = g_next - g
    g, ctx = noisy_context()
    z = float(np.sqrt(g_energy(g, ctx)[0] + ctx.shift))
    for j in range(30):
        step = rmsav_step(g, z, ctx, g_energy(g, ctx)[0], None, 0, j)
        assert not step.floored
        delta = step.g_next - g
        g_def = (inner_product(delta, delta)
                 + ctx.dt * inner_product(delta, biharmonic(delta))) / ctx.dt
        assert g_def > 0.0
        assert abs(step.g_val - g_def) / g_def < 1e-8
        g, z = step.g_next, step.z_next


def unit_scale_context(near_floor: bool, n=32):
    """A Gamma-noisy two-phase scene at unit scale; with `near_floor` the
    dark phase sits just above g_floor, so the flow hits the floor."""
    clean = np.full((n, n), 0.75)
    clean[n // 4: 3 * n // 4, n // 4: 3 * n // 4] = 2e-3 if near_floor else 0.25
    f = clean * sample_gamma_field(n, n, 4.0, seed=11)
    mask = (clean < 0.5).astype(float)
    state = SegState(c=np.zeros(2), b=np.ones((n, n)),
                     g=np.maximum(f, 1e-3), u=two_phase(mask))
    params = ModelParams(gamma=0.1, nu=1.0, dt=0.1)
    state.c, _ = update_means(state, fit_fields(state.b, gaussian_kernel(params.rho)))
    return state.g.copy(), make_context(state, f, params)


@pytest.mark.parametrize("near_floor", [False, True])
def test_rmsav_step_matches_reference(near_floor):
    # the fused step (energy and TV force term handed forward, closed-form G,
    # in-place update and floor) follows the unfused reference step
    g, ctx = unit_scale_context(near_floor)
    e = g_energy(g, ctx)[0]
    z = float(np.sqrt(e + ctx.shift))
    g_ref, z_ref, e_ref = g.copy(), z, e
    tv_force = None
    floored = 0
    for j in range(50):
        step = rmsav_step(g, z, ctx, e, tv_force, 0, j)
        ref = rmsav_step_reference(g_ref, z_ref, ctx, e_cur=e_ref)
        assert step.floored == ref.floored
        floored += step.floored
        assert np.abs(step.g_next - ref.g_next).max() < 1e-10
        for name in ("z_next", "xi", "e_next", "g_val"):
            a, b = getattr(step, name), getattr(ref, name)
            assert abs(a - b) <= 1e-10 * max(abs(b), 1e-300), name
        g, z, e, tv_force = step.g_next, step.z_next, step.e_next, step.tv_force
        g_ref, z_ref, e_ref = ref.g_next, ref.z_next, ref.e_next
    assert (floored > 0) == near_floor
    assert g.min() >= ctx.g_floor


def test_rmsav_operator_budget(monkeypatch):
    # K steps of the flow: K implicit solves, no biharmonic, and K + 1 TV
    # gradients (one per iterate, the entry energy's included)
    import ictmseg.energy
    import ictmseg.field
    import ictmseg.solve

    counts = {"gradient": 0, "biharmonic": 0, "solve_implicit": 0}

    def counting(name):
        fn = getattr(ictmseg.field, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in counts:
        wrapped = counting(name)
        for module in (ictmseg.solve, ictmseg.energy):
            monkeypatch.setattr(module, name, wrapped, raising=False)
    steps = 7
    state = random_instance(16)
    f = state.g.copy()
    params = ModelParams(tol2=0.0, max_inner=steps)
    _, records, _ = image_flow(state, f, params)
    assert len(records) == steps
    assert counts == {"gradient": steps + 1, "biharmonic": 0, "solve_implicit": steps}


def test_segment_computes_energy_shift_once(monkeypatch):
    # the shift of z = sqrt(E_g + shift) is a constant of the run: one
    # fidelity lower bound for the log header and every image flow
    import ictmseg.solve

    calls = []

    def counting(*args):
        calls.append(1)
        return fidelity_lower_bound(*args)

    monkeypatch.setattr(ictmseg.solve, "fidelity_lower_bound", counting)
    n = 16
    f = np.full((n, n), 60.0)
    f[4:12, 4:12] = 190.0
    init = np.zeros((n, n))
    init[2:10, 2:10] = 1.0
    _, log = segment(f, two_phase(init), ModelParams(max_outer=3))
    assert len(log.outers) >= 2
    assert len(calls) == 1
    assert log.header["energy_shift"] == energy_shift(f / 255.0, ModelParams())


def test_segment_outer_record_reuses_last_flow_step(monkeypatch):
    # one outer iteration of k flow steps makes k + 1 TV gradients (the flow's
    # entry energy and one per step): the record's idiv and tv are those the
    # last step computed for the same g
    import ictmseg.energy
    import ictmseg.field

    calls = []

    def counting(field):
        calls.append(1)
        return ictmseg.field.gradient(field)

    monkeypatch.setattr(ictmseg.energy, "gradient", counting)
    n, steps = 16, 4
    f = np.full((n, n), 60.0)
    f[4:12, 4:12] = 190.0
    f = f * sample_gamma_field(n, n, 10.0, seed=5)
    init = np.zeros((n, n))
    init[2:10, 2:10] = 1.0
    params = ModelParams(max_outer=1, max_inner=steps, tol2=0.0)
    _, log = segment(f, two_phase(init), params)
    assert len(log.inners) == steps and len(calls) == steps + 1
    last, rec = log.inners[-1], log.outers[0].energy
    assert (rec.idiv, rec.tv) == (last.idiv, last.tv)
    # with no flow step the record evaluates both terms at the unchanged g
    params = ModelParams(max_outer=1, max_inner=0)
    _, log = segment(f, two_phase(init), params)
    g = np.maximum(f / params.intensity_scale, params.g_floor)
    alpha = gray_indicator(f / params.intensity_scale, params.sigma, params.p)
    rec = log.outers[0].energy
    assert rec.idiv == idiv_energy(g, f / params.intensity_scale, params.gamma,
                                   params.g_floor)
    assert rec.tv == tv_energy(g, alpha, params.nu, params.eps_tv)


def test_segment_flows_start_from_last_step(monkeypatch):
    # each flow after the first starts from the TV force term, fidelity and
    # TV that the previous flow's last step made from its TV gradient, and the
    # implicit symbol is a constant of the run: 3 outer iterations of k steps
    # make 3k + 1 TV gradients
    import ictmseg.energy
    import ictmseg.field
    import ictmseg.solve

    counts = {"gradient": 0, "implicit_symbol": 0}

    def counting(module, name):
        fn = getattr(ictmseg.field, name)

        def call(*args):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, call)

    counting(ictmseg.energy, "gradient")
    counting(ictmseg.solve, "implicit_symbol")
    n, steps = 32, 2
    f = np.full((n, n), 60.0)
    f[4:14, 4:28] = 190.0
    f[18:28, 8:24] = 120.0
    f = f * sample_gamma_field(n, n, 10.0, seed=3)
    labels = np.zeros((n, n), dtype=np.int64)
    labels[n // 2:, :] = 1
    labels[:, n // 2:] = 2
    params = ModelParams(lambdas=(1.0,) * 3, max_outer=3, tol1=0.0, tol2=0.0,
                         max_inner=steps)
    _, log = segment(f, IndicatorSet.from_labels(labels, 3), params)
    assert len(log.outers) == 3 and len(log.inners) == 3 * steps
    assert counts == {"gradient": 3 * steps + 1, "implicit_symbol": 1}


def test_segment_pinned_three_phase_output():
    # A fixed three-phase run whose label map and iteration counts were
    # recorded before the flows reused the previous flow's last step, the
    # threshold formed its costs in its scan and the convolutions scaled
    # their spectra in place: none of these may change what the solver finds.
    n = 64
    yy, xx = np.mgrid[0:n, 0:n]
    clean = np.full((n, n), 100.0)
    clean[8:28, 6:40] = 30.0
    clean[(yy - 44) ** 2 + (xx - 40) ** 2 <= 14 ** 2] = 200.0
    bias = 0.9 + 0.2 * xx / (n - 1)
    f = np.clip(clean * bias * sample_gamma_field(n, n, 10.0, seed=11), 0.0, 255.0)
    labels = np.zeros((n, n), dtype=np.int64)
    labels[11:25, 9:37] = 1
    labels[(yy - 44) ** 2 + (xx - 40) ** 2 <= 10 ** 2] = 2
    params = ModelParams(lambdas=(1.0,) * 3, tau=8.0, tau_in_pixels=True, max_outer=40)
    state, log = segment(f, IndicatorSet.from_labels(labels, 3), params)
    digest = hashlib.sha256(state.u.labels().astype(np.uint8).tobytes()).hexdigest()
    assert (len(log.outers), len(log.inners)) == (40, 93)
    assert digest == "9d688a2a846e46eaef1bf65141ac5e2a7c48a8020718a251beeb867cffa6c990"


def test_zero_fit_context_matches_zero_fit_arrays():
    # the run's context holds no fit arrays and reads no partition or bias;
    # the flow is bit-identical to one whose weight and target are zero fields
    n = 16
    f = rng.random((n, n)) * 5 + 0.5
    params = ModelParams(gamma=0.3)
    ctx = FlowRun.start(f, params).ctx
    assert ctx.weight is None and ctx.target is None and ctx.fit_const == 0.0
    zeros = dataclasses.replace(ctx, weight=np.zeros((n, n)), target=np.zeros((n, n)))
    assert np.array_equal(force(f, ctx), force(f, zeros))
    assert g_energy(f, ctx) == g_energy(f, zeros)
    runs = []
    for c in (ctx, zeros):
        g, e = f.copy(), g_energy(f, c)[0]
        z = float(np.sqrt(e + c.shift))
        for j in range(5):
            step = rmsav_step(g, z, c, e, None, 0, j)
            g, z, e = step.g_next, step.z_next, step.e_next
        runs.append((g, z, e))
    assert np.array_equal(runs[0][0], runs[1][0]) and runs[0][1:] == runs[1][1:]


def test_segment_peak_memory_in_arrays():
    # Peak of the memory one `segment` call allocates, in H x W float64
    # arrays. The partition is one label map, the residual stack is released
    # before the next flow, the init is shared, not copied, and a flow step
    # hands on one TV force field, not its three-field gradient: 22.9-23.1
    # arrays on this scene, with pairs of convolutions overlapping on helper
    # threads, against 28.5 when the partition was n float64 masks.
    n = 64
    clean = np.full((n, n), 60.0)
    clean[n // 8:n // 2, n // 8:7 * n // 8] = 190.0
    clean[5 * n // 8:7 * n // 8, n // 4:3 * n // 4] = 120.0
    f = np.clip(clean * sample_gamma_field(n, n, 10.0, seed=3), 0.0, 255.0)
    labels = np.zeros((n, n), dtype=np.int64)
    labels[n // 2:, :] = 1
    labels[:, n // 2:] = 2
    init = IndicatorSet.from_labels(labels, 3)
    params = ModelParams(lambdas=(1.0,) * 3, max_outer=3)
    segment(f, init, params)       # first calls may allocate lasting caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, log = segment(f, init, params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(log.outers) == 3
    assert peak / (8 * n * n) <= 25.5


# ------------------------------------------------------------- relaxation xi

def test_relaxation_coefficient_degenerate_branch():
    # z_tilde equals the new energy root exactly and h <= 0
    assert relaxation_coefficient(2.0, 2.0, 3.0, 0.0, shift=1.0, eta=0.99,
                                  outer=0, inner=0) == 0.0


def test_relaxation_coefficient_hand_quadratic():
    # z_tilde=0, z_prev=1, E_next=0, G=0, C0=1: q=1, d=-2, h=0 -> xi = 0
    assert relaxation_coefficient(0.0, 1.0, 0.0, 0.0, shift=1.0, eta=0.99,
                                  outer=0, inner=0) == 0.0


@pytest.mark.parametrize("e_next, g_val", [(3.0, -10.0), (-2.0, 0.0)],
                         ids=["negative-discriminant", "energy-below-shift"])
def test_relaxation_coefficient_failure_names_iteration(e_next, g_val):
    # a negative G leaves no feasible xi; E + shift <= 0 leaves no root
    with pytest.raises(NumericalFailure) as exc:
        relaxation_coefficient(1.0, 0.5, e_next, g_val, shift=1.0, eta=0.99,
                               outer=4, inner=2)
    assert (exc.value.outer, exc.value.inner) == (4, 2)
    assert "outer iteration 4, inner iteration 2" in str(exc.value)


def test_relaxation_coefficient_membership():
    # for triples generated the way the scheme generates them, the returned
    # xi satisfies q*xi^2 + d*xi + h <= 0 (up to roundoff) and xi in [0, 1]
    for _ in range(200):
        z_prev = float(rng.random() * 10 + 0.1)
        z_tilde = float(z_prev / (1.0 + rng.random() * 2))
        g_val = -2.0 * z_tilde**2 + 2.0 * z_tilde * z_prev
        e_next = float(max(0.0, z_prev**2 * (0.5 + rng.random())) - 1.0)
        xi = relaxation_coefficient(z_tilde, z_prev, e_next, g_val, shift=1.0, eta=0.99,
                                    outer=0, inner=0)
        assert 0.0 <= xi <= 1.0
        r = np.sqrt(e_next + 1.0)
        q = (z_tilde - r) ** 2
        d = 2.0 * (z_tilde - r) * r
        h = e_next + 1.0 - z_tilde**2 - (z_tilde - z_prev) ** 2 - 0.99 * g_val
        val = q * xi * xi + d * xi + h
        assert val <= 1e-10 * max(1.0, abs(h), q, abs(d))


# ------------------------------------------------------------- image update

def test_update_image_single_step_when_tol_huge():
    state = random_instance(12)
    f = state.g.copy()
    params = ModelParams(tol2=1e12)
    _, records, hit_cap = image_flow(state, f, params)
    assert len(records) == 1
    assert not hit_cap


def test_update_image_identity_when_force_vanishes():
    n = 10
    f = rng.random((n, n)) * 10 + 1
    state = SegState(c=np.zeros(2), b=np.ones((n, n)),
                     g=np.maximum(f, 1e-3), u=two_phase(np.ones((n, n))))
    params = ModelParams(gamma=0.0, nu=0.0)
    run = FlowRun.start(f, params)
    g, records, _ = update_image(state.g, run.ctx, run, params, 0)
    assert np.array_equal(g, state.g)
    assert len(records) == 1  # first step confirms convergence


def test_update_image_max_inner_zero_disables_flow():
    state = random_instance(12)
    f = state.g.copy()
    params = ModelParams(max_inner=0)
    g, records, hit_cap = image_flow(state, f, params)
    assert np.array_equal(g, state.g)
    assert records == []
    assert hit_cap


def idiv_distance(reference: np.ndarray, x: np.ndarray) -> float:
    """Bregman divergence of the fidelity: zero iff x == reference."""
    ref = np.maximum(reference, 1e-3)
    x = np.maximum(x, 1e-3)
    return float(np.sum(x - ref * np.log(x)) - np.sum(ref - ref * np.log(ref)))


def test_update_image_denoises_gamma_corruption():
    n = 64
    clean = np.full((n, n), 80.0)
    clean[16:48, 16:48] = 180.0
    eta = sample_gamma_field(n, n, 10.0, seed=21)
    f = clean * eta
    mask = (clean > 100).astype(float)
    state = SegState(c=np.zeros(2), b=np.ones((n, n)),
                     g=np.maximum(f, 1e-3), u=two_phase(mask))
    params = ModelParams(gamma=0.5, nu=2.0)
    state.c, _ = update_means(state, fit_fields(state.b, gaussian_kernel(params.rho)))
    g, records, _ = image_flow(state, f, params)
    assert idiv_distance(clean, g) < idiv_distance(clean, f)
    assert len(records) >= 1


# ------------------------------------------------------------- thresholding

def test_threshold_fields_zero_length_weight():
    state = random_instance()
    params = ModelParams(mu=0.0, lambdas=(2.0, 0.5))
    k = gaussian_kernel(1.0)
    e = np.stack([fit_residual(state.g, state.b, c, k) for c in state.c])
    phis = threshold_fields(e, state.u, params, time_px=3.0)
    assert np.abs(phis[0] - 2.0 * e[0]).max() < 1e-12
    assert np.abs(phis[1] - 0.5 * e[1]).max() < 1e-12


def test_threshold_fields_empty_phase_sees_full_length_cost():
    n = 12
    masks = np.zeros((2, n, n))
    masks[0] = 1.0
    u = from_masks(masks)
    params = ModelParams(mu=1.0, lambdas=(1.0, 1.0))
    e = np.zeros((2, n, n))
    time_px = 2.0
    phis = threshold_fields(e, u, params, time_px)
    pref = 2.0 * np.sqrt(np.pi / time_px)
    # phase 0 competes against nothing; phase 1 pays for all of phase 0
    assert np.abs(phis[0]).max() < 1e-10
    assert np.allclose(phis[1], pref, atol=1e-10)


@pytest.mark.parametrize("n_phases", [2, 3, 4])
def test_threshold_fields_match_direct_oracle(n_phases):
    # n - 1 heat convolutions against the oracle's n(n - 1) direct ones
    state, lambdas = multiphase_instance(n_phases, seed=10 + n_phases)
    params = ModelParams(mu=0.7, lambdas=lambdas)
    time_px = 2.0
    k = heat_kernel_pixels(time_px)
    kf = gaussian_kernel(1.2)
    e = np.stack([fit_residual(state.g, state.b, c, kf) for c in state.c])
    phis = threshold_fields(e, state.u, params, time_px, k)
    ref = phi_direct(e, float_masks(state.u), np.array(params.lambdas),
                     params.mu, time_px, stencil(k))
    assert np.abs(phis - ref).max() < 1e-10
    assert phis.min() >= 0.0


def least_cost(phis: np.ndarray):
    """`threshold` of nonnegative costs held wholly in the fit term."""
    return threshold(phis, np.zeros_like(phis), (1.0,) * len(phis), 0.0, 1.0)


def test_threshold_picks_minimum_and_breaks_ties_low():
    n = 4
    phis = np.stack([np.full((n, n), 0.1), np.full((n, n), 0.2)])
    u = least_cost(phis)
    assert float_masks(u)[0].all() and not float_masks(u)[1].any()
    tie = np.stack([np.full((n, n), 0.3), np.full((n, n), 0.3)])
    assert float_masks(least_cost(tie))[0].all()


def test_threshold_achieves_pointwise_minimum():
    phis = rng.random((3, 9, 9))
    u = least_cost(phis)
    value = sum(inner_product(float_masks(u)[i], phis[i]) for i in range(3))
    best = float(np.sum(phis.min(axis=0)))
    assert value == pytest.approx(best, rel=1e-12)


def test_threshold_scale_invariant():
    phis = rng.random((3, 7, 7))
    a = least_cost(phis).labels()
    b = least_cost(2.5 * phis).labels()
    assert np.array_equal(a, b)


# ------------------------------------------------------------------ segment

def test_segment_noiseless_two_constant_exact():
    n = 64
    clean = np.full((n, n), 50.0)
    clean[12:40, 20:52] = 200.0
    truth = (clean > 100).astype(float)
    init = np.zeros((n, n))
    init[n // 4: 3 * n // 4, n // 4: 3 * n // 4] = 1.0
    params = ModelParams(gamma=0.0, nu=0.0, freeze_bias=True, max_inner=0)
    state, log = segment(clean, two_phase(init), params)
    masks = float_masks(state.u)
    got = masks[0] if masks[0, 20, 30] else masks[1]
    assert np.array_equal(got, truth)
    assert log.outers[-1].err1 <= params.tol1


def test_segment_header_echoes_defaults():
    n = 16
    f = np.full((n, n), 60.0)
    f[4:12, 4:12] = 170.0
    init = np.zeros((n, n))
    init[2:14, 2:14] = 1.0
    params = ModelParams(max_outer=3)
    _, log = segment(f, two_phase(init), params)
    head = log.header
    assert (head["sigma"], head["p"], head["tau"], head["rho"]) == (1.0, 1.3, 0.02, 3.0)
    assert (head["tol1"], head["tol2"]) == (1e-8, 1e-3)
    assert head["eta_relax"] == 0.99
    assert head["heat_time_pixels"] == pytest.approx(0.02 * n * n)


def test_segment_partition_energy_monotone_at_threshold_step():
    n = 48
    clean = np.full((n, n), 70.0)
    clean[8:40, 8:28] = 190.0
    eta = sample_gamma_field(n, n, 10.0, seed=9)
    f = np.clip(clean * eta, 1e-3, 255.0)
    init = np.zeros((n, n))
    init[::8, :] = 1.0
    params = ModelParams(max_outer=25)
    _, log = segment(f, two_phase(init), params)
    assert len(log.outers) >= 2
    for rec in log.outers:
        assert rec.eu_after <= rec.eu_before + 1e-12 * max(1.0, abs(rec.eu_before))


def test_segment_err1_is_l2_of_mask_change():
    # one pixel moving between phases changes two masks: err1 = sqrt(2 * k)
    n = 32
    clean = np.full((n, n), 60.0)
    clean[8:24, 8:24] = 180.0
    init = np.zeros((n, n))
    init[10:22, 10:22] = 1.0
    params = ModelParams(gamma=0.0, nu=0.0, freeze_bias=True, max_outer=2)
    _, log = segment(clean, two_phase(init), params)
    first = log.outers[0]
    changed = first.err1**2 / 2.0
    assert changed == pytest.approx(round(changed), abs=1e-9)


def test_segment_validates_inputs():
    f = np.full((8, 8), 10.0)
    init = two_phase(np.ones((8, 8)))
    with pytest.raises(ValueError):
        segment(-f, init, ModelParams())
    with pytest.raises(ValueError):
        segment(f, init, ModelParams(lambdas=(0.0, 1.0)))
    with pytest.raises(ValueError):
        segment(f, two_phase(np.ones((4, 4))), ModelParams())


def test_segment_reaches_fixed_point_and_stays():
    # rerunning from the converged partition changes nothing
    n = 32
    clean = np.full((n, n), 50.0)
    clean[6:26, 6:20] = 210.0
    init = np.zeros((n, n))
    init[2:30, 2:30] = 1.0
    params = ModelParams(gamma=0.0, nu=0.0, freeze_bias=True)
    state, _ = segment(clean, two_phase(init), params)
    state2, log2 = segment(clean, state.u, params)
    assert np.array_equal(float_masks(state.u), float_masks(state2.u))
    assert len(log2.outers) == 1


# ------------------------------------------------------- convolution budget

@pytest.mark.parametrize("n_phases, freeze_bias", [(2, False), (3, False), (3, True)])
def test_segment_fit_convolution_budget(monkeypatch, n_phases, freeze_bias):
    # One outer iteration makes two fit-kernel convolutions in the bias
    # update plus K*b and K*b^2 after it, and n - 1 heat-kernel convolutions
    # for the length potentials of the new partition; K*1 is never made.
    # Helper threads call `convolve` through the `field` global, so it is
    # patched there too and counted under a lock.
    import threading

    import ictmseg.energy
    import ictmseg.field
    import ictmseg.solve

    n = 32
    f = np.full((n, n), 60.0)
    f[4:14, 4:28] = 190.0
    f[18:28, 8:24] = 120.0
    f = f * sample_gamma_field(n, n, 10.0, seed=3)
    labels = np.zeros((n, n), dtype=np.int64)
    labels[n // 2:, :] = 1
    labels[:, n // 2:] = n_phases - 1
    params = ModelParams(lambdas=(1.0,) * n_phases, max_outer=4, tol1=0.0,
                         freeze_bias=freeze_bias)
    kernels = {"fit": gaussian_kernel(params.rho),
               "heat": heat_kernel_pixels(params.heat_time_pixels(f.shape))}
    counts = [{"fit": 0, "heat": 0}]
    lock = threading.Lock()

    def counting(field, kernel):
        for name, ref in kernels.items():
            if kernel.radius == ref.radius and np.array_equal(kernel.profile, ref.profile):
                with lock:
                    counts[-1][name] += 1
        return convolve(field, kernel)

    for module in (ictmseg.field, ictmseg.energy, ictmseg.solve):
        monkeypatch.setattr(module, "convolve", counting, raising=False)
    _, log = segment(f, IndicatorSet.from_labels(labels, n_phases), params,
                     progress=lambda rec: counts.append({"fit": 0, "heat": 0}))
    budget = {"fit": 0 if freeze_bias else 4, "heat": n_phases - 1}
    assert len(log.outers) >= 3
    # K*b, K*b^2 and the first partition's potentials before the loop
    assert counts[0] == {"fit": 2 + budget["fit"], "heat": 2 * budget["heat"]}
    assert counts[1:-1] == [budget] * (len(log.outers) - 1)
    assert counts[-1] == {"fit": 0, "heat": 0}
