"""Subproblem solver tests: exact minimizers, the relaxed-SAV energy laws,
and the thresholding step."""

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ictmseg.energy import (
    IndicatorSet,
    ModelParams,
    SegState,
    fit_term,
    gray_indicator,
    idiv_energy,
    length_potentials,
    length_term,
    tv_energy,
    tv_gradient,
)
from ictmseg.errors import NumericalFailure
from ictmseg.field import (biharmonic, convolve, gaussian_kernel, heat_kernel_pixels,
                           inner_product, on_helper)
from ictmseg.noise import sample_gamma_field
from ictmseg.solve import (
    FlowRun,
    IterationLog,
    StepResult,
    build_g_context,
    energy_shift,
    evaluate,
    force,
    relaxation_coefficient,
    rmsav_step,
    segment,
    threshold,
    update_bias,
    update_image,
    update_means,
)
from oracles import (bias_direct, copy_state, fit_constant, fit_fields, fit_residual,
                     fitting_energy, float_masks, from_masks, g_context, means_direct,
                     phi_direct, relaxation_quadratic_root, rmsav_step_reference, run_inputs,
                     stencil, threshold_fields, two_phase)

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
    c, flags = update_means(state, *fit_fields(state.b, gaussian_kernel(ModelParams().rho)))
    assert c[0] == pytest.approx(5.0, rel=1e-12)
    assert any("phase 1" in f for f in flags)  # empty phase keeps previous
    assert c[1] == 0.0


def test_update_means_constant_bias_scales():
    n = 10
    u = two_phase(np.ones((n, n)))
    state = SegState(c=np.zeros(2), b=np.full((n, n), 2.0),
                     g=np.full((n, n), 5.0), u=u)
    c, _ = update_means(state, *fit_fields(state.b, gaussian_kernel(ModelParams().rho)))
    assert c[0] == pytest.approx(2.5, rel=1e-12)  # (5*2) / (2^2)


def test_update_means_matches_direct_quotient():
    state = random_instance()
    k = gaussian_kernel(1.2)
    c, _ = update_means(state, *fit_fields(state.b, k))
    for i in range(2):
        ref = means_direct(float_masks(state.u)[i], state.g, state.b, stencil(k))
        assert c[i] == pytest.approx(ref, abs=1e-10, rel=1e-10)


def test_update_means_is_stationary():
    params = ModelParams()
    k = gaussian_kernel(params.rho)
    for _ in range(20):
        state = random_instance(16)
        c, _ = update_means(state, *fit_fields(state.b, k))
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
    b, _ = update_bias(state, params, gaussian_kernel(params.rho))
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
    b, _ = update_bias(state, ModelParams(), k)
    ref = convolve(b_true, k) / convolve(np.ones((n, n)), k)
    assert np.abs(b - ref).max() < 1e-10


def multiphase_instance(n_phases, size=8, seed=0):
    r = np.random.default_rng(seed)
    return SegState(
        c=1.0 + 3.0 * r.random(n_phases),
        b=r.random((size, size)) + 0.5,
        g=r.random((size, size)) * 5 + 0.5,
        u=IndicatorSet(r.integers(0, n_phases, (size, size)), n_phases),
    ), tuple(0.5 + r.random(n_phases))


@pytest.mark.parametrize("n_phases", [2, 3, 4])
def test_update_bias_matches_direct_quotient(n_phases):
    # two convolutions of phase-weighted sums against 2n direct ones
    state, lambdas = multiphase_instance(n_phases, seed=n_phases)
    state.c[1] = 0.0   # a zero-mean phase drops out of both sums
    k = gaussian_kernel(1.2)
    params = ModelParams(lambdas=lambdas, rho=1.2)
    b, _ = update_bias(state, params, k)
    ref = bias_direct(float_masks(state.u), state.g, state.c,
                      np.array(params.lambdas), stencil(k))
    assert np.abs(b - ref).max() < 1e-10


def test_update_bias_rejects_all_zero_means():
    state = random_instance()
    state.c = np.zeros(2)
    with pytest.raises(ValueError, match="all region means are zero; bias undefined"):
        update_bias(state, ModelParams(), gaussian_kernel(ModelParams().rho))


def test_update_bias_is_stationary():
    params = ModelParams()
    k = gaussian_kernel(params.rho)
    for _ in range(20):
        state = random_instance(16)
        state.b, _ = update_bias(state, params, k)
        base = fitting_energy(state, params, k)
        trial = copy_state(state)
        trial.b = state.b + 1e-3 * (rng.random(state.b.shape) - 0.5)
        assert fitting_energy(trial, params, k) >= base - 1e-9 * max(1, base)


# ------------------------------------------------------------- force / energy

def make_context(state, f, params):
    return g_context(state, params, *run_inputs(state, f, params))


def image_flow(state, f, params):
    """`update_image` from `state.g`, as the first flow of a `segment` run."""
    fields, run = run_inputs(state, f, params)
    return update_image(state.g, g_context(state, params, fields, run), run, params, 0)


def assert_logged_steps(records):
    """The log keeps each `StepResult` with its two fields released, numbered
    (outer, inner), and from a flow's second step on err2 is the relative
    change of E_g from the step before, bit for bit."""
    for prev, rec in zip([None, *records], records):
        assert isinstance(rec, StepResult) and rec.g_next is None and rec.tv_force is None
        if prev is None or rec.outer != prev.outer:
            assert (rec.outer, rec.inner) == (0 if prev is None else prev.outer + 1, 0)
            continue
        assert rec.inner == prev.inner + 1
        assert rec.err2 == abs(rec.e_next - prev.e_next) / max(abs(rec.e_next),
                                                               np.finfo(float).tiny)


def test_force_zero_at_perfect_fit():
    n = 8
    u = two_phase(np.ones((n, n)))
    g = np.full((n, n), 4.0)
    state = SegState(c=np.array([4.0, 0.0]), b=np.ones((n, n)), g=g, u=u)
    params = ModelParams(gamma=0.0, nu=0.0)
    ctx = make_context(state, g, params)
    assert np.abs(force(g, ctx, evaluate(g, ctx)[4])).max() < 1e-10


def test_force_zero_at_idiv_stationary_point():
    n = 8
    f = rng.random((n, n)) * 10 + 1
    params = ModelParams(gamma=0.7, nu=0.0)
    ctx = FlowRun(f, params).ctx
    assert np.abs(force(f, ctx, evaluate(f, ctx)[4])).max() < 1e-12


@pytest.fixture(scope="module")
def gradient_instance():
    # drawn once, so every case sees the same state, image, iterate and
    # directions
    n = 16
    state = random_instance(n)
    f = rng.random((n, n)) * 5 + 1
    g = rng.random((n, n)) * 4 + 2
    return state, f, g, [rng.standard_normal((n, n)) for _ in range(10)]


@pytest.mark.parametrize("fit", [True, False], ids=["fit", "fit-free"])
@pytest.mark.parametrize("gamma, nu", [(0.3, 0.8), (0.0, 0.8), (0.3, 0.0), (0.0, 0.0)])
def test_force_is_exact_gradient_of_energy(gradient_instance, gamma, nu, fit):
    # zero weights and the run's fit-free context take the same path
    state, f, g, deltas = gradient_instance
    params = ModelParams(gamma=gamma, nu=nu)
    ctx = make_context(state, f, params) if fit else FlowRun(f, params).ctx
    grad = force(g, ctx, evaluate(g, ctx)[4])
    t = 1e-5
    for delta in deltas:
        fd = (evaluate(g + t * delta, ctx)[0] - evaluate(g - t * delta, ctx)[0]) / (2 * t)
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
    state.c, _ = update_means(state, *fit_fields(state.b, gaussian_kernel(params.rho)))
    ctx = make_context(state, f, params)
    return state.g.copy(), ctx


def test_rmsav_step_fixed_point():
    n = 8
    g = np.full((n, n), 4.0)
    u = two_phase(np.ones((n, n)))
    state = SegState(c=np.array([4.0, 0.0]), b=np.ones((n, n)), g=g, u=u)
    params = ModelParams(gamma=0.0, nu=0.0)
    ctx = make_context(state, g, params)
    e0 = evaluate(g, ctx)[0]
    z0 = float(np.sqrt(e0 + ctx.shift))
    step = rmsav_step(g, z0, ctx, e0, evaluate(g, ctx)[4], 0, 0)
    assert np.abs(step.g_next - g).max() < 1e-12
    assert step.z_tilde == pytest.approx(z0, rel=1e-12)
    assert step.z_next == pytest.approx(z0, rel=1e-12)
    assert step.e_next == pytest.approx(e0, rel=1e-12)


def test_rmsav_step_refuses_a_nonpositive_z_and_a_nan_pixel():
    g, ctx = noisy_context()
    e, tv_force = evaluate(g, ctx)[::4]
    z = float(np.sqrt(e + ctx.shift))
    with pytest.raises(NumericalFailure, match=r"must stay positive, got 0.0 \(outer "
                                               r"iteration 1, inner iteration 2\)"):
        rmsav_step(g, 0.0, ctx, e, tv_force, 1, 2)
    g[2, 3] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericalFailure, match=r"non-finite value in SAV step \(outer iteration 3"):
        rmsav_step(g, z, ctx, e, tv_force, 3, 0)


def test_rmsav_inner_product_identity():
    # G = -2*z_tilde^2 + 2*z_tilde*z holds exactly by construction
    g, ctx = noisy_context()
    z = float(np.sqrt(evaluate(g, ctx)[0] + ctx.shift))
    for j in range(20):
        step = rmsav_step(g, z, ctx, evaluate(g, ctx)[0], evaluate(g, ctx)[4], 0, j)
        assert not step.floored
        ident = -2.0 * step.z_tilde**2 + 2.0 * step.z_tilde * z
        scale = max(abs(step.g_val), abs(ident), 1e-12)
        assert abs(step.g_val - ident) / scale < 1e-8
        g, z = step.g_next, step.z_next


def test_rmsav_stability_law():
    # z^2 never increases, and the decrease is at least (1-eta)*G
    g, ctx = noisy_context()
    z = float(np.sqrt(evaluate(g, ctx)[0] + ctx.shift))
    for j in range(30):
        step = rmsav_step(g, z, ctx, evaluate(g, ctx)[0], evaluate(g, ctx)[4], 0, j)
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
    e = evaluate(g, ctx)[0]
    z = float(np.sqrt(e + ctx.shift))
    for j in range(30):
        step = rmsav_step(g, z, ctx, e, evaluate(g, ctx)[4], 0, j)
        g, z, e_new = step.g_next, step.z_next, step.e_next
        assert e_new <= e + 1e-8 * max(1.0, abs(e))
        e = e_new


def test_rmsav_g_val_matches_definition():
    # the step evaluates G = dt*z_tilde^2*<m, m_hat>; recompute it from the
    # definition (1/dt) <delta, (I + dt*Lap^2) delta>, delta = g_next - g
    g, ctx = noisy_context()
    z = float(np.sqrt(evaluate(g, ctx)[0] + ctx.shift))
    for j in range(30):
        step = rmsav_step(g, z, ctx, evaluate(g, ctx)[0], evaluate(g, ctx)[4], 0, j)
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
    state.c, _ = update_means(state, *fit_fields(state.b, gaussian_kernel(params.rho)))
    return state.g.copy(), make_context(state, f, params)


@pytest.mark.parametrize("near_floor", [False, True])
def test_rmsav_step_matches_reference(near_floor):
    # the fused step (energy and TV force term handed forward, closed-form G,
    # in-place update and floor) follows the unfused reference step
    g, ctx = unit_scale_context(near_floor)
    e = evaluate(g, ctx)[0]
    z = float(np.sqrt(e + ctx.shift))
    g_ref, z_ref, e_ref = g.copy(), z, e
    tv_force = evaluate(g, ctx)[4]
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
    # fidelity infimum for every image flow, of the image divided by its
    # 0.999-quantile (190 here, not 255)
    import ictmseg.solve

    calls = []

    def counting(f, params):
        calls.append(f.copy())
        return energy_shift(f, params)

    monkeypatch.setattr(ictmseg.solve, "energy_shift", counting)
    n = 16
    f = np.full((n, n), 60.0)
    f[4:12, 4:12] = 190.0
    init = np.zeros((n, n))
    init[2:10, 2:10] = 1.0
    _, log = segment(f, two_phase(init), ModelParams(max_outer=3))
    assert len(log.outers) >= 2
    assert np.quantile(f, 0.999) == 190.0
    assert len(calls) == 1
    assert calls[0].shape == f.shape
    assert calls[0].tobytes() == (f / np.quantile(f, 0.999)).tobytes()


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
    last, rec = log.inners[-1], log.outers[0]
    assert (rec.idiv, rec.tv) == (last.idiv, last.tv)
    # with no flow step the record evaluates both terms at the unchanged g
    params = ModelParams(max_outer=1, max_inner=0)
    _, log = segment(f, two_phase(init), params)
    scale = np.quantile(f, 0.999)       # the default scale, taken from the data
    g = np.maximum(f / scale, params.g_floor)
    alpha = gray_indicator(f / scale, params.sigma, params.p)
    rec = log.outers[0]
    assert rec.idiv == idiv_energy(g, params.gamma * (f / scale),
                                   params.gamma, params.g_floor)
    assert rec.tv == tv_energy(tv_gradient(g, params.eps_tv), alpha, params.nu)


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
    _, log = segment(f, IndicatorSet(labels, 3), params)
    assert len(log.outers) == 3 and len(log.inners) == 3 * steps
    assert_logged_steps(log.inners)
    assert counts == {"gradient": 3 * steps + 1, "implicit_symbol": 1}


def pinned_three_phase():
    """The pinned three-phase scene: image, init partition and parameters."""
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
    return f, IndicatorSet(labels, 3), params


def test_segment_pinned_three_phase_output():
    # A fixed three-phase run whose label map and iteration counts were
    # recorded before the flows reused the previous flow's last step, the
    # threshold formed its costs in its scan and the convolutions scaled
    # their spectra in place: none of these may change what the solver finds.
    state, log = segment(*pinned_three_phase())
    digest = hashlib.sha256(state.u.labels().astype(np.uint8).tobytes()).hexdigest()
    assert (len(log.outers), len(log.inners)) == (40, 93)
    assert digest == "9d688a2a846e46eaef1bf65141ac5e2a7c48a8020718a251beeb867cffa6c990"


def test_segment_bits_do_not_depend_on_thread_timing():
    # The helper's jobs (the bias denominator, K*b^2, the partition's
    # potentials and length term) run while the caller works on. With the
    # interpreter switching threads every microsecond, the run makes the same
    # records, labels, g and b as an ordinary run, bit for bit, and no job is
    # waited for in vain: the switching run must end within its time bound.
    def bits(state, log):
        return (log.outers, log.inners, state.u.labels().tobytes(), state.g.tobytes(),
                state.b.tobytes())

    out = []
    worker = threading.Thread(target=lambda: out.append(bits(*segment(*pinned_three_phase()))),
                              daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(out) == 1
    ordinary = bits(*segment(*pinned_three_phase()))
    assert len(ordinary[0]) == 40 and len(ordinary[1]) == 93
    assert out[0] == ordinary


def test_segment_records_carry_the_length_of_their_partition(monkeypatch):
    # The helper makes a partition's potentials and length term while the
    # next iteration runs; record k still carries the length term of the
    # partition iteration k made, eu_after its fit plus that length, and
    # total the four terms summed in order.
    import ictmseg.solve

    partitions = []

    def thresholding(*args):
        partitions.append(threshold(*args))
        return partitions[-1]

    monkeypatch.setattr(ictmseg.solve, "threshold", thresholding)
    f, init, params = pinned_three_phase()
    params = params._replace(max_outer=6)
    _, log = segment(f, init, params)
    time_px = params.heat_time_pixels(f.shape)
    kernel = heat_kernel_pixels(time_px)
    assert len(log.outers) == len(partitions) == 6
    for rec, u in zip(log.outers, partitions):
        length = length_term(u, length_potentials(u, kernel), params.mu, time_px)
        assert rec.length == length
        assert rec.eu_after == float(rec.fit + length)
        assert rec.total == rec.fit + length + rec.idiv + rec.tv


@pytest.mark.parametrize("failing", ["update_image", "update_bias"])
def test_segment_reports_records_before_a_later_failure(monkeypatch, failing):
    # Record k is emitted after iteration k + 1's flow, once the helper has
    # its length term. When iteration 2 fails, in the flow or in the bias
    # update before that job is handed over, records 0 and 1 have already
    # reached `progress` and the log, and the failure propagates.
    import ictmseg.solve

    logs, reported, calls = [], [], []
    original = getattr(ictmseg.solve, failing)

    def failing_at_outer_2(*args):
        calls.append(None)
        if len(calls) == 3:
            raise NumericalFailure("injected", outer=2, inner=0)
        return original(*args)

    def recording_log():
        logs.append(IterationLog())
        return logs[-1]

    monkeypatch.setattr(ictmseg.solve, failing, failing_at_outer_2)
    monkeypatch.setattr(ictmseg.solve, "IterationLog", recording_log)
    f, init, params = pinned_three_phase()
    with pytest.raises(NumericalFailure, match="injected"):
        segment(f, init, params, progress=reported.append)
    assert [r.outer for r in reported] == [0, 1]
    assert len(logs) == 1 and logs[0].outers == reported


def test_shared_contexts_and_records_cannot_be_changed_in_place():
    # every outer iteration's context is a copy of the one run context with
    # its own fit terms, and the log's records are read after the run: none
    # of them, nor the parameters, can be changed in place
    state = random_instance(8)
    params = ModelParams()
    fields, run = run_inputs(state, state.g, params)
    ctx = g_context(state, params, fields, run)
    assert ctx.weight is not None and ctx.target is not None and ctx.fit_const > 0.0
    assert run.ctx.weight is None and run.ctx.target is None and run.ctx.fit_const == 0.0
    e, *_, tv_force = evaluate(state.g, ctx)
    step = rmsav_step(state.g, float(np.sqrt(e + ctx.shift)), ctx, e, tv_force, 0, 0)
    _, inners, _ = update_image(state.g, ctx, run, params, 0)
    _, log = segment(state.g, state.u, params._replace(max_outer=1))
    assert_logged_steps(inners)
    assert_logged_steps(log.inners)
    for record, name in [(params, "mu"), (ctx, "weight"), (run.ctx, "fit_const"),
                         (step, "g_next"), (inners[0], "z_next"), (log.outers[0], "flags")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_zero_fit_context_matches_zero_fit_arrays():
    # the run's context holds no fit arrays and reads no partition or bias;
    # the flow is bit-identical to one whose weight and target are zero fields
    n = 16
    f = rng.random((n, n)) * 5 + 0.5
    params = ModelParams(gamma=0.3)
    ctx = FlowRun(f, params).ctx
    assert ctx.weight is None and ctx.target is None and ctx.fit_const == 0.0
    zeros = ctx._replace(weight=np.zeros((n, n)), target=np.zeros((n, n)))
    assert np.array_equal(force(f, ctx, evaluate(f, ctx)[4]),
                          force(f, zeros, evaluate(f, zeros)[4]))
    assert evaluate(f, ctx)[:4] == evaluate(f, zeros)[:4]
    runs = []
    for c in (ctx, zeros):
        g, e = f.copy(), evaluate(f, c)[0]
        z = float(np.sqrt(e + c.shift))
        for j in range(5):
            step = rmsav_step(g, z, c, e, evaluate(g, c)[4], 0, j)
            g, z, e = step.g_next, step.z_next, step.e_next
        runs.append((g, z, e))
    assert np.array_equal(runs[0][0], runs[1][0]) and runs[0][1:] == runs[1][1:]


def test_segment_peak_memory_in_arrays():
    # Peak of the memory one `segment` call allocates, in H x W float64
    # arrays. The partition is one label map, the residual stack is released
    # before the next flow, the init is shared, not copied, and a flow step
    # hands on one TV force field, not its three-field gradient: 21.8 arrays
    # on this scene when no helper job's convolution overlaps the peak of a
    # flow step, up to 24.0 when one does, against 28.5 when the partition
    # was n float64 masks.
    n = 64
    clean = np.full((n, n), 60.0)
    clean[n // 8:n // 2, n // 8:7 * n // 8] = 190.0
    clean[5 * n // 8:7 * n // 8, n // 4:3 * n // 4] = 120.0
    f = np.clip(clean * sample_gamma_field(n, n, 10.0, seed=3), 0.0, 255.0)
    labels = np.zeros((n, n), dtype=np.int64)
    labels[n // 2:, :] = 1
    labels[:, n // 2:] = 2
    init = IndicatorSet(labels, 3)
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


def relaxation_triples(count: int):
    """(z_tilde, z_prev, e_next, g_val) for shift 1 and eta 0.99, drawn as
    the membership test draws them, each followed by its near-degenerate
    neighbours: r = sqrt(e_next + 1) within a relative 1e-9 of z_tilde or
    of sqrt(B), and the zero-force step G = 0, z_tilde = z_prev."""
    gen = np.random.default_rng(2201)
    for _ in range(count):
        z_prev = float(gen.random() * 10 + 0.1)
        z_tilde = float(z_prev / (1.0 + gen.random() * 2))
        g_val = -2.0 * z_tilde**2 + 2.0 * z_tilde * z_prev
        yield z_tilde, z_prev, float(max(0.0, z_prev**2 * (0.5 + gen.random())) - 1.0), g_val
        root = np.sqrt(z_tilde**2 + (z_tilde - z_prev) ** 2 + 0.99 * g_val)
        for rel in (-1e-9, -1e-13, -1e-16, 0.0, 1e-16, 1e-13, 1e-9):
            for r in (z_tilde * (1.0 + rel), root * (1.0 + rel)):
                yield z_tilde, z_prev, float(r * r - 1.0), g_val
            yield z_prev, z_prev, float((z_prev * (1.0 + rel)) ** 2 - 1.0), 0.0


def test_relaxation_coefficient_closed_form_meets_the_bound():
    # the clamp gives the quadratic root's z(xi) = xi*z_tilde + (1-xi)*r; z
    # is compared, not xi, which is ill-conditioned when r ~ z_tilde
    for z_tilde, z_prev, e_next, g_val in relaxation_triples(2000):
        xi = relaxation_coefficient(z_tilde, z_prev, e_next, g_val, shift=1.0, eta=0.99,
                                    outer=0, inner=0)
        xi_ref = relaxation_quadratic_root(z_tilde, z_prev, e_next, g_val, 1.0, 0.99)
        r = np.sqrt(e_next + 1.0)
        z = xi * z_tilde + (1.0 - xi) * r
        z_ref = xi_ref * z_tilde + (1.0 - xi_ref) * r
        bound = z_tilde**2 + (z_tilde - z_prev) ** 2 + 0.99 * g_val
        assert 0.0 <= xi <= 1.0
        if g_val == 0.0 and z_tilde == z_prev and r > z_tilde:
            assert xi == 1.0      # zero force: r is pulled all the way back to z_tilde
        assert abs(z - z_ref) <= 1e-12 * z_ref
        if xi > 0.0:
            assert abs(z * z - bound) <= 1e-12 * bound
        else:
            assert r * r <= bound * (1.0 + 1e-12)


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
    run = FlowRun(f, params)
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
    state.c, _ = update_means(state, *fit_fields(state.b, gaussian_kernel(params.rho)))
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


def test_threshold_refuses_a_single_phase():
    with pytest.raises(ValueError, match="need at least two phase cost fields"):
        least_cost(np.zeros((1, 4, 4)))


def test_threshold_and_fit_term_refuse_mismatched_phase_counts():
    # three constant cost fields whose cheapest is phase 2 everywhere: a
    # weight or potential list one phase short must be refused, not zipped
    # down to two phases (which labelled every pixel 1 and fit 0.0)
    e = np.stack([np.full((4, 4), v) for v in (3.0, 2.0, 1.0)])
    with pytest.raises(ValueError):
        threshold(e, np.zeros_like(e), (1.0, 1.0), 1.0, 1.0)
    with pytest.raises(ValueError):
        threshold(e, np.zeros_like(e[:2]), (1.0, 1.0, 1.0), 1.0, 1.0)
    assert np.all(threshold(e, np.zeros_like(e), (1.0,) * 3, 1.0, 1.0).labels() == 2)
    u = IndicatorSet(np.full((4, 4), 2), 3)
    assert fit_term(e, u, (1.0, 1.0, 1.0)) == 16.0
    with pytest.raises(ValueError):
        fit_term(e, u, (1.0, 1.0))


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
    # a negative image is refused as such, not as all zero: its scale is
    # taken only from a nonnegative one
    f = np.full((8, 8), 10.0)
    init = two_phase(np.ones((8, 8)))
    for negative in (-f, np.full((8, 8), -1e-3)):
        with pytest.raises(ValueError, match="image must be nonnegative"):
            segment(negative, init, ModelParams())
    with pytest.raises(ValueError, match=r"field must be 2-D .*, got shape \(8,\)"):
        segment(f[0], init, ModelParams())
    nan = f.copy()
    nan[3, 4] = np.nan
    with pytest.raises(ValueError, match="field contains NaN or Inf"):
        segment(nan, init, ModelParams())
    with pytest.raises(ValueError):
        segment(f, init, ModelParams(lambdas=(0.0, 1.0)))
    with pytest.raises(ValueError):
        segment(f, two_phase(np.ones((4, 4))), ModelParams())


def test_segment_reaches_fixed_point_and_stays():
    # rerunning from the converged partition changes nothing; at the exact fit
    # no logged E_fit falls below 0 by roundoff
    n = 32
    clean = np.full((n, n), 50.0)
    clean[6:26, 6:20] = 210.0
    init = np.zeros((n, n))
    init[2:30, 2:30] = 1.0
    params = ModelParams(gamma=0.0, nu=0.0, freeze_bias=True)
    state, log = segment(clean, two_phase(init), params)
    state2, log2 = segment(clean, state.u, params)
    assert np.array_equal(float_masks(state.u), float_masks(state2.u))
    assert len(log2.outers) == 1
    for rec in log.inners + log.outers + log2.inners + log2.outers:
        assert rec.fit >= 0.0, rec


def test_segment_frozen_bias_fit_constant_is_its_definition(monkeypatch):
    # a frozen bias hands the flow <den, b^2> with den = sum_i lam_i c_i^2 u_i
    # and b = 1: <sum_i lam_i c_i^2 u_i, K*1> by the definition, K*1 = 1
    import ictmseg.solve

    n_rows, n_cols = 36, 44
    f = np.full((n_rows, n_cols), 50.0)
    f[4:20, 6:30] = 200.0
    f[22:32, 10:40] = 120.0
    f = f * sample_gamma_field(n_cols, n_rows, 10.0, seed=35)
    labels = np.zeros((n_rows, n_cols), dtype=np.int64)
    labels[n_rows // 2:, :] = 1
    labels[:, n_cols // 2:] = 2
    params = ModelParams(lambdas=(0.7, 1.3, 2.0), freeze_bias=True, max_outer=6)
    pairs = []

    def context(state, params, kb, fit_const, run):
        pairs.append((fit_const, fit_constant(state, params, np.ones(state.u.shape))))
        return build_g_context(state, params, kb, fit_const, run)

    monkeypatch.setattr(ictmseg.solve, "build_g_context", context)
    _, log = segment(f, IndicatorSet(labels, 3), params)
    assert len(pairs) == len(log.outers) >= 2
    for got, want in pairs:
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)


# ------------------------------------------------------- convolution budget

@pytest.mark.parametrize("n_phases, freeze_bias", [(2, False), (3, False), (3, True)])
def test_segment_fit_convolution_budget(monkeypatch, n_phases, freeze_bias):
    # One outer iteration makes two fit-kernel convolutions in the bias
    # update plus K*b and K*b^2 after it; each partition the run holds, the
    # init and one per iteration, gets n - 1 heat-kernel convolutions for its
    # length potentials. The run starts from b = 1, whose fit fields are b
    # itself (K*1 = 1), so none is made before the loop, and a frozen bias
    # makes none at all. A run of K iterations so makes 4K fit and
    # (n - 1)(K + 1) heat convolutions.
    # A fit convolution is counted under the iteration that asked for it:
    # the caller's under the one running, a helper job's under the one that
    # submitted it; a heat convolution under the partition whose mask it
    # convolves. So the counts do not depend on when the helper runs.
    # Everything calls `convolve` through a module global, so it is patched
    # in each module; the counts are kept under a lock.
    # The helper takes two jobs per iteration: the bias denominator, then
    # K*b^2 with the length potentials; a frozen bias hands it only the
    # second. They are counted under the iteration that submits them.
    # The caller's lane is pinned in order too: den is handed over before the
    # numerator is made, and the job after the flow before K*b, so the helper
    # never waits on the caller's convolution.
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
    fit_kernel = gaussian_kernel(params.rho)
    heat_kernel = heat_kernel_pixels(params.heat_time_pixels(f.shape))
    outer = [-1]                    # the caller's iteration; -1 before the loop
    job = threading.local()         # the iteration that submitted a helper job
    partitions = []                 # kept alive, so that no mask id is reused
    fits, heats, jobs = {}, {}, {}
    order = {}                      # per iteration, the caller's hand-offs and fit convolutions
    caller = threading.get_ident()
    lock = threading.Lock()

    def same(kernel, ref):
        return kernel.radius == ref.radius and np.array_equal(kernel.profile, ref.profile)

    def counting(field, kernel):
        with lock:
            if same(kernel, fit_kernel):
                k = getattr(job, "outer", outer[0])
                fits[k] = fits.get(k, 0) + 1
                if threading.get_ident() == caller:
                    order.setdefault(k, []).append("fit")
            elif same(kernel, heat_kernel):
                p = next(i for i, u in enumerate(partitions)
                         if any(m is field for m in u.phase_masks()))
                heats[p] = heats.get(p, 0) + 1
        return convolve(field, kernel)

    def tagged(fn, *args):
        k = outer[0]
        jobs[k] = jobs.get(k, 0) + 1
        if threading.get_ident() == caller:
            order.setdefault(k, []).append("job")

        def run(*a):
            job.outer = k
            try:
                return fn(*a)
            finally:
                del job.outer
        return on_helper(run, *args)

    def means(*args):
        outer[0] += 1
        return update_means(*args)

    def thresholding(*args):
        partitions.append(threshold(*args))
        return partitions[-1]

    for module in (ictmseg.field, ictmseg.energy, ictmseg.solve):
        monkeypatch.setattr(module, "convolve", counting, raising=False)
    monkeypatch.setattr(ictmseg.solve, "on_helper", tagged)
    monkeypatch.setattr(ictmseg.solve, "update_means", means)
    monkeypatch.setattr(ictmseg.solve, "threshold", thresholding)
    partitions.append(IndicatorSet(labels, n_phases))
    _, log = segment(f, partitions[0], params)
    assert len(log.outers) == 4 and len(partitions) == 5
    assert fits == ({} if freeze_bias else {k: 4 for k in range(4)})
    assert jobs == {k: 1 if freeze_bias else 2 for k in range(4)}
    assert order == {k: ["job"] if freeze_bias else ["job", "fit", "job", "fit"]
                     for k in range(4)}
    assert heats == {p: n_phases - 1 for p in range(5)}
