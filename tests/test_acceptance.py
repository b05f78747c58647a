"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).

The shared fixtures build seeded synthetic scenes; every expected value is
either a hand calculation, a brute-force oracle from `oracles.py`, or an
algebraic identity of the scheme itself.
"""

import time

import numpy as np
import pytest

from ictmseg.energy import (
    IndicatorSet,
    ModelParams,
    SegState,
)
from ictmseg.field import (
    biharmonic,
    convolve,
    gaussian_kernel,
    heat_kernel_pixels,
    implicit_symbol,
    inner_product,
    solve_implicit,
)
from ictmseg.metrics import ConfusionCounts, accuracy, dsc, iou, kappa, match_phases, score_masks
from ictmseg.noise import NoiseSpec, corrupt, sample_gamma_field
from ictmseg.solve import (
    evaluate,
    force,
    rmsav_step,
    segment,
    update_bias,
    update_means,
)
from ictmseg.synth import Shape, SynthSpec, generate

from oracles import (
    assemble_implicit_matrix,
    bias_direct,
    conv2d_direct,
    copy_state,
    fit_constant,
    fit_fields,
    fit_residual,
    fit_residual_direct,
    fitting_energy,
    float_masks,
    g_context,
    length_energy,
    means_direct,
    phi_direct,
    run_inputs,
    stencil,
    threshold_fields,
    two_phase,
)

rng = np.random.default_rng(20260810)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"



def sav_run(n_steps=60, n=64, seed=314):
    """A fixed inner-flow run on a Gamma-noisy synthetic at unit scale."""
    clean = np.full((n, n), 0.75)
    clean[n // 4: 3 * n // 4, n // 4: 3 * n // 4] = 0.25
    eta = sample_gamma_field(n, n, 10.0, seed=seed)
    f = np.clip(clean * eta, 1e-3, 1.0)
    mask = (clean < 0.5).astype(float)
    state = SegState(c=np.zeros(2), b=np.ones((n, n)),
                     g=np.maximum(f, 1e-3), u=two_phase(mask))
    params = ModelParams(gamma=0.1, nu=1.0, dt=0.1, c0=1.0, eta_relax=0.99)
    fields, run = run_inputs(state, f, params)
    state.c, _ = update_means(state, *fields)
    ctx = g_context(state, params, fields, run)
    g = state.g.copy()
    e = evaluate(g, ctx)[0]
    z = float(np.sqrt(e + ctx.shift))
    steps = []
    for j in range(n_steps):
        step = rmsav_step(g, z, ctx, e, evaluate(g, ctx)[4], 0, j)
        steps.append((z, step))
        g, z, e = step.g_next, step.z_next, step.e_next
    return steps, ctx


@pytest.fixture(scope="module")
def theorem_run():
    t0 = time.monotonic()
    steps, ctx = sav_run()
    return steps, ctx, time.monotonic() - t0


def test_criterion_01_sav_stability(theorem_run):
    steps, ctx, elapsed = theorem_run
    eta = ctx.eta
    worst_inc, worst_slack = -np.inf, -np.inf
    tight_checked = 0
    for z_prev, step in steps:
        assert not step.floored, "positivity floor engaged; run invalid"
        dz2 = (step.z_next - z_prev) * (step.z_next + z_prev)
        worst_inc = max(worst_inc, dz2)
        slack = dz2 + (1.0 - eta) * step.g_val
        worst_slack = max(worst_slack, slack / max(1.0, z_prev * z_prev))
        if step.xi > 0.0:
            tight_checked += 1
            assert abs(slack) <= 1e-6 * max(1.0, z_prev * z_prev)
    ok = (len(steps) >= 50 and worst_inc <= 1e-10
          and worst_slack <= 1e-6 and elapsed < 10.0)
    report("criterion 1 (SAV stability law over >=50 steps)", ok,
           f"steps={len(steps)} max z^2 increase={worst_inc:.2e} "
           f"max law slack={worst_slack:.2e} tight-steps={tight_checked} "
           f"runtime={elapsed:.2f}s")


def test_criterion_02_inner_product_identity(theorem_run):
    steps, _, _ = theorem_run
    worst = 0.0
    for z_prev, step in steps:
        ident = -2.0 * step.z_tilde**2 + 2.0 * step.z_tilde * z_prev
        scale = max(abs(step.g_val), abs(ident), 1e-12)
        worst = max(worst, abs(step.g_val - ident) / scale)
    report("criterion 2 (G = -2*z_tilde^2 + 2*z_tilde*z identity)",
           worst < 1e-8, f"max relative gap={worst:.2e}")


@pytest.fixture(scope="module")
def quality_scene():
    n = 256
    spec = SynthSpec(size=(n, n), background=200.0,
                     shapes=(Shape("disk", (128.0, 128.0, 70.0), 50.0),),
                     bias=("gaussian", 2.0))
    clean, truth, _ = generate(spec)
    f = np.clip(corrupt(clean, NoiseSpec("gamma", 10.0, seed=42)), 0.0, 255.0)
    yy, xx = np.mgrid[0:n, 0:n]
    init = (((xx - 128.0) ** 2 + (yy - 128.0) ** 2) <= 50.0**2).astype(float)
    return f, truth, two_phase(init)


def test_criterion_03_threshold_energy_monotone(quality_scene):
    f, truth, init = quality_scene
    state, log = segment(f, init, ModelParams(max_outer=100))
    worst = -np.inf
    for rec in log.outers:
        worst = max(worst, rec.eu_after - rec.eu_before
                    - 1e-12 * max(1.0, abs(rec.eu_before)))
    ok = len(log.outers) >= 20 and worst <= 0.0
    report("criterion 3 (threshold step monotonicity over full run)", ok,
           f"outer iterations={len(log.outers)} worst violation={worst:.2e}")


def test_criterion_04_exact_minimizer_stationarity():
    params = ModelParams()
    k = gaussian_kernel(params.rho)
    worst_c, worst_b = 0.0, 0.0
    for _ in range(20):
        mask = (rng.random((16, 16)) > 0.5).astype(float)
        state = SegState(c=np.array([1.0 + rng.random(), 3.0 + rng.random()]),
                         b=rng.random((16, 16)) + 0.5,
                         g=rng.random((16, 16)) * 5 + 0.5, u=two_phase(mask))
        state.c, _ = update_means(state, *fit_fields(state.b, k))
        base = fitting_energy(state, params, k)
        for i in range(2):
            for delta in (1e-3, -1e-3):
                trial = copy_state(state)
                trial.c = state.c.copy()
                trial.c[i] += delta
                worst_c = max(worst_c, base - fitting_energy(trial, params, k))
        state.b, _ = update_bias(state, params, k)
        base = fitting_energy(state, params, k)
        trial = copy_state(state)
        trial.b = state.b + 1e-3 * (rng.random((16, 16)) - 0.5)
        worst_b = max(worst_b, base - fitting_energy(trial, params, k))
    tol = 1e-9
    report("criterion 4 (mean/bias updates are exact minimizers)",
           worst_c <= tol and worst_b <= tol,
           f"worst perturbation gain: means={worst_c:.2e} bias={worst_b:.2e}")


def test_criterion_05_force_matches_finite_differences():
    n = 16
    mask = (rng.random((n, n)) > 0.5).astype(float)
    state = SegState(c=np.array([1.5, 3.5]), b=rng.random((n, n)) + 0.5,
                     g=rng.random((n, n)) * 4 + 2, u=two_phase(mask))
    f = rng.random((n, n)) * 5 + 1
    params = ModelParams(gamma=0.3, nu=0.8)
    ctx = g_context(state, params, *run_inputs(state, f, params))
    g = rng.random((n, n)) * 4 + 2
    grad = force(g, ctx, evaluate(g, ctx)[4])
    t = 1e-5
    worst = 0.0
    for _ in range(10):
        delta = rng.standard_normal((n, n))
        fd = (evaluate(g + t * delta, ctx)[0]
              - evaluate(g - t * delta, ctx)[0]) / (2 * t)
        worst = max(worst, abs(fd - inner_product(grad, delta)) / max(1.0, abs(fd)))
    report("criterion 5 (force is the gradient of the evaluated energy)",
           worst < 1e-4, f"max relative error={worst:.2e} over 10 directions")


def test_criterion_06_implicit_operator_correctness():
    field = rng.random((16, 16))
    dt = 0.1
    back = solve_implicit(field + dt * biharmonic(field), implicit_symbol(field.shape, dt))
    round_trip = np.abs(back - field).max()
    rhs = rng.random((4, 4))
    dense = np.linalg.solve(assemble_implicit_matrix((4, 4), 0.25),
                            rhs.ravel()).reshape(4, 4)
    dense_gap = np.abs(solve_implicit(rhs, implicit_symbol((4, 4), 0.25)) - dense).max()
    report("criterion 6 (spectral solve: round trip and dense match)",
           round_trip <= 1e-10 and dense_gap <= 1e-10,
           f"round trip={round_trip:.2e} dense gap={dense_gap:.2e}")


def test_criterion_07_noise_statistics():
    eta = sample_gamma_field(1000, 1000, 10.0, seed=99)
    gamma_mean = abs(eta.mean() - 1.0)
    gamma_var = abs(eta.var() - 0.1) / 0.1
    pois = corrupt(np.full((1000, 1000), 100.0), NoiseSpec("poisson", seed=100))
    pois_mean = abs(pois.mean() - 100.0) / 100.0
    pois_var = abs(pois.var() - pois.mean()) / pois.mean()
    ok = gamma_mean < 0.01 and gamma_var < 0.05 and pois_mean < 0.01 and pois_var < 0.03
    report("criterion 7 (gamma and Poisson sample statistics)", ok,
           f"gamma mean err={gamma_mean:.4f} var err={gamma_var:.4f} "
           f"poisson mean err={pois_mean:.4f} mean-vs-var={pois_var:.4f}")


def test_criterion_08_oracle_equivalence():
    k = gaussian_kernel(1.2)
    g = rng.random((8, 8)) * 4
    b = rng.random((8, 8)) + 0.5
    mask = (rng.random((8, 8)) > 0.5).astype(float)
    u = two_phase(mask)
    c = np.array([1.3, 2.7])
    lambdas = np.array([1.0, 1.0])
    gaps = {
        "convolve": np.abs(convolve(g, k) - conv2d_direct(g, stencil(k))).max(),
        "residual": np.abs(fit_residual(g, b, 2.0, k)
                           - fit_residual_direct(g, b, 2.0, stencil(k))).max(),
    }
    state = SegState(c=c.copy(), b=b, g=g, u=u)
    params = ModelParams(rho=1.2, lambdas=(1.0, 1.0), mu=0.7)
    c_new, _ = update_means(state, *fit_fields(b, k))
    gaps["means"] = max(abs(c_new[i] - means_direct(float_masks(u)[i], g, b, stencil(k)))
                        for i in range(2))
    gaps["bias"] = np.abs(update_bias(state, params, k)[0]
                          - bias_direct(float_masks(u), g, c, lambdas, stencil(k))).max()
    tk = heat_kernel_pixels(2.0)
    e_fields = np.stack([fit_residual(g, b, ci, k) for ci in c])
    gaps["threshold fields"] = np.abs(
        threshold_fields(e_fields, u, params, 2.0, tk)
        - phi_direct(e_fields, float_masks(u), lambdas, params.mu, 2.0, stencil(tk))).max()
    worst = max(gaps.values())
    report("criterion 8 (brute-force oracle equivalence)", worst <= 1e-10,
           " ".join(f"{k}={v:.1e}" for k, v in gaps.items()))


def test_criterion_08_fit_constant_through_the_bias_denominator():
    # the bias update hands `segment` the fitting term's constant
    # <sum_i lam_i c_i^2 u_i, K*b^2> as <den, b^2>, den = K*(sum_i lam_i c_i^2 u_i):
    # every convolution is C^T M C with C the orthonormal DCT, so K is
    # self-adjoint and the two agree to roundoff, on any partition and any shape
    r = np.random.default_rng(808)
    worst = 0.0
    for shape, n_phases, rho in [((37, 53), 2, 3.0), ((37, 53), 3, 1.7), ((53, 37), 4, 6.0),
                                 ((16, 16), 3, 3.0)]:
        for _ in range(5):
            params = ModelParams(lambdas=tuple(0.5 + r.random(n_phases)), rho=rho)
            state = SegState(c=1.0 + 3.0 * r.random(n_phases), b=np.ones(shape),
                             g=r.random(shape) * 5 + 0.5,
                             u=IndicatorSet(r.integers(0, n_phases, shape), n_phases))
            k = gaussian_kernel(rho)
            state.b, via_den = update_bias(state, params, k)
            by_definition = fit_constant(state, params, convolve(state.b * state.b, k))
            worst = max(worst, abs(via_den - by_definition) / abs(by_definition))
    report("criterion 8 (fit constant through the bias denominator)", worst <= 1e-12,
           f"worst relative gap={worst:.1e}")


def test_criterion_09_heat_kernel_length():
    n = 128
    mask = np.zeros((n, n))
    mask[:, : n // 2] = 1.0
    time_px = 4.5  # kernel std = 3 px
    val = length_energy(two_phase(mask), mu=1.0, time_px=time_px)
    # straight interface of length n, counted once per adjacent phase
    expect = 2.0 * n
    rel = abs(val - expect) / expect
    report("criterion 9 (heat-kernel length of a straight edge)", rel < 0.05,
           f"value={val:.2f} expected={expect} rel err={rel:.4f}")


def test_criterion_10_segmentation_quality(quality_scene):
    f, truth, init = quality_scene
    t0 = time.monotonic()
    state, log = segment(f, init, ModelParams())
    elapsed = time.monotonic() - t0
    scores = {}
    m = match_phases(state.u, truth)
    base = score_masks(float_masks(m)[1], float_masks(truth)[1])
    scores[(0.1, 1.0)] = base["dsc"]
    for gam, nu in [(0.01, 1.0), (0.1, 4.0)]:
        st, _ = segment(f, init, ModelParams(gamma=gam, nu=nu))
        mm = match_phases(st.u, truth)
        scores[(gam, nu)] = score_masks(float_masks(mm)[1], float_masks(truth)[1])["dsc"]
    spread = max(scores.values()) - min(scores.values())
    ok = (base["dsc"] >= 0.95 and base["iou"] >= 0.90
          and elapsed < 60.0 and spread <= 0.03)
    report("criterion 10 (quality on biased, gamma-noisy synthetic)", ok,
           f"DSC={base['dsc']:.4f} IoU={base['iou']:.4f} runtime={elapsed:.1f}s "
           f"robustness spread={spread:.4f} "
           + " ".join(f"({g},{n})={d:.4f}" for (g, n), d in scores.items()))


def test_criterion_11_reduction_to_clustering_model():
    n = 64
    clean = np.full((n, n), 50.0)
    clean[12:40, 20:52] = 200.0
    truth = (clean > 100).astype(float)
    init = np.zeros((n, n))
    init[16:52, 16:52] = 1.0
    params = ModelParams(gamma=0.0, nu=0.0, max_inner=0, freeze_bias=True)
    state, log = segment(clean, two_phase(init), params)
    final = log.outers[-1]
    term_ok = (final.idiv == 0.0 and final.tv == 0.0
               and final.total == final.fit + final.length)
    masks = float_masks(state.u)
    got = masks[0] if masks[0, 20, 30] else masks[1]
    d = dsc_of(got, truth)
    report("criterion 11 (zero denoising weights reduce to fitting+length)",
           term_ok and d == 1.0,
           f"idiv={final.idiv} tv={final.tv} DSC={d}")


def dsc_of(pred, truth):
    from ictmseg.metrics import confusion
    return dsc(confusion(pred, truth))


def test_criterion_12_metric_formulas_exact():
    counts = ConfusionCounts(tp=1, fp=1, fn=0, tn=2)
    vals = (dsc(counts), iou(counts), accuracy(counts), kappa(counts))
    ok = vals == (2.0 / 3.0, 0.5, 0.75, 0.5)
    report("criterion 12 (hand confusion-matrix example)", ok,
           f"DSC={vals[0]} IoU={vals[1]} Acc={vals[2]} kappa={vals[3]}")
