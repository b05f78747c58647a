"""Energy-term tests, each against a hand or brute-force reference."""

import re

import numpy as np
import pytest

import ictmseg.energy
import ictmseg.field
from ictmseg.energy import (
    IndicatorSet,
    ModelParams,
    SegState,
    gray_indicator,
    idiv_energy,
    length_potentials,
    tv_energy,
    tv_gradient,
)
from ictmseg.errors import ConfigError
from ictmseg.field import convolve, gaussian_kernel, heat_kernel_pixels, inner_product

from oracles import (conv2d_direct, fit_residual, fit_residual_direct, fitting_energy,
                     float_masks, from_masks, length_energy, partition_energy, stencil,
                     total_energy, two_phase)

rng = np.random.default_rng(99)



# ------------------------------------------------------------- ModelParams

def test_params_defaults_and_validation():
    p = ModelParams().validate()
    assert p.n_phases == 2
    assert (p.sigma, p.p, p.tau, p.rho) == (1.0, 1.3, 0.02, 3.0)
    assert (p.tol1, p.tol2, p.eta_relax) == (1e-8, 1e-3, 0.99)
    with pytest.raises(ConfigError):
        ModelParams(lambdas=(1.0,)).validate()
    with pytest.raises(ConfigError):
        ModelParams(rho=0.0).validate()
    with pytest.raises(ConfigError):
        ModelParams(eta_relax=1.5).validate()
    with pytest.raises(ConfigError):
        ModelParams(gamma=-0.1).validate()
    with pytest.raises(ConfigError):
        ModelParams(p=-1.0).validate()
    for kwargs, message in (({"lambdas": (-1.0, 1.0)}, "lambda weights must be positive"),
                            ({"lambdas": (1.0, 0.0)}, "lambda weights must be positive"),
                            ({"dt": 0.0}, "dt must be positive"),
                            ({"intensity_scale": 0.0}, "intensity_scale must be positive"),
                            ({"tol2": -1.0}, "tolerances must be nonnegative"),
                            ({"max_outer": 0}, "iteration caps out of range"),
                            ({"max_inner": -1}, "iteration caps out of range"),
                            ({"max_outer": 1.5}, "must be whole numbers"),
                            ({"max_inner": 2.5}, "must be whole numbers")):
        with pytest.raises(ConfigError, match=message):
            ModelParams(**kwargs).validate()


def test_scale_of_is_the_0999_quantile_bit_for_bit():
    # np.quantile's linear rule on images with ties, few pixels, a weight on
    # either side of 1/2 and subnormal values; an explicit scale wins; a
    # quantile of 0 falls back to the maximum, an all-zero image has no scale,
    # and a negative pixel is refused before any scale is taken
    gen = np.random.default_rng(36)
    for shape in ((1, 1), (1, 3), (2, 2), (16, 16), (37, 101), (256, 256)):
        for f in (gen.gamma(2.0, 30.0, shape), np.round(gen.gamma(2.0, 3.0, shape)),
                  np.minimum(gen.gamma(2.0, 30.0, shape), 40.0),
                  gen.gamma(2.0, 30.0, shape) * 1e-310):
            assert ModelParams().scale_of(f) == np.quantile(f, 0.999), (shape, f.max())
    assert ModelParams(intensity_scale=3.0).scale_of(np.zeros((4, 4))) == 3.0
    sparse = np.zeros((64, 64))
    sparse[3, 5] = 7.0
    assert np.quantile(sparse, 0.999) == 0.0 and ModelParams().scale_of(sparse) == 7.0
    with pytest.raises(ConfigError, match="all zero"):
        ModelParams().scale_of(np.zeros((8, 8)))
    with pytest.raises(ValueError, match="image must be nonnegative"):
        ModelParams().scale_of(np.full((2, 3), -1.0))


@pytest.mark.parametrize("field, kwargs", [
    ("tol1", {"tol1": float("nan")}),
    ("dt", {"dt": float("inf")}),
    ("lambdas", {"lambdas": (1.0, float("-inf"))}),
])
def test_params_must_be_finite(field, kwargs):
    # NaN passes every ordering check, and inf every lower bound
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        ModelParams(**kwargs).validate()


def test_params_refuse_an_eps_tv_whose_square_underflows():
    # |grad g|_eps squares eps: below about 1.49e-154 the square is no normal
    # float, and on a flat patch the TV flux divides by 0
    with pytest.raises(ConfigError, match="eps_tv must be at least 1.49e-154"):
        ModelParams(eps_tv=1e-200).validate()
    assert ModelParams(eps_tv=1e-150).validate().eps_tv == 1e-150


@pytest.mark.parametrize("name", ["rho", "sigma"])
def test_params_refuse_a_kernel_too_wide_to_build(name):
    # refused before a tap is made: 1e15 px would ask for 57 PiB of profile
    with pytest.raises(ConfigError, match=f"{name} = 1e\\+15 gives a Gaussian kernel"):
        ModelParams(**{name: 1e15}).validate()
    assert getattr(ModelParams(**{name: 2.0**18}).validate(), name) == 2.0**18


def test_heat_time_refuses_a_kernel_too_wide_to_build():
    with pytest.raises(ConfigError, match="tau = 1e\\+30"):
        ModelParams(tau=1e30).heat_time_pixels((24, 24))
    with pytest.raises(ConfigError, match="tau = 1e\\+15"):
        ModelParams(tau=1e15, tau_in_pixels=True).heat_time_pixels((24, 24))
    # std sqrt(2 t) = 2^18 px, the widest kernel made
    assert ModelParams(tau=2.0**35, tau_in_pixels=True).heat_time_pixels((9, 9)) == 2.0**35


def test_heat_time_refuses_a_sub_pixel_kernel():
    # the bound of heat_kernel_pixels, CUTOFF_SDS * sqrt(2 t) < 1, named by tau:
    # 0.03125 px^2 is std 0.25 px, whose four standard deviations are 1 px
    with pytest.raises(ConfigError, match="tau = 0.03 \\(heat time 0.03 px\\^2\\) "
                                          "gives a sub-pixel heat kernel"):
        ModelParams(tau=0.03, tau_in_pixels=True).heat_time_pixels((24, 24))
    assert ModelParams(tau=0.03125, tau_in_pixels=True).heat_time_pixels((24, 24)) == 0.03125
    heat_kernel_pixels(0.03125)


def _up(x):
    return float(np.nextafter(x, np.inf))


@pytest.mark.parametrize("key, value, refusal", [
    ("rho", 2.0**18, None),
    ("rho", _up(2.0**18), "radius limit"),
    ("tau", 1 / 32, None),
    ("tau", float(np.nextafter(1 / 32, 0)), "sub-pixel heat kernel"),
    ("tau", 2.0**35, None),
    # sqrt(2 t) one ulp above 2^35 rounds back to a std of 2^18 px
    ("tau", _up(2.0**35), None),
    ("tau", _up(_up(2.0**35)), "radius limit"),
], ids=["rho-widest", "rho-too-wide", "tau-narrowest", "tau-sub-pixel", "tau-widest",
        "tau-widest-after-rounding", "tau-too-wide"])
def test_params_and_field_accept_and_refuse_the_same_kernels(key, value, refusal):
    # each kernel-size rule, at its edge, as the config layer applies it and
    # as the kernel constructor the solve then calls does
    if key == "rho":
        layers = (lambda: ModelParams(rho=value).validate(), lambda: gaussian_kernel(value))
    else:
        layers = (lambda: ModelParams(tau=value, tau_in_pixels=True).heat_time_pixels((9, 9)),
                  lambda: heat_kernel_pixels(value))
    for layer in layers:
        if refusal is None:
            layer()
        else:
            with pytest.raises(ConfigError, match=refusal):
                layer()


def test_heat_time_conversion():
    p = ModelParams(tau=0.02)
    assert p.heat_time_pixels((256, 128)) == pytest.approx(0.02 * 256**2)
    assert ModelParams(tau=4.5, tau_in_pixels=True).heat_time_pixels((99, 2)) == 4.5


def test_indicator_set_contracts():
    # IndicatorSet(labels, n) is the one constructor: it checks, copies and
    # freezes its map
    labels = np.array([[0, 0, 1], [0, 0, 1], [2, 0, 1]], dtype=np.int32)
    u = IndicatorSet(labels, 3)
    assert u.n == 3 and u.shape == (3, 3)
    assert np.array_equal(u.labels(), labels)
    labels[0, 0] = 2
    assert u.labels()[0, 0] == 0
    assert not u.labels().flags.writeable
    with pytest.raises(ValueError):
        u.labels()[0, 0] = 1
    # the masks u_i = [labels == i] are made with the labels, once, read-only;
    # phase 3 of a 4-phase set is empty
    for v in (u, IndicatorSet(labels, 4)):
        masks = v.phase_masks()
        assert masks is v.phase_masks() and len(masks) == v.n
        for i, m in enumerate(masks):
            assert m.dtype == bool and np.array_equal(m, v.labels() == i)
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = not m[0, 0]
    assert not IndicatorSet(labels, 4).phase_masks()[3].any()
    for bad, n in ((labels.astype(np.float64), 3), (labels[None], 3), (labels[0], 3),
                   (labels, 2), (labels - 1, 3)):
        with pytest.raises(ValueError):
            IndicatorSet(bad, n)
    # an empty map is refused by name, before any reduction over it
    for shape in ((0, 5), (3, 0)):
        with pytest.raises(ValueError, match=re.escape(
                f"labels must be a 2-D integer map with positive dims, got shape {shape}")):
            IndicatorSet(np.zeros(shape, dtype=np.int64), 2)
    with pytest.raises(TypeError):
        IndicatorSet(labels)


# ------------------------------------------------------------ gray indicator

def test_gray_indicator_constant_image_is_one():
    for p in (0.5, 1.3, 2.0):
        alpha = gray_indicator(np.full((12, 12), 40.0), sigma=1.0, p=p)
        assert np.allclose(alpha, 1.0, atol=1e-12)


def test_gray_indicator_dark_region_below_one():
    # a black half too: the transform leaves K_sigma*f slightly below 0 there
    # on the 32^2 grid (not on 24^2), which the power p must not make NaN
    for n, dark in ((24, 30.0), (32, 0.0)):
        f = np.full((n, n), dark)
        f[:, n // 2:] = 200.0
        alpha = gray_indicator(f, sigma=1.0, p=1.3)
        assert np.isfinite(alpha).all() and alpha.min() >= 0.0 and alpha.max() <= 1.0
        assert alpha.max() == pytest.approx(1.0)
        assert (alpha[:, :8] < 1.0).all()
        assert alpha[0, 0] < alpha[0, -1]


def test_gray_indicator_checkerboard_matches_brute_force():
    yy, xx = np.mgrid[0:4, 0:4]
    f = np.where((yy + xx) % 2 == 0, 200.0, 50.0)
    k = gaussian_kernel(1.0)
    smoothed = conv2d_direct(f, stencil(k))
    ref = (smoothed / smoothed.max()) ** 1.3
    assert np.abs(gray_indicator(f, 1.0, 1.3) - ref).max() < 1e-12


def test_gray_indicator_scale_invariant():
    f = rng.random((10, 10)) * 100 + 1
    base = gray_indicator(f, 1.0, 1.3)
    for k in (0.5, 2.0):
        assert np.abs(gray_indicator(k * f, 1.0, 1.3) - base).max() < 1e-12


def test_gray_indicator_rejects_zero_image():
    with pytest.raises(ValueError, match="all-zero image has no gray-level scale"):
        gray_indicator(np.zeros((5, 5)), 1.0, 1.3)
    f = np.ones((5, 5))
    f[2, 3] = -1e-3
    with pytest.raises(ValueError, match="image must be nonnegative"):
        gray_indicator(f, 1.0, 1.3)


# ------------------------------------------------------------- fit residual

def test_fit_residual_perfect_fit_is_zero():
    k = gaussian_kernel(2.0)
    g = np.full((10, 10), 5.0)
    b = np.ones((10, 10))
    e = fit_residual(g, b, 5.0, k)
    assert np.abs(e).max() < 1e-10


def test_fit_residual_zero_mean_reduces_to_masked_square():
    k = gaussian_kernel(1.5)
    g = rng.random((8, 8)) * 3
    one = convolve(np.ones_like(g), k)
    e = fit_residual(g, rng.random((8, 8)), 0.0, k)
    assert np.abs(e - g * g * one).max() < 1e-12


def test_fit_residual_matches_defining_integral():
    k = gaussian_kernel(1.2)
    g = rng.random((8, 8)) * 4
    b = rng.random((8, 8)) + 0.5
    ref = fit_residual_direct(g, b, 2.0, stencil(k))
    assert np.abs(fit_residual(g, b, 2.0, k) - ref).max() < 1e-10


def test_fit_residual_nonnegative():
    k = gaussian_kernel(3.0)
    for _ in range(5):
        e = fit_residual(rng.random((9, 9)) * 255, rng.random((9, 9)) + 0.2,
                         float(rng.random() * 255), k)
        assert e.min() >= 0.0


# ----------------------------------------------------------- fitting energy

def test_fitting_energy_zero_when_phase_one_fits():
    u = two_phase(np.ones((6, 6)))
    state = SegState(c=np.array([4.0, 0.0]), b=np.ones((6, 6)),
                     g=np.full((6, 6), 4.0), u=u)
    assert fitting_energy(state, ModelParams()) < 1e-9


def test_fitting_energy_hand_sum():
    # 2x2, both phases present, b = 1, large kernel irrelevant: g constant
    mask = np.array([[1.0, 1.0], [0.0, 0.0]])
    state = SegState(c=np.array([3.0, 1.0]), b=np.ones((2, 2)),
                     g=np.full((2, 2), 2.0), u=two_phase(mask))
    # e_0 = (2-3)^2 = 1 on phase 0 (2 px), e_1 = (2-1)^2 = 1 on phase 1 (2 px)
    val = fitting_energy(state, ModelParams(lambdas=(1.0, 1.0)))
    assert val == pytest.approx(4.0, rel=1e-12)


def test_fitting_energy_is_sum_of_inner_products():
    k = gaussian_kernel(3.0)
    mask = (rng.random((8, 8)) > 0.5).astype(float)
    state = SegState(c=np.array([1.5, 2.5]), b=rng.random((8, 8)) + 0.5,
                     g=rng.random((8, 8)) * 5, u=two_phase(mask))
    params = ModelParams(lambdas=(0.7, 1.3))
    expect = sum(params.lambdas[i]
                 * inner_product(float_masks(state.u)[i],
                                 fit_residual(state.g, state.b, state.c[i], k))
                 for i in range(2))
    assert fitting_energy(state, params, k) == pytest.approx(expect, rel=1e-12)


# ------------------------------------------------------------ length energy

def test_length_energy_single_phase_zero():
    masks = np.zeros((2, 16, 16))
    masks[0] = 1.0
    val = length_energy(from_masks(masks), mu=1.0, time_px=4.0)
    assert abs(val) < 1e-10


def test_length_potentials_one_phase_set_is_zero(monkeypatch):
    # no other phase: a zero field, made without a convolution
    def no_convolution(field, kernel):
        raise AssertionError("a one-phase set needs no convolution")

    for module in (ictmseg.field, ictmseg.energy):
        monkeypatch.setattr(module, "convolve", no_convolution)
    u = from_masks(np.ones((1, 9, 7)))
    pots = length_potentials(u, heat_kernel_pixels(2.0))
    assert pots.shape == (1, 9, 7)
    assert not pots.any()


@pytest.mark.parametrize("empty", [0, 1, 2])
def test_length_potentials_empty_phase_sees_full_mass(empty):
    k = heat_kernel_pixels(3.0)
    labels = np.random.default_rng(empty).integers(0, 2, (12, 10))
    labels[labels >= empty] += 1       # phases {0, 1, 2} minus `empty`
    u = IndicatorSet(labels, 3)
    assert not float_masks(u)[empty].any()
    pots = length_potentials(u, k)
    assert np.abs(pots[empty] - 1.0).max() < 1e-13
    for i in range(3):   # sum_{j != i} K_t*u_j against direct convolutions
        ref = sum(conv2d_direct(float_masks(u)[j], stencil(k)) for j in range(3) if j != i)
        assert np.abs(pots[i] - ref).max() < 1e-12


def test_length_energy_straight_edge():
    # Vertical interface of length N in an N x N grid. The functional sums
    # both phase perimeters, so the interface is counted twice: expect 2N.
    n = 128
    mask = np.zeros((n, n))
    mask[:, : n // 2] = 1.0
    time_px = 4.5  # kernel std = 3 px
    val = length_energy(two_phase(mask), mu=1.0, time_px=time_px)
    assert abs(val - 2 * n) / (2 * n) < 0.05


def test_length_energy_phase_relabeling_invariant():
    mask = (rng.random((20, 20)) > 0.4).astype(float)
    u = two_phase(mask)
    swapped = from_masks(float_masks(u)[::-1].copy())
    a = length_energy(u, mu=2.0, time_px=3.0)
    b = length_energy(swapped, mu=2.0, time_px=3.0)
    assert a == pytest.approx(b, rel=1e-12)
    assert a >= 0.0


# -------------------------------------------------------------- I-divergence

def test_idiv_energy_zero_weight_and_unit_image():
    g = np.ones((4, 5))
    assert idiv_energy(g, 0.0 * g, gamma=0.0, g_floor=1e-3) == 0.0
    # g = f = 1: sum(1 - 1*log 1) = N
    assert idiv_energy(g, 2.0 * g, gamma=2.0, g_floor=1e-3) == pytest.approx(2.0 * 20)


def test_idiv_energy_minimized_at_g_equals_f():
    f = rng.random((6, 6)) * 10 + 1
    base = idiv_energy(f, f, 1.0, 1e-3)
    for delta in (0.1, 0.01, -0.1, -0.01):
        assert idiv_energy(f + delta, f, 1.0, 1e-3) > base


def test_idiv_energy_floor_contract():
    with pytest.raises(ValueError):
        idiv_energy(np.full((3, 3), 1e-5), np.ones((3, 3)), 1.0, 1e-3)


def test_idiv_midpoint_convexity():
    f = rng.random((5, 5)) * 20 + 1
    a = rng.random((5, 5)) * 10 + 0.5
    b = rng.random((5, 5)) * 10 + 0.5
    mid = idiv_energy((a + b) / 2, f, 1.0, 1e-3)
    assert mid <= (idiv_energy(a, f, 1.0, 1e-3) + idiv_energy(b, f, 1.0, 1e-3)) / 2 + 1e-9


# ----------------------------------------------------------------- TV energy

def test_tv_energy_constant_field():
    alpha = rng.random((7, 7)) + 0.1
    val = tv_energy(tv_gradient(np.full((7, 7), 9.0), 0.01), alpha, nu=2.0)
    assert val == pytest.approx(2.0 * alpha.sum() * 0.01, rel=1e-12)


def test_tv_energy_unit_step_column():
    n = 32
    g = np.zeros((n, n))
    g[:, n // 2:] = 5.0
    alpha = np.ones((n, n))
    eps = 1e-4
    val = tv_energy(tv_gradient(g, eps), alpha, nu=1.0)
    # one jump of height 5 per row, plus the eps floor everywhere else
    expect = n * 5.0
    assert abs(val - expect) / expect < 1e-3


def test_tv_energy_linear_in_weight():
    g = rng.random((6, 6))
    alpha = rng.random((6, 6))
    v1 = tv_energy(tv_gradient(g, 0.01), alpha, nu=1.0)
    assert tv_energy(tv_gradient(g, 0.01), alpha, nu=2.0) == pytest.approx(2 * v1)


# --------------------------------------------------------------- total energy

def random_state(n=8):
    mask = (rng.random((n, n)) > 0.5).astype(float)
    return SegState(c=np.array([1.0, 3.0]), b=rng.random((n, n)) + 0.5,
                    g=rng.random((n, n)) * 5 + 0.5, u=two_phase(mask))


def test_total_energy_is_sum_of_term_ops():
    state = random_state()
    f = rng.random((8, 8)) * 5 + 0.5
    params = ModelParams(tau_in_pixels=True, tau=3.0)
    alpha = gray_indicator(f, params.sigma, params.p)
    fit, length, idiv, tv = total_energy(state, f, alpha, params)
    assert fit == pytest.approx(fitting_energy(state, params), rel=1e-10)
    assert length == pytest.approx(
        length_energy(state.u, params.mu, 3.0), rel=1e-10)
    assert idiv == pytest.approx(
        idiv_energy(state.g, params.gamma * f, params.gamma, params.g_floor), rel=1e-10)
    assert tv == pytest.approx(
        tv_energy(tv_gradient(state.g, params.eps_tv), alpha, params.nu), rel=1e-10)


def test_total_energy_reduces_when_denoising_off():
    state = random_state()
    f = state.g.copy()
    params = ModelParams(gamma=0.0, nu=0.0, tau_in_pixels=True, tau=3.0)
    alpha = np.ones_like(f)
    fit, length, idiv, tv = total_energy(state, f, alpha, params)
    assert idiv == 0.0 and tv == 0.0
    assert fit + length + idiv + tv == fit + length


def test_total_energy_perfect_single_phase_zero():
    n = 6
    u = two_phase(np.ones((n, n)))
    g = np.full((n, n), 2.0)
    state = SegState(c=np.array([2.0, 0.0]), b=np.ones((n, n)), g=g, u=u)
    params = ModelParams(gamma=0.0, nu=0.0, mu=1.0, tau_in_pixels=True, tau=3.0)
    assert sum(total_energy(state, g, np.ones_like(g), params)) < 1e-9


def test_partition_energy_matches_parts():
    state = random_state()
    params = ModelParams(mu=0.5, tau_in_pixels=True, tau=3.0)
    k = gaussian_kernel(params.rho)
    e_fields = np.stack([fit_residual(state.g, state.b, c, k) for c in state.c])
    val = partition_energy(e_fields, state.u, params, 3.0)
    expect = (sum(params.lambdas[i] * inner_product(float_masks(state.u)[i], e_fields[i])
                  for i in range(2))
              + length_energy(state.u, params.mu, 3.0))
    assert val == pytest.approx(expect, rel=1e-12)
