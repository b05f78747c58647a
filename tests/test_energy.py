"""Energy-term tests, each against a hand or brute-force reference."""

import numpy as np
import pytest

import ictmseg.energy
import ictmseg.field
from ictmseg.energy import (
    EnergyBreakdown,
    IndicatorSet,
    ModelParams,
    SegState,
    gray_indicator,
    idiv_energy,
    length_potentials,
    tv_energy,
)
from ictmseg.errors import ConfigError, DegenerateInputError
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


@pytest.mark.parametrize("field, kwargs", [
    ("tol1", {"tol1": float("nan")}),
    ("dt", {"dt": float("inf")}),
    ("lambdas", {"lambdas": (1.0, float("-inf"))}),
])
def test_params_must_be_finite(field, kwargs):
    # NaN passes every ordering check, and inf every lower bound
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        ModelParams(**kwargs).validate()


def test_heat_time_conversion():
    p = ModelParams(tau=0.02)
    assert p.heat_time_pixels((256, 128)) == pytest.approx(0.02 * 256**2)
    assert ModelParams(tau=4.5, tau_in_pixels=True).heat_time_pixels((99, 2)) == 4.5


def test_indicator_set_contracts():
    # from_labels is the one constructor: it checks, copies and freezes its map
    labels = np.array([[0, 0, 1], [0, 0, 1], [2, 0, 1]], dtype=np.int32)
    u = IndicatorSet.from_labels(labels, 3)
    assert u.n == 3 and u.shape == (3, 3)
    assert np.array_equal(u.labels(), labels)
    labels[0, 0] = 2
    assert u.labels()[0, 0] == 0
    assert not u.labels().flags.writeable
    with pytest.raises(ValueError):
        u.labels()[0, 0] = 1
    for bad, n in ((labels.astype(np.float64), 3), (labels[None], 3), (labels[0], 3),
                   (labels, 2), (labels - 1, 3)):
        with pytest.raises(ValueError):
            IndicatorSet.from_labels(bad, n)
    with pytest.raises(TypeError):
        IndicatorSet(labels)


# ------------------------------------------------------------ gray indicator

def test_gray_indicator_constant_image_is_one():
    for p in (0.5, 1.3, 2.0):
        alpha = gray_indicator(np.full((12, 12), 40.0), sigma=1.0, p=p)
        assert np.allclose(alpha, 1.0, atol=1e-12)


def test_gray_indicator_dark_region_below_one():
    f = np.full((24, 24), 30.0)
    f[:, 12:] = 200.0
    alpha = gray_indicator(f, sigma=1.0, p=1.3)
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
    with pytest.raises(DegenerateInputError):
        gray_indicator(np.zeros((5, 5)), 1.0, 1.3)


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
    u = IndicatorSet.from_labels(labels, 3)
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
    assert idiv_energy(g, g, gamma=0.0, g_floor=1e-3) == 0.0
    # g = f = 1: sum(1 - 1*log 1) = N
    assert idiv_energy(g, g, gamma=2.0, g_floor=1e-3) == pytest.approx(2.0 * 20)


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
    val = tv_energy(np.full((7, 7), 9.0), alpha, nu=2.0, eps_tv=0.01)
    assert val == pytest.approx(2.0 * alpha.sum() * 0.01, rel=1e-12)


def test_tv_energy_unit_step_column():
    n = 32
    g = np.zeros((n, n))
    g[:, n // 2:] = 5.0
    alpha = np.ones((n, n))
    eps = 1e-4
    val = tv_energy(g, alpha, nu=1.0, eps_tv=eps)
    # one jump of height 5 per row, plus the eps floor everywhere else
    expect = n * 5.0
    assert abs(val - expect) / expect < 1e-3


def test_tv_energy_linear_in_weight():
    g = rng.random((6, 6))
    alpha = rng.random((6, 6))
    v1 = tv_energy(g, alpha, nu=1.0, eps_tv=0.01)
    assert tv_energy(g, alpha, nu=2.0, eps_tv=0.01) == pytest.approx(2 * v1)


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
    bd = total_energy(state, f, alpha, params)
    assert bd.total == pytest.approx(bd.fit + bd.length + bd.idiv + bd.tv, rel=1e-12)
    assert bd.fit == pytest.approx(fitting_energy(state, params), rel=1e-10)
    assert bd.length == pytest.approx(
        length_energy(state.u, params.mu, 3.0), rel=1e-10)
    assert bd.idiv == pytest.approx(
        idiv_energy(state.g, f, params.gamma, params.g_floor), rel=1e-10)
    assert bd.tv == pytest.approx(
        tv_energy(state.g, alpha, params.nu, params.eps_tv), rel=1e-10)


def test_total_energy_reduces_when_denoising_off():
    state = random_state()
    f = state.g.copy()
    params = ModelParams(gamma=0.0, nu=0.0, tau_in_pixels=True, tau=3.0)
    alpha = np.ones_like(f)
    bd = total_energy(state, f, alpha, params)
    assert bd.idiv == 0.0 and bd.tv == 0.0
    assert bd.total == bd.fit + bd.length


def test_total_energy_perfect_single_phase_zero():
    n = 6
    u = two_phase(np.ones((n, n)))
    g = np.full((n, n), 2.0)
    state = SegState(c=np.array([2.0, 0.0]), b=np.ones((n, n)), g=g, u=u)
    params = ModelParams(gamma=0.0, nu=0.0, mu=1.0, tau_in_pixels=True, tau=3.0)
    bd = total_energy(state, g, np.ones_like(g), params)
    assert bd.total < 1e-9


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


def test_energy_breakdown_build():
    bd = EnergyBreakdown.build(1.0, 2.0, 3.0, 4.0)
    assert bd.total == 10.0
