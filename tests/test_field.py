"""Grid-core tests: kernels, convolution, difference operators, solver."""

import hashlib
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ictmseg
import ictmseg.field

from ictmseg.field import (
    CUTOFF_SDS,
    biharmonic,
    convolve,
    divergence,
    gaussian_kernel,
    gradient,
    heat_kernel_pixels,
    implicit_symbol,
    inner_product,
    on_helper,
    solve_implicit,
)

from oracles import (assemble_implicit_matrix, biharmonic_direct, conv2d_direct,
                     divergence_slices, divergence_zero_filled, gradient_slices,
                     gradient_zero_filled, laplacian_direct, stencil)

rng = np.random.default_rng(20240811)

# Property-test inputs: field shapes with 1-pixel rows and columns included,
# and a seed for the field values so that a failing example replays exactly.
shapes = st.tuples(st.integers(1, 24), st.integers(1, 24))
seeds = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------- kernels

def test_gaussian_kernel_matches_sampled_density():
    k = gaussian_kernel(1.0)
    assert k.radius == 4
    # brute-force 9x9 evaluation of the sampled density, renormalized
    xs = np.arange(-4, 5, dtype=float)
    ref = np.exp(-0.5 * (xs[:, None] ** 2 + xs[None, :] ** 2))
    ref /= ref.sum()
    assert np.allclose(stencil(k), ref, atol=1e-15)
    # unnormalized center value of the 2-D density is 1/(2*pi*sigma^2)
    density_center = 1.0 / (2.0 * np.pi)
    renorm = stencil(k)[4, 4] / density_center
    assert abs(stencil(k)[4, 4] - density_center * renorm) < 1e-15
    assert abs(stencil(k).sum() - 1.0) < 1e-12


def test_kernel_symmetry_and_positivity():
    for std in (0.7, 1.0, 3.0, 1e-200):
        k = gaussian_kernel(std)
        w = stencil(k)
        assert (w >= 0).all()
        assert np.array_equal(w, w[::-1, :])
        assert np.array_equal(w, w[:, ::-1])
    # a tiny std is the identity, made without overflow
    assert np.array_equal(gaussian_kernel(1e-200).profile, [0.0, 1.0, 0.0])


def test_gaussian_kernel_rejects_bad_params():
    with pytest.raises(ValueError):
        gaussian_kernel(0.0)
    with pytest.raises(ValueError):
        gaussian_kernel(-1.0)
    with pytest.raises(ValueError, match="std_dev must be positive, got nan"):
        gaussian_kernel(np.nan)
    # wider than MAX_RADIUS: refused before any tap is made
    with pytest.raises(ValueError, match="kernel radius above 1048576 px"):
        gaussian_kernel(np.nextafter(2.0**18, np.inf))


def test_heat_kernel_std_and_second_moment():
    # normalized time 0.02 on a 256-long side: std = sqrt(0.04)*256 = 51.2 px
    k = heat_kernel_pixels(0.02 * 256.0**2)
    x = np.arange(-k.radius, k.radius + 1, dtype=float)
    std_pixels = np.sqrt(np.sum(k.profile * x * x))
    assert abs(std_pixels - 51.2) < 0.5 * 51.2 * 0.01
    # brute-force second moment of the full 2-D stencil along x
    w = stencil(k)
    r = k.radius
    xs = np.arange(-r, r + 1, dtype=float)
    m2 = float(np.sum(w * xs[None, :] ** 2))
    assert abs(np.sqrt(m2) - 51.2) / 51.2 < 0.01


def test_heat_kernel_too_small_time():
    with pytest.raises(ValueError, match="sub-pixel"):
        heat_kernel_pixels(1e-9 * 64.0**2)
    with pytest.raises(ValueError, match="time must be positive, got 0"):
        heat_kernel_pixels(0)
    with pytest.raises(ValueError, match="time must be positive, got nan"):
        heat_kernel_pixels(np.nan)


def test_heat_kernel_impulse_response():
    k = heat_kernel_pixels(2.0)
    n = 4 * k.radius + 1
    field = np.zeros((n, n))
    field[n // 2, n // 2] = 1.0
    out = convolve(field, k)
    r = k.radius
    c = n // 2
    assert np.allclose(out[c - r:c + r + 1, c - r:c + r + 1], stencil(k), atol=1e-14)


def test_heat_kernel_diffusion_shrinks_variance():
    field = rng.random((32, 32)) * 100
    prev = field.var()
    for t in (1.0, 4.0, 16.0):
        cur = convolve(field, heat_kernel_pixels(t)).var()
        assert cur < prev
        prev = cur


# ------------------------------------------------------------ convolution

def test_convolve_constant_field_unchanged():
    k = gaussian_kernel(1.5)
    field = np.full((10, 13), 7.25)
    assert np.allclose(convolve(field, k), 7.25, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(shape=shapes, excess=st.floats(0.1, 40.0))
def test_convolve_unit_mass_kernel_preserves_ones(shape, excess):
    # the solver takes K*1 = 1 instead of computing it; radius > every side
    k = gaussian_kernel((max(shape) + excess) / CUTOFF_SDS)
    assert k.radius > max(shape)
    assert np.abs(convolve(np.ones(shape), k) - 1.0).max() < 1e-13


def test_convolve_matches_direct_double_loop():
    k = gaussian_kernel(1.2)
    field = rng.random((8, 8)) * 10
    ref = conv2d_direct(field, stencil(k))
    assert np.abs(convolve(field, k) - ref).max() < 1e-12


@pytest.mark.parametrize("shape", [(1, 7), (5, 1), (12, 9)],
                         ids=["1x7", "5x1", "12x9"])
def test_convolve_large_radius_matches_direct(shape):
    # radius 36 exceeds every side: the reflected extension wraps many times
    k = heat_kernel_pixels(80.0)
    assert k.radius > max(shape)
    field = rng.random(shape)
    ref = conv2d_direct(field, stencil(k))
    assert np.abs(convolve(field, k) - ref).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(shape=shapes, std=st.floats(0.5, 20.0), seed=seeds)
def test_convolve_linearity(shape, std, seed):
    k = gaussian_kernel(std)
    f, g = np.random.default_rng(seed).random((2,) + shape)
    lhs = convolve(2.5 * f - 1.25 * g, k)
    rhs = 2.5 * convolve(f, k) - 1.25 * convolve(g, k)
    assert np.abs(lhs - rhs).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(shape=shapes, std=st.floats(0.5, 20.0), seed=seeds)
def test_convolve_self_adjoint(shape, std, seed):
    k = gaussian_kernel(std)
    f, g = np.random.default_rng(seed).random((2,) + shape)
    lhs = inner_product(convolve(f, k), g)
    rhs = inner_product(f, convolve(g, k))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


@settings(max_examples=40, deadline=None)
@given(shape=shapes, std=st.floats(0.5, 20.0), dt=st.floats(1e-3, 1.0), seed=seeds)
def test_transforms_leave_their_input_unchanged(shape, std, dt, seed):
    # the spectra are scaled and inverted in their own buffers, never in the
    # caller's array, and the cached multipliers are not scaled with them
    field = np.random.default_rng(seed).random(shape)
    k = gaussian_kernel(std)
    calls = [(field, lambda a: convolve(a, k)), (field < 0.5, lambda a: convolve(a, k)),
             (field, lambda a: solve_implicit(a, implicit_symbol(shape, dt)))]
    for arg, call in calls:
        before = arg.copy()
        out = call(arg)
        assert np.array_equal(arg, before) and arg.dtype == before.dtype
        assert not np.shares_memory(out, arg)
        assert np.array_equal(call(arg), out)


def test_run_imports_no_heavy_scipy_module():
    # Phase matching needs no scipy, and the transforms bind scipy.fft's
    # compiled extension without importing the scipy.fft package, which pulls
    # in scipy.special and the array-API layer (0.3 s of every run). Importing
    # scipy.signal made the first heat-kernel convolution of a 256^2 run
    # ~0.6 s slower; importing scipy.optimize adds ~20 MB of resident memory.
    # The intensity scale is np.quantile's without calling it: np.quantile
    # imports numpy.ma (+1.2 MB resident, ~15 ms a run). Numpy versions that
    # load numpy.ma themselves (1.x) leave nothing to check for it.
    code = ("import sys, numpy as np\n"
            "ma_by_numpy = 'numpy.ma' in sys.modules\n"
            "import ictmseg, ictmseg.cli\n"
            "u = ictmseg.IndicatorSet(np.eye(4, dtype=np.int64), 2)\n"
            "ictmseg.match_phases(u, u)\n"
            "ictmseg.convolve(np.ones((8, 8)), ictmseg.field.heat_kernel_pixels(80.0))\n"
            "ictmseg.field.solve_implicit(np.ones((8, 8)),\n"
            "                             ictmseg.field.implicit_symbol((8, 8), 0.1))\n"
            "ictmseg.ModelParams().scale_of(np.arange(4096.0).reshape(64, 64))\n"
            "heavy = ['scipy.signal', 'scipy.ndimage', 'scipy.optimize', 'scipy.fft',\n"
            "         'scipy.special', 'scipy._lib._array_api']\n"
            "if not ma_by_numpy: heavy.append('numpy.ma')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n")
    package_root = Path(ictmseg.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=package_root, check=True)
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------- the bound transform

def _scipy_reference(x, dct_type):
    from scipy import fft
    return (fft.dctn if dct_type == 2 else fft.idctn)(x, type=2, norm="ortho")


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       step=st.tuples(st.integers(1, 3), st.integers(1, 3)), transpose=st.booleans(),
       dct_type=st.sampled_from([2, 3]), seed=seeds)
def test_bound_transform_equals_scipy_fft(shape, step, transpose, dct_type, seed):
    # byte for byte, as scipy.fft.dctn/idctn(type=2, norm="ortho"), on
    # C-contiguous arrays and strided or transposed views, into a fresh array
    # or in place; a fresh-output call leaves its input unchanged
    big = np.random.default_rng(seed).standard_normal((shape[0] * step[0], shape[1] * step[1]))
    view = big[::step[0], ::step[1]]
    x = view.T if transpose else view
    expected = _scipy_reference(x, dct_type).tobytes()
    before = big.copy()
    fresh = ictmseg.field._dct(x, dct_type, None)
    assert fresh.tobytes() == expected
    assert big.tobytes() == before.tobytes() and not np.shares_memory(fresh, big)
    twin = before[::step[0], ::step[1]]
    twin = twin.T if transpose else twin
    in_place = ictmseg.field._dct(twin, dct_type, twin)
    assert np.shares_memory(in_place, before)
    assert twin.tobytes() == expected


def test_scipy_fft_imports_after_the_binding():
    # the bound extension is kept out of sys.modules; scipy.fft, imported
    # later in the same process, loads its own and gives the same bits
    code = ("import sys, numpy as np, ictmseg.field as F\n"
            "x = np.random.default_rng(3).standard_normal((9, 13))\n"
            "ours = [F._dct(x, t, None).tobytes() for t in (2, 3)]\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "import scipy.fft\n"
            "theirs = [scipy.fft.dctn(x, type=2, norm='ortho').tobytes(),\n"
            "          scipy.fft.idctn(x, type=2, norm='ortho').tobytes()]\n"
            "print(ours == theirs, ours == [F._dct(x, t, None).tobytes() for t in (2, 3)])\n")
    package_root = Path(ictmseg.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=package_root, check=True)
    assert proc.stdout.split("\n")[:2] == ["[]", "True True"]


def test_binding_after_scipy_fft_import():
    # scipy.fft imported first, with its own copy of the extension loaded: the
    # binding still loads from the file and gives scipy.fft's bits
    code = ("import numpy as np, scipy.fft\n"
            "import ictmseg.field as F\n"
            "x = np.random.default_rng(3).standard_normal((9, 13))\n"
            "ours = [F._dct(x, t, None).tobytes() for t in (2, 3)]\n"
            "theirs = [scipy.fft.dctn(x, type=2, norm='ortho').tobytes(),\n"
            "          scipy.fft.idctn(x, type=2, norm='ortho').tobytes()]\n"
            "print(ours == theirs)\n")
    package_root = Path(ictmseg.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=package_root, check=True)
    assert proc.stdout.strip() == "True"


def test_transform_load_fails_loudly(monkeypatch, tmp_path):
    # no scipy found, a scipy without the extension file, or a file that does
    # not load: the loader raises ImportError, as there is no other DCT path
    import importlib.machinery
    import importlib.util
    fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations = [str(tmp_path)]
    folder = tmp_path / "fft" / "_pocketfft"
    searched = [str(folder / ("pypocketfft" + suffix))
                for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    for found, names in ((None, ["pypocketfft"]), (fake, searched)):
        with monkeypatch.context() as m:
            m.setattr(importlib.util, "find_spec", lambda name, package=None: found)
            with pytest.raises(ImportError) as missing:
                ictmseg.field._load_dct()
            assert all(name in str(missing.value) for name in names)

    folder.mkdir(parents=True)
    Path(searched[0]).write_bytes(b"\0" * 64)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: fake)
    with pytest.raises(ImportError) as broken:
        ictmseg.field._load_dct()
    assert "searched" not in str(broken.value)


# ------------------------------------------------------------ helper thread

pinning = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                             reason="no CPU affinity on this platform")


@pytest.fixture
def fresh_helper(monkeypatch):
    """on_helper's helper made afresh under the test's patches of the CPU
    count, and shut down after the test."""
    ictmseg.field._helper.cache_clear()
    yield monkeypatch
    ictmseg.field._helper().shutdown()
    ictmseg.field._helper.cache_clear()


def test_on_helper_runs_jobs_in_order_on_one_thread(fresh_helper):
    # every job runs on the one helper thread, not the caller, one at a time
    # in the order given, and a later batch on the same thread; each result
    # is the bits fn(*args) gives in the caller
    k = gaussian_kernel(2.0)
    fields = [rng.standard_normal((16, 12)) for _ in range(5)]
    ran = []

    def job(i, field):
        ran.append((i, threading.get_ident()))
        return convolve(field, k)

    first = [on_helper(job, i, f) for i, f in enumerate(fields[:4])]
    out = [result() for result in first]
    out.append(on_helper(job, 4, fields[4])())
    assert [i for i, _ in ran] == list(range(5))
    threads = {thread for _, thread in ran}
    assert len(threads) == 1 and threading.get_ident() not in threads
    assert [o.tobytes() for o in out] == [convolve(f, k).tobytes() for f in fields]


@pytest.mark.parametrize("cpus", [1, 2])
def test_on_helper_without_sched_getaffinity(fresh_helper, cpus):
    # macOS and Windows have no CPU affinity call; whatever the CPU count,
    # a job runs on the helper thread
    fresh_helper.delattr(os, "sched_getaffinity", raising=False)
    fresh_helper.setattr(os, "cpu_count", lambda: cpus)
    field = rng.random((9, 7)) < 0.5
    k = gaussian_kernel(1.5)
    thread, out = on_helper(lambda f: (threading.get_ident(), convolve(f, k)), field)()
    assert thread != threading.get_ident()
    assert out.tobytes() == convolve(field, k).tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_on_helper_reraises_a_jobs_exception(fresh_helper, cpus):
    # whatever the CPU count, a failing job raises nothing in on_helper: the
    # result callable re-raises its exception, and the jobs handed over after
    # it run on the helper thread, in order
    fresh_helper.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                         raising=False)
    fresh_helper.setattr(os, "cpu_count", lambda: cpus)
    ran = []

    def fail():
        ran.append(None)
        raise ZeroDivisionError("in the job")

    def job(i):
        ran.append(i)
        return threading.get_ident()

    result = on_helper(fail)
    later = [on_helper(job, i) for i in range(3)]
    with pytest.raises(ZeroDivisionError, match="in the job"):
        result()
    threads = {run() for run in later}
    assert ran == [None, 0, 1, 2]
    assert len(threads) == 1 and threading.get_ident() not in threads


@pinning
def test_one_cpu_gives_the_same_labels():
    # A process limited to one CPU hands its jobs to the one helper thread,
    # which then shares the caller's CPU, as a process with more CPUs does.
    # Both find the label map of the pinned three-phase run and the same bits
    # of g and b, and importing the package starts no thread. A BLAS allowed
    # two threads changes no bit either: no sum of the solver goes through it.
    code = (
        "import hashlib, threading, numpy as np, ictmseg\n"
        "alone = threading.active_count()\n"
        "n = 64\n"
        "yy, xx = np.mgrid[0:n, 0:n]\n"
        "clean = np.full((n, n), 100.0)\n"
        "clean[8:28, 6:40] = 30.0\n"
        "clean[(yy - 44) ** 2 + (xx - 40) ** 2 <= 14 ** 2] = 200.0\n"
        "f = np.clip(clean * (0.9 + 0.2 * xx / (n - 1))\n"
        "            * ictmseg.sample_gamma_field(n, n, 10.0, seed=11), 0.0, 255.0)\n"
        "labels = np.zeros((n, n), dtype=np.int64)\n"
        "labels[11:25, 9:37] = 1\n"
        "labels[(yy - 44) ** 2 + (xx - 40) ** 2 <= 10 ** 2] = 2\n"
        "params = ictmseg.ModelParams(lambdas=(1.0,) * 3, tau=8.0, tau_in_pixels=True,\n"
        "                             max_outer=40)\n"
        "state, _ = ictmseg.segment(f, ictmseg.IndicatorSet(labels, 3), params)\n"
        "print(alone, threading.active_count(),\n"
        "      hashlib.sha256(state.u.labels().astype(np.uint8).tobytes()).hexdigest(),\n"
        "      hashlib.sha256(state.g.tobytes() + state.b.tobytes()).hexdigest())\n")
    package_root = Path(ictmseg.__file__).resolve().parents[1]
    one_cpu = min(os.sched_getaffinity(0))

    def run(preexec_fn=None, **env):
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=package_root, check=True, timeout=120,
                              preexec_fn=preexec_fn, env={**os.environ, **env}).stdout.split()

    pinned = run(lambda: os.sched_setaffinity(0, {one_cpu}))
    default = run()
    blas2 = run(OPENBLAS_NUM_THREADS="2")
    digest = "9d688a2a846e46eaef1bf65141ac5e2a7c48a8020718a251beeb867cffa6c990"
    # the one helper thread starts with the first bias update
    assert pinned[:3] == default[:3] == ["1", "2", digest]
    assert blas2 == default and default[3] == pinned[3]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_on_helper_in_forked_child(fresh_helper):
    # a helper started before a fork does not run in the child; the child
    # makes its own and returns the parent's bits instead of waiting for ever
    k = gaussian_kernel(2.0)
    fields = [rng.standard_normal((16, 16)) for _ in range(3)]

    def bits():
        results = [on_helper(convolve, f, k) for f in fields]
        return hashlib.sha256(b"".join(result().tobytes() for result in results)).digest()

    expected = bits()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            signal.alarm(20)
            os.write(write_end, bits())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        digest = pipe.read()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert digest == expected
    assert expected == hashlib.sha256(
        b"".join(convolve(f, k).tobytes() for f in fields)).digest()


# ---------------------------------------------------- gradient / divergence

def test_gradient_constant_zero():
    gx, gy = gradient(np.full((6, 6), 3.0))
    assert not gx.any() and not gy.any()


def test_gradient_ramp():
    field = np.tile(np.arange(8.0), (5, 1))
    gx, gy = gradient(field)
    assert np.allclose(gx[:, :-1], 1.0)
    assert np.allclose(gx[:, -1], 0.0)
    assert not gy.any()


def test_divergence_of_ramp_gradient_zero_interior():
    field = np.tile(np.arange(8.0), (8, 1))
    div = divergence(*gradient(field), np.empty_like(field))
    assert np.allclose(div[1:-1, 1:-1], 0.0)


def test_gradient_divergence_exact_adjoint():
    for _ in range(5):
        f = rng.random((8, 8))
        p = rng.random((8, 8))
        q = rng.random((8, 8))
        gx, gy = gradient(f)
        lhs = inner_product(gx, p) + inner_product(gy, q)
        rhs = -inner_product(f, divergence(p, q, np.empty_like(p)))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@settings(max_examples=60, deadline=None)
@given(shape=shapes, seed=seeds)
def test_gradient_and_divergence_equal_zero_filled_formulas(shape, seed):
    # bit for bit, signed zeros included. Exact zeros are drawn on purpose;
    # -0.0 is not: a flux of g >= g_floor > 0 never holds one.
    r = np.random.default_rng(seed)
    f, px, py = 2.0 * r.random((3,) + shape) - 1.0
    for a in (f, px, py):
        a[r.random(shape) < 0.3] = 0.0
    for got, ref in zip(gradient(f), gradient_zero_filled(f)):
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    got, ref = divergence(px, py, np.empty_like(px)), divergence_zero_filled(px, py)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)), seed=seeds,
       transposed=st.booleans())
def test_gradient_and_divergence_equal_slice_formulas(shape, seed, transposed):
    # the flattened x passes give the row-wise slices' bytes, on every small
    # shape (width 1 and 2 and height 1 included), for C-ordered inputs and
    # transposed views alike; signed zeros are drawn, and the last column of
    # the divergence stays +0.0 where px[:, -2] is +-0.0
    r = np.random.default_rng(seed)
    f, px, py = 2.0 * r.random((3,) + shape) - 1.0
    for a in (f, px, py):
        a[r.random(shape) < 0.3] = 0.0
        a[r.random(shape) < 0.2] = -0.0
    if transposed:
        f, px, py = (np.ascontiguousarray(a.T).T for a in (f, px, py))
    for got, ref in zip(gradient(f), gradient_slices(f)):
        assert got.flags.c_contiguous and got.tobytes() == ref.tobytes()
    got = divergence(px, py, np.empty(shape))
    assert got.tobytes() == divergence_slices(px, py).tobytes()
    x_only = divergence(px, np.zeros(shape), np.empty(shape))
    if shape[1] > 1:
        assert not np.signbit(x_only[:, -1][px[:, -2] == 0.0]).any()


def test_divergence_refuses_a_strided_out():
    px = np.ones((4, 5))
    with pytest.raises(ValueError):
        divergence(px, px, np.empty((5, 4)).T)


def test_divergence_shape_mismatch():
    with pytest.raises(ValueError):
        divergence(np.zeros((3, 3)), np.zeros((3, 4)), np.empty((3, 3)))


# ------------------------------------------------------------- biharmonic

def test_biharmonic_annihilates_constants_and_affine_interior():
    assert not biharmonic(np.full((7, 7), 4.2)).any()
    yy, xx = np.mgrid[0:9, 0:9].astype(float)
    out = biharmonic(1.5 + 2.0 * xx + 3.0 * yy)
    assert np.allclose(out[2:-2, 2:-2], 0.0, atol=1e-12)


def test_biharmonic_matches_direct_stencil():
    field = rng.random((8, 8)) * 5
    assert np.abs(biharmonic(field) - biharmonic_direct(field)).max() < 1e-12


# ------------------------------------------------------------------ solver

def test_solve_implicit_constant_passthrough():
    out = solve_implicit(np.full((6, 10), 3.5), implicit_symbol((6, 10), 0.3))
    assert np.allclose(out, 3.5, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(shape=shapes, dt=st.floats(1e-3, 1.0), seed=seeds)
def test_solve_implicit_round_trip(shape, dt, seed):
    field = np.random.default_rng(seed).random(shape)
    rhs = field + dt * biharmonic(field)
    symbol = implicit_symbol(shape, dt)
    back = solve_implicit(rhs, symbol)
    assert np.abs(back - field).max() < 1e-10
    # a symbol reused gives the same bits and cannot be written to
    assert np.array_equal(solve_implicit(rhs, symbol), back)
    assert not symbol.flags.writeable


def test_solve_implicit_matches_dense_solve():
    dt = 0.25
    rhs = rng.random((4, 4))
    mat = assemble_implicit_matrix((4, 4), dt)
    ref = np.linalg.solve(mat, rhs.ravel()).reshape(4, 4)
    assert np.abs(solve_implicit(rhs, implicit_symbol((4, 4), dt)) - ref).max() < 1e-10


def test_solve_implicit_residual_bound():
    rhs = rng.random((12, 17)) * 50
    x = solve_implicit(rhs, implicit_symbol(rhs.shape, 0.7))
    residual = x + 0.7 * biharmonic(x) - rhs
    assert np.abs(residual).max() <= 1e-8 * np.abs(rhs).max()


def test_solve_implicit_rejects_bad_dt():
    with pytest.raises(ValueError):
        solve_implicit(np.zeros((4, 4)), implicit_symbol((4, 4), 0.0))
    for dt in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}"):
            implicit_symbol((4, 4), dt)


# ----------------------------------------------------------- inner product

def test_inner_product_basics():
    ones = np.ones((4, 4))
    assert inner_product(ones, ones) == 16.0
    m1 = np.zeros((4, 4))
    m1[:2] = 1.0
    assert inner_product(m1, 1.0 - m1) == 0.0
    with pytest.raises(ValueError, match=r"field shapes differ: \(4, 4\) vs \(2, 8\)"):
        inner_product(ones, np.ones((2, 8)))


def test_inner_product_matches_direct_sum():
    a = rng.random((8, 8))
    b = rng.random((8, 8))
    direct = sum(a[i, j] * b[i, j] for i in range(8) for j in range(8))
    assert abs(inner_product(a, b) - direct) < 1e-12 * max(1.0, abs(direct))


def test_inner_product_bits_do_not_depend_on_blas_threads():
    # a BLAS dot splits a 65536-long sum over the threads it may use, and its
    # bits then depend on their number; inner_product's own loop does not
    code = ("import numpy as np\nfrom ictmseg.field import inner_product\n"
            "a, b = np.random.default_rng(1).standard_normal((2, 256, 256))\n"
            "print(inner_product(a, b).hex())\n")
    package_root = Path(ictmseg.__file__).resolve().parents[1]
    bits = {n: subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=package_root, check=True, timeout=60,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": n}).stdout
            for n in ("1", "2")}
    assert bits["1"] == bits["2"] != ""


def test_laplacian_reflective_closure():
    # one-pixel bump at the corner: reflected neighbors see the bump twice
    field = np.zeros((4, 4))
    field[0, 0] = 1.0
    out = laplacian_direct(field)
    assert out[0, 0] == pytest.approx(-2.0)
