"""End-to-end command tests through the CLI entry point."""

import csv
import filecmp
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ictmseg
from ictmseg.cli import ENERGY_COLUMNS, _build_init, main
from ictmseg.fileio import read_f64, read_pgm, write_f64, write_pgm

from oracles import float_masks

SEG_CFG = """
synth.size = 48,48
synth.background = 60
synth.region = disk:24,24,14,190
noise.kind = gamma
noise.looks = 10
init = circle:24,24,10
n_phases = 2
gamma = 0.1
nu = 1.0
max_outer = 30
seed = 11
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_synth_command_outputs(tmp_path):
    cfg = write_cfg(tmp_path, "synth.size = 32,32\nsynth.region = disk:16,16,8,200\n"
                              "synth.bias = ramp:0.5,1.5\n")
    rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 0
    clean = read_f64(tmp_path / "o" / "clean.f64")
    truth = read_pgm(tmp_path / "o" / "truth.pgm")
    bias = read_f64(tmp_path / "o" / "bias.f64")
    assert clean.shape == (32, 32) and set(np.unique(truth)) == {0.0, 1.0}
    assert np.allclose(clean, np.where(truth == 1, 200.0, 60.0) * bias)
    assert (tmp_path / "o" / "manifest.txt").exists()


def test_noise_command_byte_identical_rerun(tmp_path):
    cfg = write_cfg(tmp_path, "synth.size = 24,24\nsynth.background = 90\n"
                              "noise.kind = gamma\nnoise.looks = 10\nseed = 3\n")
    for d in ("n1", "n2"):
        assert main(["noise", "--config", str(cfg),
                     "--out", str(tmp_path / d), "--quiet"]) == 0
    assert filecmp.cmp(tmp_path / "n1" / "noisy.pgm", tmp_path / "n2" / "noisy.pgm",
                       shallow=False)
    assert filecmp.cmp(tmp_path / "n1" / "noisy.f64", tmp_path / "n2" / "noisy.f64",
                       shallow=False)
    # different seed changes bytes
    assert main(["noise", "--config", str(cfg), "--seed", "4",
                 "--out", str(tmp_path / "n3"), "--quiet"]) == 0
    assert not filecmp.cmp(tmp_path / "n1" / "noisy.f64", tmp_path / "n3" / "noisy.f64",
                           shallow=False)


def test_segment_command_full_run(tmp_path):
    cfg = write_cfg(tmp_path, SEG_CFG)
    out = tmp_path / "seg"
    assert main(["segment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    labels = read_pgm(out / "labels.pgm")
    assert set(np.unique(labels)) <= {0.0, 1.0}
    for name in ("mask_0.pgm", "mask_1.pgm", "denoised.pgm", "denoised.f64",
                 "bias.f64", "corrected.f64", "corrected.pgm", "energy.csv",
                 "metrics.csv", "truth.pgm", "manifest.txt"):
        assert (out / name).exists(), name
    with open(out / "energy.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ENERGY_COLUMNS
    assert len(rows) > 2
    inner = next(r for r in rows[1:] if r[1] != "")
    assert inner[8] != "" and inner[9] != "" and inner[11] != ""  # z_sq, xi, err2
    assert inner[3] == "" and inner[7] == "" and inner[10] == ""  # E_len, E_u, err1
    outer = next(r for r in rows[1:] if r[1] == "")
    assert outer[3] != "" and outer[7] != "" and outer[10] != ""
    with open(out / "metrics.csv") as fh:
        mrows = list(csv.DictReader(fh))
    assert float(mrows[-1]["dsc"]) > 0.9
    # masks partition the image
    m0 = read_pgm(out / "mask_0.pgm")
    m1 = read_pgm(out / "mask_1.pgm")
    assert np.array_equal((m0 > 127) | (m1 > 127), np.ones((48, 48), dtype=bool))
    assert not ((m0 > 127) & (m1 > 127)).any()


def test_segment_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, SEG_CFG)
    for d in ("a", "b"):
        assert main(["segment", "--config", str(cfg),
                     "--out", str(tmp_path / d), "--quiet"]) == 0
    for name in ("labels.pgm", "denoised.f64", "bias.f64", "energy.csv",
                 "metrics.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name


def test_segment_noiseless_exact_via_cli(tmp_path):
    cfg = write_cfg(tmp_path, "synth.size = 48,48\nsynth.background = 50\n"
                              "synth.region = rect:10,14,24,20,200\n"
                              "init = rect:8,8,32,32\n"
                              "gamma = 0\nnu = 0\nfreeze_bias = true\n"
                              "max_inner = 0\n")
    out = tmp_path / "exact"
    assert main(["segment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    labels = read_pgm(out / "labels.pgm")
    truth = read_pgm(out / "truth.pgm")
    # phase indices may be swapped relative to truth; compare as partitions
    direct = np.array_equal(labels, truth)
    flipped = np.array_equal(1.0 - labels, truth)
    assert direct or flipped


def test_denoise_command(tmp_path):
    cfg = write_cfg(tmp_path, "synth.size = 32,32\nsynth.background = 80\n"
                              "synth.region = rect:8,8,16,16,180\n"
                              "noise.kind = gamma\nnoise.looks = 10\n"
                              "gamma = 0.5\nnu = 2.0\nseed = 5\n")
    out = tmp_path / "dn"
    assert main(["denoise", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    g = read_f64(out / "denoised.f64")
    assert g.shape == (32, 32) and np.isfinite(g).all()
    with open(out / "energy.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ENERGY_COLUMNS
    assert all(r[3] == "" for r in rows[1:])  # no length column in pure denoise


def test_denoise_makes_no_fit_kernel_pass(tmp_path, monkeypatch):
    # the flow has no fitting term: no partition, bias or K*b, K*b^2 is built,
    # and the gray indicator's K_sigma is the one convolution of the run;
    # `convolve_each` calls `convolve` through the `field` global
    import ictmseg.energy
    import ictmseg.field
    import ictmseg.solve
    from ictmseg.field import convolve, gaussian_kernel

    radii = []

    def counting(field, kernel):
        radii.append(kernel.radius)
        return convolve(field, kernel)

    for module in (ictmseg.field, ictmseg.energy, ictmseg.solve):
        monkeypatch.setattr(module, "convolve", counting, raising=False)
    cfg = write_cfg(tmp_path, "synth.size = 32,32\nsynth.region = rect:8,8,16,16,180\n"
                              "noise.kind = gamma\nnoise.looks = 10\nseed = 5\n")
    out = tmp_path / "dn"
    assert main(["denoise", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert radii == [gaussian_kernel(1.0).radius]


def test_denoise_starts_no_thread(tmp_path):
    # the image flow alone makes no pair of convolutions to run side by side
    cfg = write_cfg(tmp_path, "synth.size = 32,32\nsynth.region = rect:8,8,16,16,180\n"
                              "noise.kind = gamma\nnoise.looks = 10\nseed = 5\n")
    code = ("import sys, threading\n"
            "from ictmseg.cli import main\n"
            "code = main(['denoise', '--config', sys.argv[1], '--out', sys.argv[2], '--quiet'])\n"
            "print(code, threading.active_count())\n")
    package_root = Path(ictmseg.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "dn")],
                          capture_output=True, text=True, cwd=package_root, check=True)
    assert proc.stdout.split() == ["0", "1"]


def test_metrics_command_identical_masks(tmp_path, capsys):
    mask = np.zeros((8, 8))
    mask[2:6, 2:6] = 255.0
    write_pgm(tmp_path / "m.pgm", mask)
    rc = main(["metrics", str(tmp_path / "m.pgm"), str(tmp_path / "m.pgm")])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.count("1.0000") == 4


def test_metrics_command_multiclass(tmp_path, capsys):
    a = np.zeros((6, 6))
    a[:2] = 1.0
    a[4:] = 2.0
    write_pgm(tmp_path / "a.pgm", a)
    b = a.copy()
    b[0, 0] = 1.0
    write_pgm(tmp_path / "b.pgm", b)
    rc = main(["metrics", str(tmp_path / "b.pgm"), str(tmp_path / "a.pgm"),
               "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["class"] for r in rows] == ["label_0", "label_1", "label_2"]
    assert float(rows[2]["dsc"]) == 1.0


def test_exit_code_2_on_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "nonsense = 1\n")
    assert main(["segment", "--config", str(cfg), "--quiet"]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert main(["segment", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_exit_code_2_on_contract_violation(tmp_path, capsys):
    # lambda = 0 violates the segmentation contract
    cfg = write_cfg(tmp_path, "synth.size = 16,16\ninit = circle:8,8,4\n"
                              "lambda = 0\nout = x\n")
    assert main(["segment", "--config", str(cfg), "--out",
                 str(tmp_path / "x"), "--quiet"]) == 2
    assert "lambda" in capsys.readouterr().err


def test_exit_code_2_on_truncated_float_raster(tmp_path, capsys):
    # the magic and half a header: an error naming the file, not a traceback
    path = tmp_path / "short.f64"
    path.write_bytes(b"FGRID64\x00\x02\x00\x00\x00")
    cfg = write_cfg(tmp_path, f"input = {path}\ninit = circle:1,1,1\n")
    assert main(["segment", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    assert "short.f64" in capsys.readouterr().err


def test_exit_code_2_on_bad_pgm_header(tmp_path, capsys):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\nab 2\n255\n" + bytes(4))
    cfg = write_cfg(tmp_path, f"input = {path}\ninit = circle:1,1,1\n")
    assert main(["segment", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    assert "bad.pgm" in capsys.readouterr().err


@pytest.mark.parametrize("spec, count", [("circle:8,8", 3), ("circle:8,8,a", 3),
                                         ("circle:", 3), ("rect:1,2,3", 4),
                                         ("checkerboard:", 1), ("checkerboard:x", 1)])
def test_exit_code_2_on_malformed_init(tmp_path, capsys, spec, count):
    cfg = write_cfg(tmp_path, f"synth.size = 16,16\ninit = {spec}\n")
    assert main(["segment", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: init ") and f"expected {count} values" in err, err


def test_init_specs_give_their_shapes():
    f = np.arange(16.0 * 12).reshape(16, 12)
    yy, xx = np.mgrid[0:16, 0:12]
    circle = _build_init("circle: 6, 8, 4", f, 2).labels()
    assert np.array_equal(circle == 0, (xx - 6) ** 2 + (yy - 8) ** 2 <= 16)
    rect = _build_init("rect:2,3,5,4", f, 2).labels()
    assert np.array_equal(rect == 0, (xx >= 2) & (xx < 7) & (yy >= 3) & (yy < 7))
    board = _build_init("checkerboard:3", f, 2).labels()
    assert np.array_equal(board, ((yy // 3) + (xx // 3)) % 2)


DENOISE_CFG = """
synth.size = 32,32
synth.background = 80
synth.region = rect:8,8,16,16,180
noise.kind = gamma
noise.looks = 10
seed = 5
"""


@pytest.mark.parametrize("command, text", [("segment", SEG_CFG), ("denoise", DENOISE_CFG)],
                         ids=["segment", "denoise"])
def test_manifest_reruns_as_config(tmp_path, command, text):
    # the manifest echoes every value the run used, the step cap `denoise`
    # falls back on included: run as a config, it makes the same bytes
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([command, "--config", str(write_cfg(tmp_path, text)), "--out", str(first),
                 "--quiet"]) == 0
    assert main([command, "--config", str(first / "manifest.txt"), "--out", str(second),
                 "--quiet"]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        a, b = ([line for line in (d / name).read_bytes().splitlines()
                 if not line.startswith(b"out = ")] for d in (first, second))
        assert a == b, name


def test_exit_code_3_on_numerical_failure(tmp_path, monkeypatch, capsys):
    from ictmseg import cli
    from ictmseg.errors import NumericalFailure

    def boom(*a, **k):
        raise NumericalFailure("synthetic blow-up", outer=1, inner=2)

    monkeypatch.setattr(cli, "segment", boom)
    cfg = write_cfg(tmp_path, SEG_CFG)
    assert main(["segment", "--config", str(cfg),
                 "--out", str(tmp_path / "z"), "--quiet"]) == 3
    assert "outer iteration 1" in capsys.readouterr().err


def test_console_entry_point_runs():
    # run beside the imported package, so an uninstalled checkout works too
    package_root = Path(ictmseg.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "ictmseg", "--version"],
                          capture_output=True, text=True, cwd=package_root)
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_warnings_reach_stderr_and_manifest(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SEG_CFG.replace("max_outer = 30", "max_outer = 1"))
    out = tmp_path / "seg"
    assert main(["segment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert "warning: stopped at max_outer=1 " in capsys.readouterr().err
    manifest = (out / "manifest.txt").read_text(encoding="utf-8")
    assert "# warning = stopped at max_outer=1 " in manifest

    cfg = write_cfg(tmp_path, "synth.size = 16,16\nsynth.background = 80\n"
                              "synth.region = rect:4,4,8,8,180\n"
                              "max_inner = 2\ntol2 = 0\n", name="dn.cfg")
    out = tmp_path / "dn"
    assert main(["denoise", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert "warning: inner loop hit max_inner=2" in capsys.readouterr().err
    manifest = (out / "manifest.txt").read_text(encoding="utf-8")
    assert "# warning = inner loop hit max_inner=2\n" in manifest


def test_contour_init_populates_every_phase():
    # A plateau in the exterior intensities must not leave a phase empty.
    n = 128
    yy, xx = np.mgrid[0:n, 0:n]
    scene = np.full((n, n), 60.0)
    scene[(xx >= 10) & (xx < 50) & (yy >= 10) & (yy < 110)] = 190.0
    scene[(xx - 90) ** 2 + (yy - 64) ** 2 <= 25 ** 2] = 120.0
    for f in (scene, np.full((n, n), 60.0)):
        counts = float_masks(_build_init("circle:64,64,30", f, 3)).sum(axis=(1, 2))
        assert (counts > 0).all(), counts
        assert abs(counts[1] - counts[2]) <= 1, counts


def test_input_clamp_is_reported(tmp_path, capsys):
    field = np.full((16, 16), 80.0)
    field[4:12, 4:12] = 180.0
    hot = field.copy()
    hot[0, :3] = (300.0, 400.0, -5.0)
    for name, img in (("hot", hot), ("cool", field)):
        write_f64(tmp_path / f"{name}.f64", img)
        for cmd, extra in (("denoise", "max_inner = 2\n"),
                           ("segment", "init = rect:4,4,8,8\nmax_outer = 2\n")):
            cfg = write_cfg(tmp_path, f"input = {tmp_path / name}.f64\n" + extra,
                            name=f"{name}_{cmd}.cfg")
            out = tmp_path / f"{name}_{cmd}"
            assert main([cmd, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
            err = capsys.readouterr().err
            manifest = (out / "manifest.txt").read_text(encoding="utf-8")
            line = "input clamped to [0, 255]: 3 of 256 pixels changed (min -5, max 400)"
            if name == "hot":
                assert f"warning: {line}\n" in err
                assert f"# warning = {line}\n" in manifest
            else:
                assert "clamped" not in err and "clamped" not in manifest


def test_segment_labels_do_not_depend_on_the_input_range(tmp_path):
    # the intensity scale follows the data, so scaling the input by a power
    # of two, which is exact, gives the same labels bit for bit; the manifest
    # echoes the scale each run used
    yy, xx = np.mgrid[0:32, 0:32]
    clean = np.where((xx - 15) ** 2 + (yy - 17) ** 2 <= 81, 50.0, 15.0)
    f = np.minimum(clean * np.random.default_rng(8).gamma(10.0, 0.1, clean.shape), 63.0)
    labels = {}
    for k in (0, -3, -1, 2):
        write_f64(tmp_path / f"f{k}.f64", f * 2.0 ** k)
        cfg = write_cfg(tmp_path, f"input = {tmp_path / f'f{k}.f64'}\n"
                                  "init = circle:16,16,8\nmax_outer = 20\n", name=f"{k}.cfg")
        out = tmp_path / f"out{k}"
        assert main(["segment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        labels[k] = (out / "labels.pgm").read_bytes()
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert f"\nintensity_scale = {float(f.max() * 2.0 ** k)!r}\n" in manifest
    assert labels[-3] == labels[-1] == labels[0] == labels[2]


def test_exit_code_2_on_all_zero_input(tmp_path, capsys):
    write_f64(tmp_path / "zero.f64", np.zeros((8, 8)))
    for cmd, extra in (("segment", "init = circle:4,4,2\n"), ("denoise", "")):
        cfg = write_cfg(tmp_path, f"input = {tmp_path / 'zero.f64'}\n" + extra,
                        name=f"{cmd}.cfg")
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd), "--quiet"]) == 2
        assert "all zero" in capsys.readouterr().err


def test_exit_code_2_on_nan_raster(tmp_path, capsys):
    # a NaN pixel is refused where the raster is read, before any command
    # uses it; +-inf stays under the [0, 255] clamp of segment and denoise
    field = np.full((32, 32), 100.0)
    field[5, 7] = np.nan
    write_f64(tmp_path / "nan.f64", field)
    extras = {"segment": "init = circle:16,16,8\n", "denoise": "",
              "noise": "noise.kind = gamma\n"}
    for cmd, extra in extras.items():
        cfg = write_cfg(tmp_path, f"input = {tmp_path / 'nan.f64'}\n" + extra,
                        name=f"{cmd}.cfg")
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "nan.f64" in err and "1 of 1024 values are NaN" in err
    assert not (tmp_path / "noise" / "noisy.f64").exists()


@pytest.mark.parametrize("seed_line, flag", [
    ("seed = -1", []),
    ("seed = 18446744073709551616", []),
    ("seed = 5", ["--seed", "-3"]),
], ids=["config-negative", "config-2^64", "flag-negative"])
def test_exit_code_2_on_seed_outside_philox_range(tmp_path, capsys, seed_line, flag):
    cfg = write_cfg(tmp_path, "synth.size = 8,8\nsynth.region = disk:4,4,2,200\n"
                              f"noise.kind = gamma\n{seed_line}\n")
    assert main(["noise", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet",
                 *flag]) == 2
    assert "seed must be in [0, 2^64)" in capsys.readouterr().err


def test_seed_no_sampler_uses_is_accepted(tmp_path):
    cfg = write_cfg(tmp_path, "synth.size = 8,8\nsynth.region = disk:4,4,2,200\n"
                              "seed = -1\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("kind", ["gamma", "poisson"])
def test_noise_refuses_infinite_pixels(tmp_path, capsys, sign, kind):
    # noise applies no clamp, so an infinite clean pixel is refused, not
    # written into noisy.f64 or handed to a sampler
    field = np.full((32, 32), 100.0)
    field[5, 7] = float(f"{sign}inf")
    write_f64(tmp_path / "inf.f64", field)
    cfg = write_cfg(tmp_path, f"input = {tmp_path / 'inf.f64'}\nnoise.kind = {kind}\n")
    assert main(["noise", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "inf.f64" in err and "1 of 1024 values are infinite" in err, err
    assert not (tmp_path / "o" / "noisy.f64").exists()


SCENE_24 = """synth.size = 24,24
synth.background = 200
synth.region = disk:12,12,6,60
noise.kind = gamma
seed = 3
init = circle:12,12,4
"""


@pytest.mark.parametrize("command, key, value", [
    ("segment", "rho", "inf"), ("segment", "sigma", "inf"), ("denoise", "sigma", "inf"),
    ("segment", "tau", "inf"), ("segment", "gamma", "nan"), ("segment", "dt", "inf"),
    ("segment", "c0", "inf"), ("segment", "lambda", "nan"), ("segment", "lambda", "inf"),
    ("segment", "p", "nan"), ("segment", "p", "-inf"), ("segment", "eps_tv", "inf"),
    ("segment", "g_floor", "inf"), ("segment", "tol1", "nan"), ("denoise", "tol2", "nan"),
    ("segment", "mu", "inf"),
])
def test_exit_code_2_on_non_finite_parameter(tmp_path, capsys, command, key, value):
    cfg = write_cfg(tmp_path, SCENE_24 + f"{key} = {value}\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{key}: numbers must be finite, got '{value}'" in err, err
    assert not list(out.glob("*"))   # no output written


@pytest.mark.parametrize("command, line, key", [
    ("noise", "noise.looks = nan", "noise.looks"),
    ("noise", "noise.looks = inf", "noise.looks"),
    ("denoise", "noise.looks = nan", "noise.looks"),
    ("segment", "init = circle:12,12,nan", "init circle"),
    ("segment", "synth.region = disk:12,12,inf,60", "synth.region disk"),
], ids=["looks-nan", "looks-inf", "denoise-looks-nan", "circle-nan", "region-inf"])
def test_exit_code_2_on_non_finite_spec_number(tmp_path, capsys, command, line, key):
    cfg = write_cfg(tmp_path, SCENE_24.replace("init = circle:12,12,4\n", "") + line + "\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{key}: numbers must be finite" in err, err
    assert not list(out.glob("*"))   # no output written


@pytest.mark.parametrize("command, line, key", [
    ("synth", "synth.size = 24.7,24", "synth.size"),
    ("segment", "init = checkerboard:1e30", "init checkerboard"),
    ("segment", "init = checkerboard:2.5", "init checkerboard"),
], ids=["size-fraction", "cell-1e30", "cell-fraction"])
def test_exit_code_2_on_non_whole_size_or_cell(tmp_path, capsys, command, line, key):
    text = SCENE_24.replace("init = circle:12,12,4\n", "") + line + "\n"
    if line.startswith("synth.size"):
        text = text.replace("synth.size = 24,24\n", "")
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{key}: expected whole numbers" in err, err


def test_whole_sizes_and_cells_written_as_floats_are_accepted(tmp_path):
    text = SCENE_24.replace("synth.size = 24,24", "synth.size = 24.0,2.4e1")
    cfg = write_cfg(tmp_path, text.replace("circle:12,12,4", "checkerboard:6.0")
                    + "max_outer = 2\n")
    assert main(["segment", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    assert read_pgm(tmp_path / "o" / "labels.pgm").shape == (24, 24)
