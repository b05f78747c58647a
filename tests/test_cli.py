"""End-to-end command tests through the CLI entry point."""

import csv
import filecmp
import subprocess
import sys
from pathlib import Path

import numpy as np

import ictmseg
from ictmseg.cli import ENERGY_COLUMNS, _build_init, main
from ictmseg.fileio import read_f64, read_pgm, write_f64, write_pgm

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
    # every fit weight is zero: no partition, bias or K*b, K*b^2 is built,
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
        counts = _build_init("circle:64,64,30", f, 3).masks.sum(axis=(1, 2))
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
