"""End-to-end command tests through the CLI entry point."""

import csv
import filecmp
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ictmseg
from ictmseg.cli import ENERGY_COLUMNS, _build_init, _fmt, main
from ictmseg.fileio import read_f64, read_pgm, write_f64, write_pgm
from ictmseg.solve import segment

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


def test_readme_example_config_segments(tmp_path):
    # the README's example config runs as written and meets criterion 10's bar
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Config format\n.*?```ini\n(.*?)```", readme, re.S).group(1)
    out = tmp_path / "readme"
    rc = main(["segment", "--config", str(write_cfg(tmp_path, block)), "--out", str(out),
               "--quiet"])
    assert rc == 0
    with open(out / "metrics.csv") as fh:
        dsc = [float(row["dsc"]) for row in csv.DictReader(fh)]
    assert len(dsc) == 2 and min(dsc) >= 0.95, dsc


DENOISE_CFG = ("synth.size = 32,32\nsynth.background = 80\n"
               "synth.region = rect:8,8,16,16,180\n"
               "noise.kind = gamma\nnoise.looks = 10\n"
               "gamma = 0.5\nnu = 2.0\nseed = 5\n")


# A black background, where the gray indicator's K_sigma*f has roundoff below
# 0: the weight and so the first SAV step must stay finite.
BLACK_SCENE = "synth.size = 48,48\nsynth.background = 0\nsynth.region = disk:24,24,12,180\n"


@pytest.mark.parametrize("command, text", [
    ("segment", SEG_CFG), ("denoise", DENOISE_CFG),
    ("segment", BLACK_SCENE + "noise.kind = none\ninit = circle:24,24,8\n"),
    ("denoise", BLACK_SCENE + "noise.kind = poisson\nseed = 5\n"),
], ids=["segment", "denoise", "segment-black", "denoise-black"])
def test_energy_csv_keeps_the_sav_stability_law(tmp_path, command, text):
    # criterion 1 on the written file: z_sq never rises between consecutive
    # steps of one outer iteration, and every xi lies in [0, 1]
    out = tmp_path / "o"
    assert main([command, "--config", str(write_cfg(tmp_path, text)), "--out", str(out),
                 "--quiet"]) == 0
    assert np.isfinite(read_f64(out / "denoised.f64")).all()
    with open(out / "energy.csv", newline="") as fh:
        steps = [r for r in csv.DictReader(fh) if r["inner_iter"] != ""]
    pairs = [(a, b) for a, b in zip(steps, steps[1:]) if a["outer_iter"] == b["outer_iter"]]
    assert len(pairs) >= 5
    for prev, row in pairs:
        assert float(row["z_sq"]) <= float(prev["z_sq"]), (prev, row)
    assert all(0.0 <= float(r["xi"]) <= 1.0 for r in steps)


def test_energy_csv_outer_rows_are_the_run_records(tmp_path, monkeypatch):
    # one summary row per OuterRecord, in order, each number the record's
    # own value as _fmt writes it
    from ictmseg import cli

    logs = []

    def keeping_the_log(*args, **kwargs):
        state, log = segment(*args, **kwargs)
        logs.append(log)
        return state, log

    monkeypatch.setattr(cli, "segment", keeping_the_log)
    out = tmp_path / "o"
    assert main(["segment", "--config", str(write_cfg(tmp_path, SEG_CFG)), "--out", str(out),
                 "--quiet"]) == 0
    with open(out / "energy.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["inner_iter"] == ""]
    (log,) = logs
    assert len(rows) == len(log.outers) > 1
    for row, rec in zip(rows, log.outers):
        assert row == {"outer_iter": str(rec.outer), "inner_iter": "", "E_fit": _fmt(rec.fit),
                       "E_len": _fmt(rec.length), "E_idiv": _fmt(rec.idiv),
                       "E_tv": _fmt(rec.tv), "E_total": _fmt(rec.total),
                       "E_u": _fmt(rec.eu_after), "z_sq": "", "xi": "",
                       "err1": _fmt(rec.err1), "err2": ""}


def test_segment_prints_progress_metrics_and_closing_line(tmp_path, monkeypatch, capsys):
    # without --quiet: one progress line per OuterRecord, in order, then the
    # metric rows and the closing line
    from ictmseg import cli

    logs, reports = [], []

    def keeping_the_log(*args, **kwargs):
        state, log = segment(*args, **kwargs)
        logs.append(log)
        return state, log

    report = cli.multiphase_report

    def keeping_the_rows(*args):
        reports.append(report(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "segment", keeping_the_log)
    monkeypatch.setattr(cli, "multiphase_report", keeping_the_rows)
    out = tmp_path / "o"
    assert main(["segment", "--config", str(write_cfg(tmp_path, SEG_CFG)),
                 "--out", str(out)]) == 0
    (log,), (rows,) = logs, reports
    assert len(log.outers) > 1 and rows
    expected = [f"outer {rec.outer:4d}  E={rec.total:.6e}  E_u={rec.eu_after:.6e}  "
                f"err1={rec.err1:.3e}" for rec in log.outers]
    expected += [f"{row['class']}: DSC={row['dsc']:.4f} IoU={row['iou']:.4f} "
                 f"Acc={row['accuracy']:.4f} kappa={row['kappa']:.4f}" for row in rows]
    expected.append(f"finished in {len(log.outers)} outer iterations; outputs in {out}")
    assert capsys.readouterr().out.splitlines() == expected


def test_synth_noise_and_denoise_print_one_closing_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DENOISE_CFG)
    for command, line in (("synth", "wrote clean/truth/bias to {out}"),
                          ("noise", "wrote noisy image to {out}"),
                          ("denoise", "denoised in {steps} flow steps; outputs in {out}")):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        steps = None
        if command == "denoise":
            with open(out / "energy.csv", newline="") as fh:
                steps = len(list(csv.DictReader(fh)))
            assert steps > 1
        assert capsys.readouterr().out.splitlines() == [line.format(out=out, steps=steps)]


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
    cfg = write_cfg(tmp_path, DENOISE_CFG)
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
    # each module calls `convolve` through its own global, so each is patched
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


def test_metrics_command_one_class_and_either_foreground_value(tmp_path, capsys):
    # an all-zero pair is one class, scored as a perfect match; a mask's
    # foreground may be 1 or 255
    write_pgm(tmp_path / "zero.pgm", np.zeros((8, 8)))
    assert main(["metrics", str(tmp_path / "zero.pgm"), str(tmp_path / "zero.pgm")]) == 0
    assert capsys.readouterr().out.strip().count("1.0000") == 4
    pred, truth = np.zeros((8, 8)), np.zeros((8, 8))
    pred[2:6, 2:6] = 1.0
    truth[3:7, 2:6] = 1.0
    dice = []
    for level in (1.0, 255.0):
        write_pgm(tmp_path / "p.pgm", pred * level)
        write_pgm(tmp_path / "t.pgm", truth * level)
        assert main(["metrics", str(tmp_path / "p.pgm"), str(tmp_path / "t.pgm"),
                     "--out", str(tmp_path), "--quiet"]) == 0
        with open(tmp_path / "metrics.csv") as fh:
            dice += [row["dsc"] for row in csv.DictReader(fh)]
    assert dice == ["0.750000", "0.750000"]     # 2 * 12 / (16 + 16)


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


def test_metrics_refuses_a_shape_mismatch_naming_both_files(tmp_path, capsys):
    # the prediction's shape is the reference; the refusal names both files
    # and both shapes
    write_pgm(tmp_path / "p20.pgm", np.zeros((20, 20)))
    write_pgm(tmp_path / "t24.pgm", np.zeros((24, 24)))
    assert main(["metrics", str(tmp_path / "p20.pgm"), str(tmp_path / "t24.pgm")]) == 2
    err = capsys.readouterr().err
    for part in ("p20.pgm", "t24.pgm", "(20, 20)", "(24, 24)"):
        assert part in err, err


def test_exit_code_2_on_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "nonsense = 1\n")
    assert main(["segment", "--config", str(cfg), "--quiet"]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert main(["segment", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_exit_code_2_on_contract_violation(tmp_path, capsys):
    # every lambda must be positive: refused as the config is read, by every
    # command, before any output
    cfg = write_cfg(tmp_path, "synth.size = 16,16\ninit = circle:8,8,4\n"
                              "lambda = 0\nout = x\n")
    for command in ("segment", "denoise"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert "lambda weights must be positive" in capsys.readouterr().err
        assert not out.exists()


def test_exit_code_2_on_truncated_float_raster(tmp_path, capsys):
    # the magic and half a header, a raster of no pixels, or fewer values than
    # its size: an error naming the file, not a traceback, and no output
    header = b"FGRID64\x00"
    cases = [("short.f64", header + b"\x02\x00\x00\x00", "12 bytes is not a 16-byte header"),
             ("empty0x0.f64", header + np.array([0, 0], "<u4").tobytes(),
              "raster size 0x0 is not positive"),
             ("empty0x5.f64", header + np.array([0, 5], "<u4").tobytes(),
              "raster size 0x5 is not positive"),
             ("mismatch.f64", header + np.array([2, 2], "<u4").tobytes() + bytes(24),
              "raster size mismatch")]
    for name, blob, message in cases:
        path = tmp_path / name
        path.write_bytes(blob)
        cfg = write_cfg(tmp_path, f"input = {path}\ninit = circle:1,1,1\nnoise.kind = gamma\n")
        for command in ("segment", "denoise", "noise"):
            out = tmp_path / f"{command}-{path.stem}"
            assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
            err = capsys.readouterr().err
            assert f"{name}: {message}" in err, (command, err)
            assert list(out.iterdir()) == []


def test_exit_code_2_on_bad_pgm_header(tmp_path, capsys):
    # each refusal of the PGM reader names the file
    cases = [("bad.pgm", b"P5\nab 2\n255\n" + bytes(4), "non-integer PGM size"),
             ("header.pgm", b"P5\n2 2\n", "truncated PGM header"),
             ("magic.pgm", b"P2\n2 2\n255\n0 0 0 0\n", "not a binary PGM (P5)"),
             ("maxval.pgm", b"P5\n2 2\n65535\n" + bytes(8),
              "only 8-bit PGM supported, maxval=65535"),
             ("pixels.pgm", b"P5\n2 2\n255\n" + bytes(3), "truncated pixel data")]
    for name, blob, message in cases:
        path = tmp_path / name
        path.write_bytes(blob)
        cfg = write_cfg(tmp_path, f"input = {path}\ninit = circle:1,1,1\n")
        assert main(["segment", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"{name}: {message}" in err, err


@pytest.mark.parametrize("spec, count", [("circle:8,8", 3), ("circle:8,8,a", 3),
                                         ("circle:", 3), ("rect:1,2,3", 4),
                                         ("checkerboard:", 1), ("checkerboard:x", 1)])
def test_exit_code_2_on_malformed_init(tmp_path, capsys, spec, count):
    cfg = write_cfg(tmp_path, f"synth.size = 16,16\ninit = {spec}\n")
    assert main(["segment", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: init ") and f"expected {count} values" in err, err


@pytest.mark.parametrize("line, shape", [
    ("synth.region = disk:12,12,-6,200", "disk:12,12,-6"),
    ("synth.region = ring:12,12,8,4,200", "ring:12,12,8,4"),
    ("init = circle:12,12,-4", "disk:12,12,-4"), ("init = rect:2,2,-3,4", "rect:2,2,-3,4"),
], ids=["disk", "ring", "init-circle", "init-rect"])
def test_exit_code_2_on_negative_shape_size(tmp_path, capsys, line, shape):
    # a negative radius, width or height, or a ring inside out, is refused
    # with its numbers before any output, not read as its magnitude
    key = line.partition(" = ")[0]
    lines = [line if ln.startswith(key + " ") else ln for ln in SCENE_24.splitlines()]
    cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert main(["segment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert f"error: {shape}: sizes must be nonnegative" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_init_specs_give_their_shapes(tmp_path):
    f = np.arange(16.0 * 12).reshape(16, 12)
    yy, xx = np.mgrid[0:16, 0:12]
    circle = _build_init("circle: 6, 8, 4", f, 2).labels()
    assert np.array_equal(circle == 0, (xx - 6) ** 2 + (yy - 8) ** 2 <= 16)
    rect = _build_init("rect:2,3,5,4", f, 2).labels()
    assert np.array_equal(rect == 0, (xx >= 2) & (xx < 7) & (yy >= 3) & (yy < 7))
    board = _build_init("checkerboard:3", f, 2).labels()
    assert np.array_equal(board, ((yy // 3) + (xx // 3)) % 2)
    write_pgm(tmp_path / "init.pgm", (xx + yy) % 3)
    mask = _build_init(f"mask:{tmp_path / 'init.pgm'}", f, 3).labels()
    assert np.array_equal(mask, (xx + yy) % 3)
    # three phases rank the exterior by intensity: f rises in raster order,
    # so the first (darker) half of the exterior is phase 1, the rest phase 2
    three = _build_init("circle: 6, 8, 4", f, 3).labels()
    assert np.array_equal(three == 0, circle == 0)
    exterior = three[circle != 0]
    half = (exterior.size + 1) // 2
    assert np.array_equal(exterior, np.repeat([1, 2], [half, exterior.size - half]))


@pytest.mark.parametrize("size, level, message", [
    (20, 1.0, "init mask shape (20, 20) differs from the image shape (24, 24)"),
    (24, 2.0, "init mask has 3 phases, n_phases = 2"),
], ids=["20x20", "label-2"])
def test_exit_code_2_on_bad_init_mask(tmp_path, capsys, size, level, message):
    # an init mask must have the image's shape and labels below n_phases:
    # else it is refused (exit 2, named) before any output
    path = tmp_path / "init.pgm"
    labels = np.zeros((size, size))
    labels[6:18, 6:18] = level
    write_pgm(path, labels)
    cfg = write_cfg(tmp_path, SCENE_24.replace("circle:12,12,4", f"mask:{path}"))
    out = tmp_path / "o"
    assert main(["segment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "init.pgm" in err and message in err, err
    assert list(out.iterdir()) == []


def test_init_mask_may_leave_a_phase_empty(tmp_path):
    # unlike a truth, an init mask need not hold every phase: the solver
    # flags the empty phase as a run warning
    path = tmp_path / "init.pgm"
    write_pgm(path, np.zeros((24, 24)))
    cfg = write_cfg(tmp_path, SCENE_24.replace("circle:12,12,4", f"mask:{path}"))
    out = tmp_path / "o"
    assert main(["segment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert "# warning = phase 1 empty" in (out / "manifest.txt").read_text(encoding="utf-8")


DENOISE_DEFAULT_CFG = """
synth.size = 32,32
synth.background = 80
synth.region = rect:8,8,16,16,180
noise.kind = gamma
noise.looks = 10
seed = 5
"""


@pytest.mark.parametrize("command, text",
                         [("segment", SEG_CFG), ("denoise", DENOISE_DEFAULT_CFG)],
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


def test_importing_the_cli_loads_no_dataclasses():
    # the records are NamedTuples and plain classes: creating dataclasses was
    # a large share of the package's import time. Some numpy versions load
    # the module themselves, and then there is nothing to check.
    code = ("import sys, numpy\n"
            "if 'dataclasses' in sys.modules: print('loaded by numpy')\n"
            "else: import ictmseg.cli; print('dataclasses' in sys.modules)\n")
    package_root = Path(ictmseg.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=package_root, check=True)
    assert proc.stdout.strip() in ("loaded by numpy", "False"), proc.stdout


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
    # negative pixels are clipped to 0 and reported as a run warning; no upper
    # clamp: the bright pixels reach the scale, the 0.999-quantile of the
    # clipped input, which the manifest echoes
    field = np.full((16, 16), 80.0)
    field[4:12, 4:12] = 180.0
    hot = field.copy()
    hot[0, :3] = (300.0, 400.0, -5.0)
    for name, img in (("hot", hot), ("cool", field)):
        write_f64(tmp_path / f"{name}.f64", img)
        scale = float(np.quantile(np.maximum(img, 0.0), 0.999))
        for cmd, extra in (("denoise", "max_inner = 2\n"),
                           ("segment", "init = rect:4,4,8,8\nmax_outer = 2\n")):
            cfg = write_cfg(tmp_path, f"input = {tmp_path / name}.f64\n" + extra,
                            name=f"{name}_{cmd}.cfg")
            out = tmp_path / f"{name}_{cmd}"
            assert main([cmd, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
            err = capsys.readouterr().err
            manifest = (out / "manifest.txt").read_text(encoding="utf-8")
            assert f"\nintensity_scale = {scale!r}\n" in manifest
            line = "input clipped at 0: 1 of 256 pixels were negative (min -5)"
            if name == "hot":
                assert 300.0 < scale < 400.0      # neither pixel was cut
                assert f"warning: {line}\n" in err
                assert f"# warning = {line}\n" in manifest
            else:
                assert scale == 180.0
                assert "clipped" not in err and "clipped" not in manifest
            if cmd == "segment":
                # corrected.pgm is write_pgm's rounding and clamp of
                # corrected.f64, which exceeds 255 on the hot input
                corrected = read_f64(out / "corrected.f64")
                assert name == "cool" or corrected.max() > 255.0
                assert np.array_equal(read_pgm(out / "corrected.pgm"),
                                      np.clip(np.rint(corrected), 0.0, 255.0))


def _speckle_disk() -> np.ndarray:
    """A 32x32 speckled disk whose range passes 255 once scaled by 4."""
    yy, xx = np.mgrid[0:32, 0:32]
    clean = np.where((xx - 15) ** 2 + (yy - 17) ** 2 <= 81, 50.0, 15.0)
    return clean * np.random.default_rng(8).gamma(10.0, 0.1, clean.shape)


def test_segment_labels_do_not_depend_on_the_input_range(tmp_path):
    # the intensity scale follows the data, so scaling the input by a power
    # of two, which is exact, gives the same labels bit for bit, through the
    # CLI and through the library, and the smooth image scales with it; the
    # manifest echoes the scale each run used
    f = _speckle_disk()
    init = _build_init("circle:16,16,8", f, 2)
    params = ictmseg.ModelParams(max_outer=20)
    cli_labels, lib_runs = {}, {}
    for k in (0, -3, 2, 4):
        scaled = f * 2.0 ** k
        write_f64(tmp_path / f"f{k}.f64", scaled)
        cfg = write_cfg(tmp_path, f"input = {tmp_path / f'f{k}.f64'}\n"
                                  "init = circle:16,16,8\nmax_outer = 20\n", name=f"{k}.cfg")
        out = tmp_path / f"out{k}"
        assert main(["segment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        cli_labels[k] = (out / "labels.pgm").read_bytes()
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert f"\nintensity_scale = {float(np.quantile(f, 0.999) * 2.0 ** k)!r}\n" in manifest
        state, _ = segment(scaled, init, params)
        lib_runs[k] = (state.u.labels(), state.g / 2.0 ** k)
    assert f.max() * 2.0 ** 2 > 255.0
    assert cli_labels[-3] == cli_labels[0] == cli_labels[2] == cli_labels[4]
    for k in (-3, 2, 4):
        assert np.array_equal(lib_runs[k][0], lib_runs[0][0])
        assert np.array_equal(lib_runs[k][1], lib_runs[0][1])


def test_library_and_cli_segment_agree(tmp_path):
    # one scale rule: library `segment` with the default parameters and the
    # CLI on the same input file give the same labels and smooth image
    f = _speckle_disk() * 8.0
    write_f64(tmp_path / "f.f64", f)
    cfg = write_cfg(tmp_path, f"input = {tmp_path / 'f.f64'}\n"
                              "init = circle:16,16,8\nmax_outer = 20\n")
    out = tmp_path / "out"
    assert main(["segment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    state, _ = segment(f, _build_init("circle:16,16,8", f, 2), ictmseg.ModelParams(max_outer=20))
    assert np.array_equal(read_pgm(out / "labels.pgm"), state.u.labels())
    assert np.array_equal(read_f64(out / "denoised.f64"), state.g)


def test_exit_code_2_on_all_zero_input(tmp_path, capsys):
    # an image with no positive pixel, also once its negatives are clipped to
    # 0, has no intensity scale
    signed = np.zeros((8, 8))
    signed[2, 2] = -3.0
    for name, img in (("zero", np.zeros((8, 8))), ("signed", signed)):
        write_f64(tmp_path / f"{name}.f64", img)
        for cmd, extra in (("segment", "init = circle:4,4,2\n"), ("denoise", "")):
            cfg = write_cfg(tmp_path, f"input = {tmp_path / name}.f64\n" + extra,
                            name=f"{cmd}.cfg")
            assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd),
                         "--quiet"]) == 2
            assert "all zero" in capsys.readouterr().err


def test_denoise_never_opens_the_truth_file(tmp_path, capsys):
    # only segment scores a run: denoise ignores a truth file it cannot read,
    # and writes what it writes without the line; segment refuses the config
    write_f64(tmp_path / "in.f64",
              np.where(np.add.outer(np.arange(32), np.arange(32)) < 32, 80.0, 180.0))
    base = f"input = {tmp_path / 'in.f64'}\nnoise.kind = gamma\nseed = 5\nmax_inner = 20\n"
    missing = f"truth = {tmp_path / 'missing.pgm'}\n"
    out, runs = tmp_path / "dn", []
    for text in (base, base + missing):
        assert main(["denoise", "--config", str(write_cfg(tmp_path, text)), "--out", str(out),
                     "--quiet"]) == 0
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        shutil.rmtree(out)
    # the echoed config keeps its truth line
    runs[1]["manifest.txt"] = runs[1]["manifest.txt"].replace(missing.encode(), b"")
    assert runs[0] == runs[1]
    capsys.readouterr()
    cfg = write_cfg(tmp_path, base + missing + "init = circle:16,16,8\n", "seg.cfg")
    assert main(["segment", "--config", str(cfg), "--out", str(tmp_path / "seg"),
                 "--quiet"]) == 2
    assert "missing.pgm" in capsys.readouterr().err


def test_exit_code_2_on_nan_raster(tmp_path, capsys):
    # a NaN pixel is refused where the raster is read, before any command
    # uses it
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


@pytest.mark.parametrize("command", ["segment", "denoise"])
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("kind", ["gamma", "poisson", "none"])
def test_segment_and_denoise_refuse_infinite_pixels_under_noise(tmp_path, capsys,
                                                                 command, sign, kind):
    # an infinite pixel has no place in the intensity scale: segment and
    # denoise refuse it, whatever the noise, as `noise` refuses it
    field = np.full((32, 32), 100.0)
    field[5, 7] = float(f"{sign}inf")
    write_f64(tmp_path / "inf.f64", field)
    cfg = write_cfg(tmp_path, f"input = {tmp_path / 'inf.f64'}\nnoise.kind = {kind}\n"
                              "init = circle:16,16,8\nmax_outer = 2\nmax_inner = 2\n")
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "inf.f64" in err and "1 of 1024 values are infinite" in err, err
    assert not (tmp_path / "o" / "manifest.txt").exists()


SCENE_24 = """synth.size = 24,24
synth.background = 200
synth.region = disk:12,12,6,60
noise.kind = gamma
seed = 3
init = circle:12,12,4
"""


NO_INIT = SCENE_24.replace("init = circle:12,12,4\n", "")


@pytest.mark.parametrize("command, text, message", [
    ("segment", SCENE_24 + "max_outer 3\n", "run.cfg:7: expected 'key = value'"),
    ("segment", SCENE_24 + "tau_in_pixels = maybe\n",
     "run.cfg:7: cannot parse tau_in_pixels='maybe'"),
    ("segment", SCENE_24 + "max_outer = 2.5\n", "run.cfg:7: cannot parse max_outer='2.5'"),
    ("segment", SCENE_24 + "gamma = abc\n",
     "run.cfg:7: gamma: cannot parse numbers from 'abc' (expected 1 values)"),
    ("synth", NO_INIT + "synth.region = star:8,8,4,100\n", "unknown region kind 'star'"),
    ("synth", "synth.background = 100\n", "synth source requires synth.size"),
    ("segment", NO_INIT, "segmentation requires an 'init' contour spec"),
    ("segment", NO_INIT + "init = checkerboard:0\n", "checkerboard cell must be >= 1"),
    ("segment", NO_INIT + "init = star:1,2\n", "unknown init kind 'star'"),
    ("synth", "input = clean.f64\n", "synth command requires synth.* keys"),
    ("noise", "synth.size = 24,24\nnoise.kind = none\n",
     "noise command requires noise.kind != none"),
    ("synth", NO_INIT + "synth.region = disk:8,8,4,300\n",
     "region intensities must lie in [0, 255]"),
    ("synth", NO_INIT + "synth.bias = ramp:0,1\n",
     "synth.bias ramp: values must be strictly positive"),
], ids=["no-equals", "bool", "int", "float", "region-kind", "no-size", "no-init", "cell-0",
        "init-kind", "synth-of-input", "noise-none", "intensity-300", "ramp-0"])
def test_exit_code_2_names_the_refused_line_or_key(tmp_path, capsys, command, text, message):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not list(out.glob("*"))   # no output written


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


@pytest.mark.parametrize("command", ["segment", "denoise"])
def test_exit_code_2_on_eps_tv_whose_square_underflows(tmp_path, capsys, command):
    # eps^2 of 1e-200 is 0: the TV flux would divide by it on every flat patch
    cfg = write_cfg(tmp_path, SCENE_24 + "eps_tv = 1e-200\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "eps_tv must be at least 1.49e-154" in err and "1e-200" in err, err
    assert not out.exists()     # refused as the config is read


@pytest.mark.parametrize("command, key, value", [
    ("segment", "rho", "1e15"), ("segment", "sigma", "1e15"), ("denoise", "sigma", "1e15"),
    ("segment", "tau", "1e30"),
])
def test_exit_code_2_on_a_kernel_too_wide_to_build(tmp_path, capsys, command, key, value):
    # a Gaussian wider than MAX_RADIUS is refused, by the key that sets it,
    # before its taps are allocated; the heat time depends on the image's
    # shape, so tau is refused as the solve starts, still before any output
    cfg = write_cfg(tmp_path, SCENE_24 + f"{key} = {value}\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"error: {key} = {float(value):.6g}" in err and "radius limit" in err, err
    assert not list(out.glob("*"))   # no output written


def test_exit_code_2_on_a_sub_pixel_heat_kernel(tmp_path, capsys):
    # tau = 1e-9 on a 24^2 image is a heat time of 5.76e-7 px^2, refused by
    # its key as the solve starts; denoise has no length term and ignores it
    cfg = write_cfg(tmp_path, SCENE_24 + "tau = 1e-9\n")
    out = tmp_path / "o"
    assert main(["segment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "error: tau = 1e-09 (heat time" in err and "sub-pixel heat kernel" in err, err
    assert not list(out.glob("*"))   # no output written
    assert main(["denoise", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0


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


@pytest.mark.parametrize("command", ["synth", "segment"])
@pytest.mark.parametrize("bias", ["gaussian:2,0", "gaussian:2,-5", "none:1"])
def test_exit_code_2_on_bad_bias_spec(tmp_path, capsys, command, bias):
    # a Gaussian std must be positive (0 would divide by zero, and only the
    # square of a negative one enters the bump); `none` takes no numbers
    cfg = write_cfg(tmp_path, SCENE_24 + f"synth.bias = {bias}\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "error: synth.bias" in capsys.readouterr().err
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


def test_segment_checks_truth_phase_count_before_the_solve(tmp_path, capsys):
    # a synthetic truth of 2 phases cannot score a 3-phase run: refused
    # before the solve, so no raster is written
    cfg = write_cfg(tmp_path, SCENE_24 + "n_phases = 3\n")
    assert main(["segment", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    assert "truth has 2 phases, n_phases = 3" in capsys.readouterr().err
    assert not (tmp_path / "o" / "labels.pgm").exists()


@pytest.mark.parametrize("n", [-1, 0, 1, 257])
def test_exit_code_2_on_n_phases_out_of_range(tmp_path, capsys, n):
    # labels.pgm is 8-bit, so it holds at most 256 phases; fewer than 2 is no
    # partition. Either is refused by name before any output, truth or none.
    write_f64(tmp_path / "in.f64", np.full((24, 24), 100.0))
    cfg = write_cfg(tmp_path, f"input = {tmp_path / 'in.f64'}\ninit = circle:12,12,4\n"
                              f"n_phases = {n}\nmax_outer = 2\n")
    out = tmp_path / "o"
    assert main(["segment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert f"n_phases must lie in [2, 256], got {n}" in capsys.readouterr().err
    assert not out.exists()     # refused as the config is read


def test_segment_refuses_a_scene_truth_with_an_empty_phase(tmp_path, capsys):
    # a region wholly outside the image gives its truth phase no pixel: the
    # scene is refused as its source before any output, not scored
    cfg = write_cfg(tmp_path, SCENE_24.replace("disk:12,12,6,60", "disk:100,100,5,60"))
    out = tmp_path / "o"
    assert main(["segment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "synthetic scene: truth has 1 phases, n_phases = 2" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("size, level, n, message", [
    (24, None, 2, "No such file"), (24, 255.0, 2, "truth has 256 phases, n_phases = 2"),
    (24, 0.0, 2, "truth has 1 phases, n_phases = 2"),
    (20, 1.0, 2, "truth shape (20, 20) differs from the image shape (24, 24)"),
    (24, 2.0, 3, "truth phase 1 has no pixel, n_phases = 3"),
], ids=["missing", "0-255-mask", "1-phase", "20x20", "empty-phase-1"])
def test_segment_of_a_synth_scene_reads_its_named_truth_file(tmp_path, capsys, size, level,
                                                              n, message):
    # a named truth file is the truth, a synthetic scene's included: one that
    # does not exist, whose labels make another phase count or leave a phase
    # without a pixel, or whose shape is not the image's is refused (exit 2,
    # named) before the solve
    path = tmp_path / "named.pgm"
    if level is not None:
        truth = np.zeros((size, size))
        truth[6:18, 6:18] = level
        write_pgm(path, truth)
    cfg = write_cfg(tmp_path, SCENE_24 + f"n_phases = {n}\ntruth = {path}\n")
    assert main(["segment", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "named.pgm" in err and message in err
    assert list((tmp_path / "o").iterdir()) == []


def test_segment_of_a_synth_scene_is_scored_against_its_truth_file(tmp_path):
    # the file's regions (a rectangle) differ from the scene's (a disk):
    # truth.pgm is the file and metrics.csv scores the labels against it
    truth = np.zeros((24, 24))
    truth[2:10, 3:20] = 1.0
    write_pgm(tmp_path / "rect.pgm", truth)
    cfg = write_cfg(tmp_path, SCENE_24 + f"truth = {tmp_path / 'rect.pgm'}\n")
    out = tmp_path / "o"
    assert main(["segment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert np.array_equal(read_pgm(out / "truth.pgm"), truth)
    pred = ictmseg.IndicatorSet(read_pgm(out / "labels.pgm").astype(np.int64), 2)
    t = ictmseg.IndicatorSet(truth.astype(np.int64), 2)
    expected = ictmseg.multiphase_report(ictmseg.match_phases(pred, t), t)
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["class"] for r in rows] == [e["class"] for e in expected]
    for row, e in zip(rows, expected):
        for key in ("dsc", "iou", "accuracy", "kappa"):
            assert row[key] == f"{e[key]:.6f}", key
    assert float(rows[1]["dsc"]) < 0.5


def test_seed_flag_is_echoed_in_the_manifest(tmp_path):
    # --seed sets the noise seed; the manifest echoes it, and run as a config
    # it makes the same noisy image
    cfg = write_cfg(tmp_path, "synth.size = 16,16\nsynth.region = disk:8,8,4,200\n"
                              "noise.kind = gamma\nseed = 3\n")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["noise", "--config", str(cfg), "--seed", "9", "--out", str(first),
                 "--quiet"]) == 0
    assert "seed = 9" in (first / "manifest.txt").read_text(encoding="utf-8").splitlines()
    assert main(["noise", "--config", str(first / "manifest.txt"), "--out", str(second),
                 "--quiet"]) == 0
    assert (first / "noisy.f64").read_bytes() == (second / "noisy.f64").read_bytes()
