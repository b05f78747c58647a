"""Synthetic generator and file-format round trips."""

import numpy as np
import pytest

from ictmseg.errors import ConfigError
from ictmseg.fileio import (
    ExperimentConfig,
    parse_config,
    read_f64,
    read_field,
    read_pgm,
    write_f64,
    write_pgm,
)
from ictmseg.synth import Shape, SynthSpec, generate

from oracles import float_masks

rng = np.random.default_rng(4)


# ----------------------------------------------------------------- synthesis

def test_disk_area_close_to_analytic():
    r = 40.0
    spec = SynthSpec(size=(128, 128), background=50.0,
                     shapes=(Shape("disk", (64.0, 64.0, r), 200.0),))
    clean, truth, bias = generate(spec)
    assert np.allclose(bias, 1.0)
    area = float_masks(truth)[1].sum()
    assert abs(area - np.pi * r * r) / (np.pi * r * r) < 0.01
    assert set(np.unique(clean)) == {50.0, 200.0}


def test_linear_ramp_scales_row_means():
    spec = SynthSpec(size=(16, 64), background=100.0,
                     bias_kind="ramp", bias_lo=0.5, bias_hi=1.5)
    clean, _, bias = generate(spec)
    expect = 100.0 * np.linspace(0.5, 1.5, 64)
    assert np.allclose(clean.mean(axis=0), expect)
    assert bias.min() == pytest.approx(0.5)


def test_gaussian_bump_amplitude_ratio():
    spec = SynthSpec(size=(65, 65), background=100.0,
                     bias_kind="gaussian", bias_amplitude=2.0, bias_width=20.0)
    _, _, bias = generate(spec)
    assert bias.max() == pytest.approx(1.0, abs=1e-12)
    assert bias.max() / bias.min() <= 2.0 + 1e-9
    center = bias[32, 32]
    assert center == pytest.approx(1.0, abs=1e-12)


def test_generate_deterministic():
    spec = SynthSpec(size=(32, 32), shapes=(Shape("rect", (4, 4, 10, 12), 180.0),),
                     bias_kind="gaussian", bias_amplitude=1.5)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(float_masks(a[1]), float_masks(b[1]))


def test_later_shapes_override():
    spec = SynthSpec(size=(20, 20), background=10.0,
                     shapes=(Shape("rect", (0, 0, 20, 20), 100.0),
                             Shape("disk", (10.0, 10.0, 4.0), 200.0)))
    clean, truth, _ = generate(spec)
    assert float_masks(truth)[2][10, 10] == 1.0
    assert clean[10, 10] == 200.0
    assert float_masks(truth)[1][0, 0] == 1.0


def test_spec_validation():
    with pytest.raises(ConfigError):
        generate(SynthSpec(size=(0, 4)))
    with pytest.raises(ConfigError):
        generate(SynthSpec(size=(4, 4), background=300.0))
    with pytest.raises(ConfigError):
        generate(SynthSpec(size=(4, 4), bias_kind="wavy"))


# ------------------------------------------------------------------- rasters

def test_pgm_round_trip_exact_for_8bit(tmp_path):
    field = rng.integers(0, 256, size=(9, 13)).astype(np.float64)
    path = tmp_path / "img.pgm"
    write_pgm(path, field)
    assert np.array_equal(read_pgm(path), field)


def test_pgm_clamps_and_quantizes(tmp_path):
    field = np.array([[-3.2, 0.4, 254.6, 300.0]])
    path = tmp_path / "img.pgm"
    write_pgm(path, field)
    assert np.array_equal(read_pgm(path), [[0.0, 0.0, 255.0, 255.0]])


def test_pgm_header_comment_support(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes([7, 8, 9, 10, 11, 12])
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
    assert np.array_equal(read_pgm(path), [[7.0, 8.0, 9.0], [10.0, 11.0, 12.0]])


def test_f64_round_trip_bit_exact(tmp_path):
    field = rng.standard_normal((7, 5)) * 1e3
    path = tmp_path / "field.f64"
    write_f64(path, field)
    assert np.array_equal(read_f64(path), field)


def test_read_field_dispatch(tmp_path):
    field = rng.integers(0, 256, size=(4, 4)).astype(np.float64)
    write_pgm(tmp_path / "a.pgm", field)
    write_f64(tmp_path / "a.f64", field)
    assert np.array_equal(read_field(tmp_path / "a.pgm"), field)
    assert np.array_equal(read_field(tmp_path / "a.f64"), field)


def test_f64_rejects_corrupt(tmp_path):
    path = tmp_path / "bad.f64"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
    with pytest.raises(ConfigError):
        read_f64(path)


@pytest.mark.parametrize("tail", [b"", b"\x02\x00\x00\x00",
                                  b"\x01\x00\x00\x00\x01\x00\x00\x00" + b"\x00" * 12],
                         ids=["magic-only", "half-header", "ragged-payload"])
def test_read_field_rejects_short_or_ragged_f64(tmp_path, tail):
    # 8 and 12 bytes hold no full header; 16 + 12 bytes no whole float64
    path = tmp_path / "short.f64"
    path.write_bytes(b"FGRID64\x00" + tail)
    with pytest.raises(ConfigError, match="short.f64"):
        read_field(path)


@pytest.mark.parametrize("header", [b"ab 2\n255", b"2 x\n255", b"2 2\nzz", b"0 2\n255",
                                    b"2 -3\n255"],
                         ids=["width", "height", "maxval", "zero-width", "negative-height"])
def test_read_field_rejects_bad_pgm_header(tmp_path, header):
    # a non-integer size or maxval, or a size below 1: an error naming the file
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n" + header + b"\n" + bytes(4))
    with pytest.raises(ConfigError, match="bad.pgm"):
        read_field(path)


# ----------------------------------------------------------------- config

GOOD = """
# comment line
synth.size = 64,64
synth.background = 60
synth.region = disk:32,32,20,180
synth.bias = gaussian:2.0
noise.kind = gamma
noise.looks = 10
init = circle:32,32,15
n_phases = 2
lambda = 1
gamma = 0.1
nu = 1.0
seed = 7
out = run1
"""


def test_parse_config_happy_path():
    cfg = ExperimentConfig(parse_config(GOOD))
    assert cfg.synth is not None
    assert cfg.synth.size == (64, 64)
    assert cfg.synth.shapes[0].kind == "disk"
    assert cfg.noise.kind == "gamma" and cfg.noise.looks == 10
    assert cfg.noise.seed == 7
    assert cfg.params.gamma == 0.1 and cfg.params.lambdas == (1.0, 1.0)
    assert cfg.init == "circle:32,32,15"
    assert cfg.out == "run1"


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("wibble = 3")


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("gamma = 1\ngamma = 2")


def test_parse_config_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("gamma = 0.1\nnu = much")


def test_config_requires_exactly_one_source():
    with pytest.raises(ConfigError, match="exactly one image source"):
        ExperimentConfig(parse_config("gamma = 0.1"))
    with pytest.raises(ConfigError, match="exactly one image source"):
        ExperimentConfig(parse_config("input = a.pgm\nsynth.size = 8,8"))


def test_config_lambda_broadcast_and_mismatch():
    cfg = ExperimentConfig(parse_config("input = x.pgm\nn_phases = 3\nlambda = 2"))
    assert cfg.params.lambdas == (2.0, 2.0, 2.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(parse_config("input = x.pgm\nn_phases = 3\nlambda = 1,2"))


def test_config_region_accumulates():
    raw = parse_config("synth.size = 8,8\nsynth.region = disk:4,4,2,100\n"
                       "synth.region = rect:0,0,2,2,50")
    cfg = ExperimentConfig(raw)
    assert len(cfg.synth.shapes) == 2
