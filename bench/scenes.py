"""Benchmark inputs and the quantities the benchmark checks outputs against.

Everything here is written against numpy alone, apart from the program under
test: the scenes, the speckle, the PGM and FGRID64 readers and writers, the
overlap-matched Dice and PSNR. `selftest()` pins them to hand values.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

F64_MAGIC = b"FGRID64\x00"


# --------------------------------------------------------------------------
# rasters

def write_f64(path: Path, field: np.ndarray) -> None:
    field = np.ascontiguousarray(field, dtype="<f8")
    h, w = field.shape
    header = F64_MAGIC + np.array([w, h], dtype="<u4").tobytes()
    Path(path).write_bytes(header + field.tobytes())


def read_f64(path: Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:8] != F64_MAGIC:
        raise ValueError(f"{path}: not an FGRID64 raster")
    w, h = (int(v) for v in np.frombuffer(blob[8:16], dtype="<u4"))
    data = np.frombuffer(blob[16:], dtype="<f8")
    if data.size != w * h:
        raise ValueError(f"{path}: {data.size} values for {w}x{h}")
    return data.reshape(h, w)


def write_pgm(path: Path, labels: np.ndarray) -> None:
    data = np.asarray(labels).astype(np.uint8)
    h, w = data.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + data.tobytes())


def read_pgm(path: Path) -> np.ndarray:
    """Binary 8-bit PGM; header comments are allowed."""
    blob = Path(path).read_bytes()
    fields, pos = [], 0
    token = re.compile(rb"\s*(#[^\n]*\n|\S+)")
    while len(fields) < 4:
        m = token.match(blob, pos)
        if m is None:
            raise ValueError(f"{path}: truncated PGM header")
        pos = m.end()
        if not m.group(1).startswith(b"#"):
            fields.append(m.group(1))
    if fields[0] != b"P5" or fields[3] != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = int(fields[1]), int(fields[2])
    data = np.frombuffer(blob[pos + 1:pos + 1 + w * h], dtype=np.uint8)
    if data.size != w * h:
        raise ValueError(f"{path}: truncated pixel data")
    return data.reshape(h, w).astype(np.int64)


# --------------------------------------------------------------------------
# scores

def matched_dice(pred: np.ndarray, truth: np.ndarray, n: int) -> list[float]:
    """Dice of each truth class against the predicted phase matched to it.

    Predicted phases are permuted to maximise the total overlap with the
    truth classes; entry i is the Dice of truth class i.
    """
    overlap = np.array([[np.count_nonzero((pred == i) & (truth == j))
                         for j in range(n)] for i in range(n)])
    perm = max(itertools.permutations(range(n)),
               key=lambda p: sum(overlap[i, p[i]] for i in range(n)))
    scores = [0.0] * n
    for i, j in enumerate(perm):
        p, t = pred == i, truth == j
        denom = np.count_nonzero(p) + np.count_nonzero(t)
        scores[j] = 1.0 if denom == 0 else 2.0 * int(np.count_nonzero(p & t)) / int(denom)
    return scores


def psnr(image: np.ndarray, reference: np.ndarray, peak: float = 255.0) -> float:
    mse = float(np.mean((np.asarray(image) - reference) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(peak * peak / mse)


# --------------------------------------------------------------------------
# scenes

def _grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    yy, xx = np.mgrid[0:n, 0:n].astype(np.float64)
    return yy, xx


def disk_mask(n: int, cx: float, cy: float, r: float) -> np.ndarray:
    yy, xx = _grid(n)
    return (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r


def rect_mask(n: int, x: float, y: float, w: float, h: float) -> np.ndarray:
    yy, xx = _grid(n)
    return (xx >= x) & (xx < x + w) & (yy >= y) & (yy < y + h)


def gaussian_bias(n: int, ratio: float) -> np.ndarray:
    """Centred bump: 1 at the centre, falling towards 1/ratio; std n/3."""
    yy, xx = _grid(n)
    c = (n - 1) / 2.0
    std = n / 3.0
    lo = 1.0 / ratio
    return lo + (1.0 - lo) * np.exp(-((xx - c) ** 2 + (yy - c) ** 2) / (2.0 * std * std))


def ramp_bias(n: int, lo: float, hi: float) -> np.ndarray:
    return np.tile(np.linspace(lo, hi, n), (n, 1))


@dataclass
class Scene:
    """A rendered input: clean = layout * bias, noisy = clean * speckle."""

    levels: tuple[float, ...]  # layout intensity of each truth class
    bias: np.ndarray
    truth: np.ndarray          # labels 0..n_phases-1
    noisy: np.ndarray
    init_labels: np.ndarray | None = None   # for `init = mask:`

    @property
    def n_phases(self) -> int:
        return len(self.levels)

    @property
    def clean(self) -> np.ndarray:
        return np.choose(self.truth, self.levels) * self.bias

    @property
    def clipped(self) -> np.ndarray:
        """The image the program works on: it clips its input to [0, 255]."""
        return np.clip(self.noisy, 0.0, 255.0)


def speckle(shape: tuple[int, int], looks: float, seed: int) -> np.ndarray:
    """Unit-mean Gamma(L, 1/L) speckle from the benchmark's own generator."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.gamma(looks, 1.0 / looks, size=shape)


def _render(levels, bias, truth, looks, seed, init=None) -> Scene:
    clean = np.choose(truth, levels) * bias
    return Scene(tuple(levels), bias, truth,
                 clean * speckle(truth.shape, looks, seed), init)


def disk_scene(n: int, looks: float, seed: int) -> Scene:
    """The acceptance scene scaled to n: a dark disk (50) of radius 70 n/256
    at the centre of a bright background (200), Gaussian bias with ratio 2."""
    c = n / 2.0
    truth = disk_mask(n, c, c, 70.0 * n / 256.0).astype(np.int64)
    return _render((200.0, 50.0), gaussian_bias(n, 2.0), truth, looks, seed)


# Three phases on 256^2: a mid-grey background (100) holding a dark rectangle
# (30) and a bright disk (200). The background sits between the other two,
# so no edge passes through a third phase's intensity band.
P3_RECT = (36.0, 48.0, 84.0, 160.0)       # x, y, w, h
P3_DISK = (180.0, 128.0, 52.0)            # cx, cy, r
P3_INSET = 5.0                            # init mask: truth shapes inset by this


def phases3_scene(looks: float, seed: int) -> Scene:
    n = 256
    truth = np.zeros((n, n), dtype=np.int64)
    truth[rect_mask(n, *P3_RECT)] = 1
    truth[disk_mask(n, *P3_DISK)] = 2
    x, y, w, h = P3_RECT
    cx, cy, r = P3_DISK
    d = P3_INSET
    init = np.zeros((n, n), dtype=np.int64)
    init[rect_mask(n, x + d, y + d, w - 2 * d, h - 2 * d)] = 1
    init[disk_mask(n, cx, cy, r - d)] = 2
    return _render((100.0, 30.0, 200.0), ramp_bias(n, 0.9, 1.1), truth,
                   looks, seed, init)


# --------------------------------------------------------------------------
# self-test against hand values

def selftest(tmp: Path) -> None:
    """Raise AssertionError if a reader or score disagrees with a hand value."""
    # Criterion-12 confusion example: tp=1, fp=1, fn=0, tn=2 gives Dice 2/3
    # for the foreground and 2*2/(2+3) = 4/5 for the background.
    pred = np.array([[1, 1], [0, 0]])
    truth = np.array([[1, 0], [0, 0]])
    if matched_dice(pred, truth, 2) != [0.8, 2.0 / 3.0]:
        raise AssertionError(f"Dice {matched_dice(pred, truth, 2)} != [0.8, 2/3]")
    # Overlap matching undoes a relabelling of the phases.
    lab = np.array([[0, 1, 2], [2, 1, 0]])
    if matched_dice((lab + 1) % 3, lab, 3) != [1.0, 1.0, 1.0]:
        raise AssertionError("overlap matching failed on a relabelled partition")
    # A rasterised disk of radius 70 has area pi r^2 to within its perimeter.
    area = int(disk_mask(256, 128.0, 128.0, 70.0).sum())
    if abs(area - math.pi * 70.0**2) > 2.0 * math.pi * 70.0:
        raise AssertionError(f"disk area {area} far from pi*70^2")
    # PSNR of a constant error of 1 on peak 255 is 20 log10(255).
    zeros = np.zeros((4, 4))
    if abs(psnr(zeros + 1.0, zeros) - 20.0 * math.log10(255.0)) > 1e-12:
        raise AssertionError("PSNR of a unit error is not 20 log10(255)")
    # Round trips of both raster formats, and a PGM header comment.
    field = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
    write_f64(tmp / "t.f64", field)
    blob = (tmp / "t.f64").read_bytes()
    if blob[8:16] != bytes([4, 0, 0, 0, 3, 0, 0, 0]) or len(blob) != 16 + 96:
        raise AssertionError("FGRID64 header is not width, height as uint32 LE")
    if not np.array_equal(read_f64(tmp / "t.f64"), field):
        raise AssertionError("FGRID64 round trip is not exact")
    (tmp / "t.pgm").write_bytes(b"P5\n# comment\n2 1\n255\n\x00\xff")
    if read_pgm(tmp / "t.pgm").tolist() != [[0, 255]]:
        raise AssertionError("PGM reader mis-parsed a commented header")
