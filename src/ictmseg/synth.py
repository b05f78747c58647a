"""Synthetic test images: piecewise-constant layouts under a multiplicative
bias field, with the generating partition returned as ground truth.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .energy import IndicatorSet
from .errors import ConfigError

__all__ = ["Shape", "SynthSpec", "generate"]


class Shape:
    """One region primitive: kind in {'disk', 'rect', 'ring'}.

    params: disk (cx, cy, r); rect (x, y, w, h); ring (cx, cy, r_in, r_out),
    with sizes >= 0 and r_in <= r_out. Later shapes paint over earlier ones.
    """

    ARITY = {"disk": 3, "rect": 4, "ring": 4}

    def __init__(self, kind: str, params: tuple, intensity: float):
        if kind not in self.ARITY:
            raise ConfigError(f"unknown shape kind {kind!r}")
        if len(params) != self.ARITY[kind]:
            raise ConfigError(f"a {kind} takes {self.ARITY[kind]} numbers, got {len(params)}")
        sizes = params[2:]
        if min(sizes, default=0) < 0 or kind == "ring" and sizes[0] > sizes[1]:
            raise ConfigError(f"{kind}:{','.join(f'{v:g}' for v in params)}: "
                              "sizes must be nonnegative, and a ring's r_in at most its r_out")
        self.kind, self.params, self.intensity = kind, params, intensity

    def mask(self, height: int, width: int) -> np.ndarray:
        yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
        if self.kind == "disk":
            cx, cy, r = self.params
            return (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        if self.kind == "rect":
            x, y, w, h = self.params
            return (xx >= x) & (xx < x + w) & (yy >= y) & (yy < y + h)
        cx, cy, r_in, r_out = self.params      # a ring
        rr = (xx - cx) ** 2 + (yy - cy) ** 2
        return (rr >= r_in * r_in) & (rr <= r_out * r_out)


class SynthSpec(NamedTuple):
    """Shapes on a background under a bias (kind, *params): ('none',);
    ('ramp', left, right), the values at the edges; ('gaussian', ratio[, std]),
    a centered bump of max/min ratio and std in pixels (default size/3)."""

    size: tuple[int, int]            # (height, width)
    background: float = 60.0
    shapes: tuple = ()
    bias: tuple = ("none",)

    def validate(self) -> "SynthSpec":
        h, w = self.size
        if h < 1 or w < 1:
            raise ConfigError("synthetic image size must be positive")
        for s in self.shapes:
            if not 0.0 <= s.intensity <= 255.0:
                raise ConfigError("region intensities must lie in [0, 255]")
        if not 0.0 <= self.background <= 255.0:
            raise ConfigError("background intensity must lie in [0, 255]")
        kind, *args = self.bias
        if not np.isfinite([v for s in self.shapes for v in s.params] + args).all():
            raise ConfigError("synthetic region and bias numbers must be finite")
        if len(args) not in {"none": (0,), "ramp": (2,), "gaussian": (1, 2)}.get(kind, ()):
            raise ConfigError(f"synth.bias: {kind!r} with {len(args)} numbers; expected "
                              "none, ramp:left,right or gaussian:ratio[,std]")
        if kind == "ramp" and min(args) <= 0:
            raise ConfigError("synth.bias ramp: values must be strictly positive")
        if kind == "gaussian" and (args[0] < 1.0 or len(args) == 2 and args[1] <= 0):
            raise ConfigError("synth.bias gaussian: the ratio must be >= 1 (max/min) "
                              "and the std > 0")
        return self


def _bias_field(spec: SynthSpec) -> np.ndarray:
    h, w = spec.size
    kind, *args = spec.bias
    if kind == "none":
        return np.ones((h, w))
    if kind == "ramp":
        return np.tile(np.linspace(*args, w), (h, 1))
    # centered bump, max 1 at the center falling to 1/ratio
    std = args[1] if len(args) == 2 else max(h, w) / 3.0
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    rr = (xx - (w - 1) / 2.0) ** 2 + (yy - (h - 1) / 2.0) ** 2
    lo = 1.0 / args[0]
    return lo + (1.0 - lo) * np.exp(-rr / (2.0 * std * std))


def generate(spec: SynthSpec) -> tuple[np.ndarray, IndicatorSet, np.ndarray]:
    """Render (clean, truth, bias): clean = bias * piecewise-constant layout.

    Phase 0 is the background; shape k paints phase k+1 (later shapes win).
    Fully deterministic: same spec, same arrays.
    """
    spec.validate()
    h, w = spec.size
    labels = np.zeros((h, w), dtype=np.int64)
    values = np.full((h, w), float(spec.background))
    for k, shape in enumerate(spec.shapes):
        m = shape.mask(h, w)
        labels[m] = k + 1
        values[m] = shape.intensity
    bias = _bias_field(spec)
    truth = IndicatorSet(labels, len(spec.shapes) + 1)
    return values * bias, truth, bias
