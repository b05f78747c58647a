"""File formats and the experiment configuration.

Images and masks travel as binary PGM (P5, 8-bit). Floating-point fields use
a raw little-endian raster: an 8-byte magic b"FGRID64\\0", two uint32 (width,
height), then width*height float64 values row-major. Configs are flat UTF-8
``key = value`` lines; '#' starts a comment; unknown keys are errors.
"""

from __future__ import annotations

import re
import typing
from pathlib import Path

import numpy as np

from .energy import ModelParams
from .errors import ConfigError
from .noise import NoiseSpec
from .synth import Shape, SynthSpec

__all__ = [
    "read_pgm", "write_pgm", "read_f64", "write_f64", "read_field",
    "ExperimentConfig", "parse_config", "load_config", "config_lines",
]

F64_MAGIC = b"FGRID64\x00"


# --------------------------------------------------------------------------
# rasters

def write_pgm(path, field: np.ndarray) -> None:
    """8-bit binary PGM. Values are rounded and clamped to [0, 255];
    pass integer-valued data to round-trip exactly."""
    field = np.asarray(field, dtype=np.float64)
    data = np.clip(np.rint(field), 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        m = re.match(rb"\s*(#[^\n]*\n|\S+)", blob[pos:])
        if m is None:
            raise ConfigError(f"{path}: truncated PGM header")
        pos += m.end()
        tok = m.group(1)
        if not tok.startswith(b"#"):
            tokens.append(tok)
    if tokens[0] != b"P5":
        raise ConfigError(f"{path}: not a binary PGM (P5) file")
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ConfigError(f"{path}: non-integer PGM size or maxval {tokens[1:]}") from None
    if w < 1 or h < 1:
        raise ConfigError(f"{path}: PGM size {w}x{h} is not positive")
    if maxval != 255:
        raise ConfigError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    data = np.frombuffer(blob[pos + 1:pos + 1 + w * h], dtype=np.uint8)
    if data.size != w * h:
        raise ConfigError(f"{path}: truncated pixel data")
    return data.reshape(h, w).astype(np.float64)


def write_f64(path, field: np.ndarray) -> None:
    field = np.ascontiguousarray(field, dtype="<f8")
    h, w = field.shape
    with open(path, "wb") as fh:
        fh.write(F64_MAGIC)
        fh.write(np.uint32(w).astype("<u4").tobytes())
        fh.write(np.uint32(h).astype("<u4").tobytes())
        fh.write(field.tobytes())


def read_f64(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != F64_MAGIC:
        raise ConfigError(f"{path}: bad magic, not a float raster")
    if len(blob) < 16 or len(blob) % 8:
        raise ConfigError(f"{path}: {len(blob)} bytes is not a 16-byte header "
                          "and whole float64 values")
    w, h = (int(v) for v in np.frombuffer(blob[8:16], dtype="<u4"))
    if w < 1 or h < 1:
        raise ConfigError(f"{path}: raster size {w}x{h} is not positive")
    data = np.frombuffer(blob[16:], dtype="<f8")
    if data.size != w * h:
        raise ConfigError(f"{path}: raster size mismatch")
    for what, test in (("NaN", np.isnan), ("infinite", np.isinf)):
        bad = np.count_nonzero(test(data))
        if bad:
            raise ConfigError(f"{path}: {bad} of {data.size} values are {what}")
    return data.reshape(h, w).copy()


def read_field(path) -> np.ndarray:
    """Dispatch on content: float raster or PGM."""
    with open(path, "rb") as fh:
        head = fh.read(8)
    return read_f64(path) if head == F64_MAGIC else read_pgm(path)


# --------------------------------------------------------------------------
# configuration

# One key per ModelParams field, in its order and typed by its annotation
# (`float | None` reads as float); `lambdas` is read from `n_phases` and
# `lambda` instead.
_MODEL_KEYS = {name: (typing.get_args(hint) or (hint,))[0]
               for name, hint in typing.get_type_hints(ModelParams).items()
               if name != "lambdas"}

_OTHER_KEYS = {
    "input": str, "truth": str, "n_phases": int, "lambda": str,
    "synth.size": str, "synth.background": float, "synth.region": str,
    "synth.bias": str,
    "noise.kind": str, "noise.looks": float,
    "init": str, "seed": int, "out": str,
}

_ALL_KEYS = {**_MODEL_KEYS, **_OTHER_KEYS}


class ExperimentConfig:
    """Resolved configuration: image source, noise, init, parameters, output."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.input = raw.get("input")
        self.truth = raw.get("truth")
        self.out = raw.get("out", ".")
        self.init = raw.get("init")
        self.synth = self._build_synth(raw)
        if (self.input is None) == (self.synth is None):
            raise ConfigError("config needs exactly one image source: "
                              "'input' or 'synth.*' keys")
        self.noise = NoiseSpec(
            kind=raw.get("noise.kind", "none"),
            looks=raw.get("noise.looks", 10.0),
            seed=raw.get("seed", 0),
        )
        self.params = self._build_params(raw)

    @staticmethod
    def _build_synth(raw: dict) -> SynthSpec | None:
        if not any(k.startswith("synth.") for k in raw):
            return None
        if "synth.size" not in raw:
            raise ConfigError("synth source requires synth.size")
        size = _parse_ints(raw["synth.size"], 2, "synth.size")
        shapes = tuple(_parse_region(r) for r in raw.get("synth.region", []))
        kind, args = _split_spec(raw.get("synth.bias", "none"))
        return SynthSpec(size=(size[0], size[1]),
                         background=raw.get("synth.background", 60.0), shapes=shapes,
                         bias=(kind, *_parse_floats(args, None, "synth.bias")))

    @staticmethod
    def _build_params(raw: dict) -> ModelParams:
        kwargs = {k: raw[k] for k in _MODEL_KEYS if k in raw}
        n = raw.get("n_phases", 2)
        if not 2 <= n <= 256:       # labels.pgm holds labels 0..255
            raise ConfigError(f"n_phases must lie in [2, 256], got {n}")
        lams = _parse_floats(raw.get("lambda", "1"), None, "lambda")
        if len(lams) == 1:
            lams = lams * n
        if len(lams) != n:
            raise ConfigError(f"lambda needs 1 or {n} values, got {len(lams)}")
        kwargs["lambdas"] = tuple(lams)
        return ModelParams(**kwargs).validate()


def _split_spec(text: str) -> tuple[str, str]:
    kind, _, args = text.partition(":")
    return kind.strip(), args.strip()


def _parse_floats(text: str, count: int | None, what: str) -> list[float]:
    try:
        vals = [float(t) for t in re.split(r"[,\s]+", text.strip()) if t]
    except ValueError as exc:
        expected = "" if count is None else f" (expected {count} values)"
        raise ConfigError(f"{what}: cannot parse numbers from {text!r}{expected}") from exc
    if count is not None and len(vals) != count:
        raise ConfigError(f"{what}: expected {count} values, got {len(vals)}")
    if not all(np.isfinite(vals)):
        raise ConfigError(f"{what}: numbers must be finite, got {text!r}")
    return vals


def _parse_ints(text: str, count: int, what: str) -> list[int]:
    vals = _parse_floats(text, count, what)
    if any(v != round(v) or abs(v) >= 2.0**63 for v in vals):
        raise ConfigError(f"{what}: expected whole numbers below 2^63, got {text!r}")
    return [int(v) for v in vals]


def _parse_region(text: str) -> Shape:
    kind, args = _split_spec(text)
    if kind not in Shape.ARITY:
        raise ConfigError(f"unknown region kind {kind!r} (disk|rect|ring)")
    vals = _parse_floats(args, Shape.ARITY[kind] + 1, f"synth.region {kind}")
    return Shape(kind=kind, params=tuple(vals[:-1]), intensity=vals[-1])


def _coerce(key: str, value: str, where: str):
    typ = _ALL_KEYS[key]
    if typ is float:
        return _parse_floats(value, 1, f"{where}: {key}")[0]
    try:
        if typ is bool:
            low = value.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(value)
        return typ(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {key}={value!r}") from exc


def parse_config(text: str, source: str = "<config>") -> dict:
    """Parse key=value lines into a raw dict; 'synth.region' accumulates."""
    raw: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r}")
        if key == "synth.region":
            raw.setdefault(key, []).append(value)
        elif key in raw:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r}")
        else:
            raw[key] = _coerce(key, value, f"{source}:{line_no}")
    return raw


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig(parse_config(text, source=str(path)))


def config_lines(cfg: ExperimentConfig) -> list[str]:
    """Re-serialize the resolved configuration (for the run manifest)."""
    p = cfg.params
    lines = []
    if cfg.input is not None:
        lines.append(f"input = {cfg.input}")
    if cfg.truth is not None:
        lines.append(f"truth = {cfg.truth}")
    if cfg.synth is not None:
        s = cfg.synth
        lines.append(f"synth.size = {s.size[0]},{s.size[1]}")
        lines.append(f"synth.background = {s.background!r}")
        for sh in s.shapes:
            args = ",".join(repr(v) for v in sh.params)
            lines.append(f"synth.region = {sh.kind}:{args},{sh.intensity!r}")
        args = ",".join(repr(v) for v in s.bias[1:])
        lines.append(f"synth.bias = {s.bias[0]}" + (f":{args}" if args else ""))
    lines.append(f"noise.kind = {cfg.noise.kind}")
    if cfg.noise.kind == "gamma":
        lines.append(f"noise.looks = {cfg.noise.looks!r}")
    if cfg.init is not None:
        lines.append(f"init = {cfg.init}")
    lines.append(f"n_phases = {p.n_phases}")
    lines.append("lambda = " + ",".join(repr(v) for v in p.lambdas))
    for key in _MODEL_KEYS:     # dt as the run resolves it, and a scale once resolved
        value = p.time_step if key == "dt" else getattr(p, key)
        if value is not None:
            text = str(value).lower() if isinstance(value, bool) else repr(value)
            lines.append(f"{key} = {text}")
    lines.append(f"seed = {cfg.noise.seed}")
    lines.append(f"out = {cfg.out}")
    return lines
