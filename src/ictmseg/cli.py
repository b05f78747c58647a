"""Command-line harness: synthetic images, noise injection, segmentation,
denoising and metric reports.

Exit codes: 0 success, 2 configuration/contract error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .energy import IndicatorSet
from .errors import ConfigError, NumericalFailure
from .fileio import (
    ExperimentConfig,
    _parse_floats,
    _parse_ints,
    _split_spec,
    config_lines,
    load_config,
    read_field,
    read_pgm,
    write_f64,
    write_pgm,
)
from .metrics import match_phases, multiphase_report, score_masks
from .noise import corrupt
from .solve import FlowRun, segment, update_image
from .synth import Shape, generate

ENERGY_COLUMNS = ["outer_iter", "inner_iter", "E_fit", "E_len", "E_idiv",
                  "E_tv", "E_total", "E_u", "z_sq", "xi", "err1", "err2"]


def _fmt(x) -> str:
    return "" if x is None else f"{x:.12g}"


def _write_energy_csv(path, inners, outers=()) -> None:
    """One row per RMSAV step, each outer iteration's steps followed by its
    summary row."""
    rows = [(r.outer, 0, [r.outer, r.inner, _fmt(r.fit), "", _fmt(r.idiv), _fmt(r.tv),
                          _fmt(r.energy), "", _fmt(r.z_sq), _fmt(r.xi), "", _fmt(r.err2)])
            for r in inners]
    rows += [(r.outer, 1, [r.outer, "", _fmt(r.energy.fit), _fmt(r.energy.length),
                           _fmt(r.energy.idiv), _fmt(r.energy.tv), _fmt(r.energy.total),
                           _fmt(r.eu_after), "", "", _fmt(r.err1), ""])
             for r in outers]
    rows.sort(key=lambda row: row[:2])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ENERGY_COLUMNS)
        writer.writerows(row for _, _, row in rows)


def _write_manifest(path, cfg: ExperimentConfig, extras: dict | None = None,
                    warnings=()) -> None:
    """Resolved config plus `# key = value` run extras. Each warning is also
    printed to stderr and recorded as a `# warning = ...` line."""
    lines = [f"# ictmseg {__version__} run manifest"]
    lines += config_lines(cfg)
    for key, value in (extras or {}).items():
        lines.append(f"# {key} = {value}")
    for msg in warnings:
        print(f"warning: {msg}", file=sys.stderr)
        lines.append(f"# warning = {msg}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _build_init(spec_text: str | None, f: np.ndarray, n: int) -> IndicatorSet:
    """Initial partition from a contour spec.

    The contour interior is phase 0; for n > 2 the exterior pixels, ranked by
    intensity (stable, so ties keep raster order), are split into n - 1
    equal-count groups, darkest first. No phase starts empty unless the
    exterior has fewer than n - 1 pixels.
    """
    if spec_text is None:
        raise ConfigError("segmentation requires an 'init' contour spec")
    kind, args = _split_spec(spec_text)
    h, w = f.shape
    if kind == "mask":
        labels = read_pgm(args)
        if labels.shape != f.shape:
            raise ConfigError("init mask dimensions do not match the image")
        if labels.max() >= n:
            raise ConfigError(f"init mask labels exceed n_phases={n}")
        return IndicatorSet.from_labels(labels.astype(np.int64), n)
    if kind == "checkerboard":
        cell = _parse_ints(args, 1, "init checkerboard")[0]
        if cell < 1:
            raise ConfigError("checkerboard cell must be >= 1")
        yy, xx = np.mgrid[0:h, 0:w]
        return IndicatorSet.from_labels(((yy // cell) + (xx // cell)) % n, n)
    shape_kinds = {"circle": ("disk", 3), "rect": ("rect", 4)}
    if kind not in shape_kinds:
        raise ConfigError(f"unknown init kind {kind!r} "
                          "(circle|rect|checkerboard|mask)")
    shape, arity = shape_kinds[kind]
    values = tuple(_parse_floats(args, arity, f"init {kind}"))
    interior = Shape(shape, values, 0.0).mask(h, w)
    labels = np.zeros((h, w), dtype=np.int64)
    outside = ~interior
    order = np.argsort(f[outside], kind="stable")
    exterior = np.empty(order.size, dtype=np.int64)
    for phase, group in enumerate(np.array_split(order, n - 1), start=1):
        exterior[group] = phase
    labels[outside] = exterior
    return IndicatorSet.from_labels(labels, n)


def _resolve_image(cfg: ExperimentConfig):
    """Produce (f, truth_or_None, warnings) from the configured source, with
    corruption applied and load clamping to [0, 255]. A clamp that changes
    any pixel is reported as a run warning. Unless the config sets
    `intensity_scale`, it becomes the maximum of the clamped input, in
    `cfg.params` so that the manifest echoes it: the model is equivariant
    under scaling only when the scale follows the data."""
    truth = None
    if cfg.synth is not None:
        clean, truth, _ = generate(cfg.synth)
    else:
        clean = read_field(cfg.input)
        if cfg.truth is not None:
            labels = read_pgm(cfg.truth).astype(np.int64)
            truth = IndicatorSet.from_labels(labels, int(labels.max()) + 1)
    raw = corrupt(clean, cfg.noise)
    f = np.clip(raw, 0.0, 255.0)
    changed = np.count_nonzero(f != raw)
    warnings = [f"input clamped to [0, 255]: {changed} of {f.size} pixels changed "
                f"(min {raw.min():.6g}, max {raw.max():.6g})"] if changed else []
    if "intensity_scale" not in cfg.raw:
        peak = float(f.max())
        if peak == 0.0:
            raise ConfigError("input is all zero after the clamp to [0, 255]: "
                              "no intensity_scale can be taken from it")
        cfg.params = replace(cfg.params, intensity_scale=peak)
    return f, truth, warnings


def _score_rows(pred: IndicatorSet, truth: IndicatorSet) -> list[dict]:
    if truth.n != pred.n:
        raise ConfigError(f"truth has {truth.n} phases, prediction {pred.n}")
    matched = match_phases(pred, truth)
    return multiphase_report(matched, truth)


def _print_metric_rows(rows: list[dict]) -> None:
    for row in rows:
        print(f"{row['class']}: DSC={row['dsc']:.4f} IoU={row['iou']:.4f} "
              f"Acc={row['accuracy']:.4f} kappa={row['kappa']:.4f}")


def _write_metric_rows(path, rows: list[dict], quiet: bool) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["class", "dsc", "iou",
                                                "accuracy", "kappa"])
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (f"{v:.6f}" if isinstance(v, float) else v)
                             for k, v in row.items()})
    if not quiet:
        _print_metric_rows(rows)


# --------------------------------------------------------------------------
# commands

def cmd_synth(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    if cfg.synth is None:
        raise ConfigError("synth command requires synth.* keys")
    clean, truth, bias = generate(cfg.synth)
    write_pgm(out / "clean.pgm", clean)
    write_f64(out / "clean.f64", clean)
    write_pgm(out / "truth.pgm", truth.labels().astype(np.float64))
    write_f64(out / "bias.f64", bias)
    _write_manifest(out / "manifest.txt", cfg)
    if not quiet:
        print(f"wrote clean/truth/bias to {out}")
    return 0


def cmd_noise(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    if cfg.noise.kind == "none":
        raise ConfigError("noise command requires noise.kind != none")
    if cfg.synth is not None:
        clean, _, _ = generate(cfg.synth)
    else:
        clean = read_field(cfg.input)
        bad = np.count_nonzero(~np.isfinite(clean))
        if bad:
            raise ConfigError(f"{cfg.input}: {bad} of {clean.size} values are infinite; "
                              "noise needs a finite clean image")
    noisy = corrupt(clean, cfg.noise)
    write_pgm(out / "noisy.pgm", noisy)      # 8-bit view, clamped
    write_f64(out / "noisy.f64", noisy)      # exact values, unclamped
    _write_manifest(out / "manifest.txt", cfg)
    if not quiet:
        print(f"wrote noisy image to {out}")
    return 0


def cmd_segment(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    f, truth, warnings = _resolve_image(cfg)
    init = _build_init(cfg.init, f, cfg.params.n_phases)
    progress = None
    if not quiet:
        def progress(rec):
            print(f"outer {rec.outer:4d}  E={rec.energy.total:.6e}  "
                  f"E_u={rec.eu_after:.6e}  err1={rec.err1:.3e}")
    state, log = segment(f, init, cfg.params, progress=progress)

    labels = state.u.labels()
    for i in range(state.u.n):
        write_pgm(out / f"mask_{i}.pgm", (labels == i) * 255.0)
    write_pgm(out / "labels.pgm", labels.astype(np.float64))
    write_pgm(out / "denoised.pgm", state.g)
    write_f64(out / "denoised.f64", state.g)
    write_f64(out / "bias.f64", state.b)
    corrected = f / np.maximum(state.b, np.finfo(float).tiny)
    write_f64(out / "corrected.f64", corrected)
    write_pgm(out / "corrected.pgm", np.clip(corrected, 0.0, 255.0))
    _write_energy_csv(out / "energy.csv", log.inners, log.outers)
    if truth is not None:
        write_pgm(out / "truth.pgm", truth.labels().astype(np.float64))
        _write_metric_rows(out / "metrics.csv", _score_rows(state.u, truth), quiet)
    _write_manifest(out / "manifest.txt", cfg, extras={
        "outer_iterations": len(log.outers),
        "final_err1": log.outers[-1].err1 if log.outers else "",
        "means": ",".join(f"{c:.6g}" for c in state.c),
    }, warnings=warnings + log.warnings)
    if not quiet:
        print(f"finished in {len(log.outers)} outer iterations; outputs in {out}")
    return 0


def cmd_denoise(cfg: ExperimentConfig, out: Path, quiet: bool) -> int:
    """Run only the smooth-image subproblem: the run's flow context, which
    has no fitting term, so the flow reads no partition, bias or means.

    Unlike segmentation, the flow runs long (default cap 500 steps unless the
    config sets max_inner) since there is no partition to co-evolve with; the
    manifest records the cap the flow ran with.
    """
    f, _, warnings = _resolve_image(cfg)
    if "max_inner" not in cfg.raw:
        cfg.params = replace(cfg.params, max_inner=500)
    params = cfg.params
    f_norm = f / params.intensity_scale
    run = FlowRun.start(f_norm, params)
    g, records, hit_cap = update_image(np.maximum(f_norm, params.g_floor), run.ctx,
                                       run, params, 0)
    g = g * params.intensity_scale
    write_pgm(out / "denoised.pgm", g)
    write_f64(out / "denoised.f64", g)
    _write_energy_csv(out / "energy.csv", records)
    if hit_cap:
        warnings.append(f"inner loop hit max_inner={params.max_inner}")
    _write_manifest(out / "manifest.txt", cfg,
                    extras={"inner_iterations": len(records)}, warnings=warnings)
    if not quiet:
        print(f"denoised in {len(records)} flow steps; outputs in {out}")
    return 0


def cmd_metrics(pred_path: str, truth_path: str, out: Path | None,
                quiet: bool) -> int:
    pred = read_pgm(pred_path)
    truth = read_pgm(truth_path)
    if pred.shape != truth.shape:
        raise ConfigError("prediction and truth dimensions differ")
    classes = np.union1d(np.unique(pred), np.unique(truth))
    rows = []
    if classes.size <= 2:
        fg = classes[-1]
        rows.append({"class": "foreground",
                     **score_masks((pred == fg).astype(float) if fg > 0 else pred,
                                   (truth == fg).astype(float) if fg > 0 else truth)})
    else:
        for v in classes:
            rows.append({"class": f"label_{int(v)}",
                         **score_masks((pred == v).astype(float),
                                       (truth == v).astype(float))})
    if out is not None:
        _write_metric_rows(out / "metrics.csv", rows, quiet)
    elif not quiet:
        _print_metric_rows(rows)
    return 0


# --------------------------------------------------------------------------
# entry point

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ictmseg",
        description="Joint denoising, bias correction and segmentation "
                    "for Poisson / multiplicative-Gamma noise.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "noise", "segment", "denoise"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--quiet", action="store_true")
    m = sub.add_parser("metrics")
    m.add_argument("pred", help="predicted mask / label map (PGM)")
    m.add_argument("truth", help="ground-truth mask / label map (PGM)")
    m.add_argument("--out", default=None, help="also write metrics.csv here")
    m.add_argument("--quiet", action="store_true")
    return parser


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "metrics":
        out = None
        if args.out is not None:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
        return cmd_metrics(args.pred, args.truth, out, args.quiet)
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.noise = replace(cfg.noise, seed=args.seed)
    if args.out is not None:
        cfg.out = args.out
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    handler = {"synth": cmd_synth, "noise": cmd_noise,
               "segment": cmd_segment, "denoise": cmd_denoise}[args.command]
    return handler(cfg, out, args.quiet)


def main(argv=None) -> int:
    try:
        return run(argv)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
