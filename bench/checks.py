"""Checks of one run's output files against the benchmark's own scene.

`check_run` returns the quality metrics it measured, what the run did
(iterations and stop reason) and a list of failed checks; an empty list means
the run's outputs are correct.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from scenes import Scene, matched_dice, psnr, read_f64, read_pgm

DSC_BAR = 0.95        # criterion 10


def read_manifest(path: Path) -> dict[str, str]:
    """`key = value` lines, including the `# key = value` run extras."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.lstrip("# ").partition(" = ")
        if sep:
            out[key] = value
    return out


def _energy_rows(path: Path) -> tuple[list[dict], list[dict]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    inner = [r for r in rows if r["inner_iter"] != ""]
    outer = [r for r in rows if r["inner_iter"] == ""]
    return inner, outer


def _sav_law_breaks(inner: list[dict]) -> list[str]:
    """z_sq must not increase between consecutive inner rows of one outer."""
    bad = []
    for prev, row in zip(inner, inner[1:]):
        if row["outer_iter"] == prev["outer_iter"] and float(row["z_sq"]) > float(prev["z_sq"]):
            bad.append(f"z_sq rose at outer {row['outer_iter']} inner {row['inner_iter']}: "
                       f"{prev['z_sq']} -> {row['z_sq']}")
    return bad


def check_run(command: str, scene: Scene, out: Path,
              exit_code: int) -> tuple[dict, dict, list[str]]:
    """Quality metrics, run facts and failed checks of one run."""
    n = scene.n_phases
    names = ["denoised.f64", "energy.csv", "manifest.txt"]
    if command == "segment":
        names += ["labels.pgm", "bias.f64", "metrics.csv"] + [f"mask_{i}.pgm" for i in range(n)]
    missing = [name for name in names if not (out / name).is_file()]
    if exit_code != 0 or missing:
        return {}, {}, [f"exit status {exit_code}, missing outputs {missing}"]

    fails: list[str] = []
    manifest = read_manifest(out / "manifest.txt")
    inner, outer = _energy_rows(out / "energy.csv")
    fails += _sav_law_breaks(inner)[:3]

    g = read_f64(out / "denoised.f64")
    floor = float(manifest["g_floor"]) * float(manifest["intensity_scale"])
    if g.shape != scene.truth.shape or not np.isfinite(g).all() or g.min() < floor:
        fails.append(f"denoised.f64 not finite and >= {floor} on the input grid")
    quality = {"psnr_db": psnr(g, scene.clean)}
    noisy_db = psnr(scene.clipped, scene.clean)
    if not quality["psnr_db"] > noisy_db:
        fails.append(f"PSNR {quality['psnr_db']:.3f} dB not above the input's {noisy_db:.3f} dB")

    if command == "segment":
        facts = {"outer": int(manifest["outer_iterations"]), "inner": len(inner)}
        err1 = float(manifest["final_err1"])
        facts["stop"] = "converged" if err1 <= float(manifest["tol1"]) else "max_outer"
        if len(outer) != facts["outer"] or (
                facts["stop"] == "max_outer" and facts["outer"] != int(manifest["max_outer"])):
            fails.append(f"energy.csv has {len(outer)} outer rows; manifest says "
                         f"{facts['outer']} with err1 {err1}")
        b = read_f64(out / "bias.f64")
        if not (np.isfinite(b).all() and b.min() > 0.0):
            fails.append("bias.f64 is not finite and positive")
        labels = read_pgm(out / "labels.pgm")
        if sorted(np.unique(labels).tolist()) != list(range(n)):
            fails.append(f"labels.pgm uses labels {np.unique(labels).tolist()}, not 0..{n - 1}")
        dice = matched_dice(labels, scene.truth, n)
        with open(out / "metrics.csv", newline="") as fh:
            theirs = [float(r["dsc"]) for r in csv.DictReader(fh)]
        if len(theirs) != n or max(abs(a - b) for a, b in zip(dice, theirs)) > 1e-6:
            fails.append(f"metrics.csv Dice {theirs} disagrees with {dice}")
    else:
        facts = {"outer": 0, "inner": int(manifest["inner_iterations"])}
        err2 = float(inner[-1]["err2"]) if inner else math.inf
        facts["stop"] = "converged" if err2 <= float(manifest["tol2"]) else "max_inner"
        if len(inner) != facts["inner"]:
            fails.append(f"energy.csv has {len(inner)} inner rows, manifest {facts['inner']}")
        # No partition comes out of `denoise`: label each pixel with the truth
        # class whose biased level lies nearest, to see that edges survive.
        levels = np.asarray(scene.levels)[:, None, None] * scene.bias
        dice = matched_dice(np.argmin(np.abs(g - levels), axis=0), scene.truth, n)
    quality["dsc_min"] = min(dice)
    facts["dice"] = dice
    if command == "segment" and quality["dsc_min"] < DSC_BAR:
        fails.append(f"dsc_min {quality['dsc_min']:.4f} < {DSC_BAR}")
    return quality, facts, fails
