"""Benchmark of `ictmseg segment` and `ictmseg denoise`, run as users run them.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

One operation is one `python -m ictmseg segment|denoise --config ...`
process, run from this checkout's `src/` (see probe.py). Operations run one
at a time: a closed loop with a single client. A round is one operation on
each of the workload's inputs, which are drawn from --seed; the run repeats
whole rounds until --seconds have passed. Every operation's outputs are
checked against the benchmark's own scene (checks.py).

With --trace 0 the run reports the end-to-end metrics, each the median over
its operations. With --trace 1 a round is an untraced and a traced operation
on the first input; the run reports the per-layer metrics of the traced
operations (spans.py) and the tracing overhead, the traced minus the untraced
`solve_s`. The last line printed is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import scenes
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OP_TIMEOUT_S = 170.0

END_TO_END = {"run_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB",
              "dsc_min": "1", "psnr_db": "dB"}
PER_LAYER = {
    "field.convolve_heat.calls": "count", "field.convolve_heat.s": "s",
    "field.convolve_heat.first_s": "s",
    "field.convolve_fit.calls": "count", "field.convolve_fit.s": "s",
    "field.solve_implicit.s": "s", "field.biharmonic.s": "s", "energy.tv_energy.s": "s",
    "solve.outer_iters": "count", "solve.inner_iters": "count",
    "solve.inner_cap_hits": "count", "solve.floored_steps": "count", "solve.outer_ms": "ms",
    "solve.update_means.s": "s", "solve.update_bias.s": "s", "solve.build_g_context.s": "s",
    "solve.rmsav_step.s": "s", "solve.force.s": "s", "solve.g_energy.s": "s",
    "solve.threshold.s": "s", "solve.segment.self_s": "s",
    "fileio.read.s": "s", "cli.import_s": "s", "cli.setup_s": "s",
    "cli.output_s": "s", "fileio.bytes_written": "bytes", "src.lines": "count",
    "trace.overhead_s": "s",
}

KNOWN_384_FAULT = ("known fault: at 384^2 the partition settles in a local minimum "
                   "with a spurious background annulus, below criterion 10's bar")


@dataclass(frozen=True)
class Workload:
    command: str            # segment | denoise
    config: str             # the run's config; input files sit beside it
    scene: Callable[[int], scenes.Scene]
    inputs: int             # inputs per round, each drawn from its own seed
    fixed_seed: int | None = None   # input drawn from this, not --seed
    known_fault: str | None = None  # a failure every run shows


COMMON = "input = noisy.f64\nout = out\n"
WORKLOADS = {
    # The acceptance scene (criteria 3 and 10) with default parameters. The
    # outer iterations to convergence range from 48 to 81 with the speckle
    # draw, so a round holds four draws.
    "disk-gamma-256": Workload(
        "segment", COMMON + "truth = truth.pgm\ninit = circle:128,128,50\n",
        lambda seed: scenes.disk_scene(256, 10.0, seed), inputs=4),
    # The same scene at 1.5x. It fails criterion 10 at this size on both
    # speckle draws tried, so its input is fixed and every run shows the fault.
    "disk-gamma-384": Workload(
        "segment", COMMON + "truth = truth.pgm\ninit = circle:192,192,75\n",
        lambda seed: scenes.disk_scene(384, 10.0, seed), inputs=1,
        fixed_seed=42, known_fault=KNOWN_384_FAULT),
    # Three phases, local heat kernel: both kernels take the direct path. The
    # partition rarely settles on this scene (see README), so the run stops
    # at a fixed 100 outer iterations.
    "phases3-local-256": Workload(
        "segment", COMMON + "truth = truth.pgm\ninit = mask:init.pgm\nn_phases = 3\n"
        "tau = 8\ntau_in_pixels = true\nmax_outer = 100\n",
        lambda seed: scenes.phases3_scene(10.0, seed), inputs=3),
    # The image flow alone, a fixed 384 RMSAV steps (tol2 = 0): the relative
    # energy test stops the flow after 22 to 384 steps depending on the draw.
    "denoise-gamma-256": Workload(
        "denoise", COMMON + "tol2 = 0\nmax_inner = 384\n",
        lambda seed: scenes.disk_scene(256, 4.0, seed), inputs=4),
}


@dataclass
class Op:
    metrics: dict
    facts: dict
    failures: list
    record: dict


def prepare(name: str, wl: Workload, seed: int, count: int) -> list[tuple[Path, scenes.Scene]]:
    """Render `count` inputs and write them with the run's config."""
    inputs = []
    for k in range(count):
        draw = wl.fixed_seed if wl.fixed_seed is not None else seed
        scene = wl.scene(int(np.random.SeedSequence([draw, k]).generate_state(1)[0]))
        d = WORK / name / f"input{k}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        scenes.write_f64(d / "noisy.f64", scene.noisy)
        scenes.write_pgm(d / "truth.pgm", scene.truth)
        if scene.init_labels is not None:
            scenes.write_pgm(d / "init.pgm", scene.init_labels)
        (d / "run.cfg").write_text(wl.config, encoding="utf-8")
        inputs.append((d, scene))
    return inputs


def run_op(wl: Workload, d: Path, scene: scenes.Scene, traced: bool) -> Op:
    shutil.rmtree(d / "out", ignore_errors=True)
    (d / "record.json").unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "probe.py"), "record.json", "1" if traced else "0",
           wl.command, "--config", "run.cfg", "--quiet"]
    with open(d / "program.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=d, env=env, stdout=log, stderr=log)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.monotonic()
        killer.cancel()
        killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped by wait4
    try:
        record = json.loads((d / "record.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    metrics = {"run_s": t1 - t0, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if "solve_exit" in record:
        metrics["setup_s"] = record["solve_enter"] - t0
        metrics["solve_s"] = record["solve_exit"] - record["solve_enter"]
    quality, facts, failures = checks.check_run(wl.command, scene, d / "out", proc.returncode)
    metrics.update(quality)
    if traced and not failures:
        failures += spans.law_violations(record)
    return Op(metrics, facts, failures, record)


def summarize(rounds: list[list[Op]]) -> dict[str, float]:
    """End-to-end metrics of a run.

    A round's inputs differ in how many iterations they take, so a round is
    summarised by its mean and the run by the median over rounds. `setup_s`
    does not depend on the input: it is the median over all operations.
    """
    out = {}
    for key in END_TO_END:
        if key == "setup_s":
            values = [op.metrics[key] for ops in rounds for op in ops if key in op.metrics]
        else:
            values = [statistics.fmean(v) for v in
                      ([op.metrics[key] for op in ops if key in op.metrics] for ops in rounds) if v]
        if values:
            out[key] = statistics.median(values)
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool, src_lines: int) -> dict:
    wl = WORKLOADS[name]
    inputs = prepare(name, wl, seed, 1 if traced else wl.inputs)
    rounds: list[list[Op]] = []
    layers: list[dict] = []
    deadline = time.monotonic() + seconds
    while not rounds or time.monotonic() < deadline:
        if traced:
            d, scene = inputs[0]
            plain, tr = run_op(wl, d, scene, False), run_op(wl, d, scene, True)
            rounds.append([plain, tr])
            if not (plain.failures or tr.failures):
                if (tr.facts["outer"], tr.facts["inner"]) != (plain.facts["outer"], plain.facts["inner"]):
                    tr.failures.append(f"traced iterations {tr.facts} differ from untraced {plain.facts}")
                else:
                    layer = spans.layer_metrics(tr.record, src_lines)
                    layer["trace.overhead_s"] = tr.metrics["solve_s"] - plain.metrics["solve_s"]
                    layers.append(layer)
        else:
            rounds.append([run_op(wl, d, scene, False) for d, scene in inputs])

    ops = [op for ops in rounds for op in ops]
    unexpected = 0
    for i, op in enumerate(ops):
        facts = op.facts
        line = (f"{name} op {i}: " + " ".join(f"{k}={v:.4f}" for k, v in op.metrics.items())
                + (f" outer={facts['outer']} inner={facts['inner']} stop={facts['stop']} "
                   f"dice={[round(x, 4) for x in facts['dice']]}" if facts else ""))
        if op.failures:
            known = wl.known_fault is not None and all(f.startswith("dsc_min") for f in op.failures)
            unexpected += not known
            line += " FAILED: " + "; ".join(op.failures) + (f" ({wl.known_fault})" if known else "")
        print(line, file=sys.stderr)

    if traced:
        units = PER_LAYER
        metrics = {k: statistics.median(m[k] for m in layers) for k in units} if layers else {}
    else:
        units = END_TO_END
        metrics = summarize(rounds)
    return {"correct": unexpected == 0 and len(metrics) == len(units),
            "attempted": len(ops),
            "failed": sum(1 for op in ops if op.failures),
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ictmseg" / "__main__.py").is_file():
        print(f"error: no program source at {SRC / 'ictmseg'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        scenes.selftest(WORK)
    except AssertionError as exc:
        print(f"error: benchmark self-test failed: {exc}", file=sys.stderr)
        return 2
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "ictmseg").glob("*.py")))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), src_lines)
        results[name] = res
        print(f"{name}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']}")
        for key, m in res["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
