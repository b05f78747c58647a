"""Span recording for the traced run, and the per-layer metrics made from it.

`Tracer.install()` wraps the public functions of `field`, `energy`, `solve`,
`fileio` and `cli` that the per-layer metrics name, in every module where a
caller looks them up. Each call becomes a span [name, start, end, parent]
kept in memory; `dump()` hands them to the probe, which writes them out when
the program exits. Convolutions are split into heat-kernel and fit-kernel
calls by comparing the kernel passed with the two kernels the solver builds
from its parameters. The solver's `IterationLog` and every RMSAV step's
(z, z_next, G) are captured too, for the checks the untraced run cannot make.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.kernels: dict[str, object] = {}
        self.steps: list[tuple] = []
        self.outers: list[tuple] = []
        self.inners: list[bool] = []
        self.bytes_written = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.monotonic(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.monotonic()

    def wrap(self, name: str, fn, after=None):
        """Span `name` around `fn`; `after(args, kwargs, result)` runs once
        the span is closed, so what it does is not charged to the layer."""
        def call(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return call

    def _kernel_name(self, kernel) -> str:
        for kind in ("heat", "fit"):
            ref = self.kernels.get(kind)
            if (ref is not None and kernel.radius == ref.radius
                    and np.array_equal(kernel.profile, ref.profile)):
                return f"field.convolve_{kind}"
        return "field.convolve_other"

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import ictmseg
        import ictmseg.cli as cli
        import ictmseg.energy as energy
        import ictmseg.field as field
        import ictmseg.solve as solve

        def patch(name: str, span: str, modules, after=None):
            wrapped = self.wrap(span, getattr(modules[0], name), after)
            for module in modules:
                setattr(module, name, wrapped)

        conv = field.convolve

        def convolve(f, kernel):
            idx = self._open(self._kernel_name(kernel))
            try:
                return conv(f, kernel)
            finally:
                self._close(idx)

        for module in (field, energy, solve, ictmseg):
            module.convolve = convolve

        patch("solve_implicit", "field.solve_implicit", (field, solve))
        patch("biharmonic", "field.biharmonic", (field, solve))
        patch("tv_energy", "energy.tv_energy", (energy, solve))
        for name in ("update_means", "update_bias", "build_g_context",
                     "force", "g_energy", "threshold"):
            patch(name, f"solve.{name}", (solve,))
        patch("rmsav_step", "solve.rmsav_step", (solve,), self._capture_step)
        patch("update_image", "solve.update_image", (solve,))

        seg, upd = cli.segment, cli.update_image

        def segment(f, init, params, progress=None):
            self.kernels["fit"] = field.gaussian_kernel(params.rho)
            self.kernels["heat"] = field.heat_kernel_pixels(
                params.heat_time_pixels(np.shape(f)))
            idx = self._open("solve.segment")
            try:
                state, log = seg(f, init, params, progress=progress)
            finally:
                self._close(idx)
            cap = f"inner loop hit max_inner={params.max_inner}"
            self.outers = [(r.eu_before, r.eu_after, cap in r.flags) for r in log.outers]
            self.inners = [r.floored for r in log.inners]
            return state, log

        def update_image(state, f, alpha, params, *args, **kwargs):
            self.kernels["fit"] = field.gaussian_kernel(params.rho)
            idx = self._open("solve.update_image")
            try:
                g, records, hit_cap = upd(state, f, alpha, params, *args, **kwargs)
            finally:
                self._close(idx)
            self.outers = [(0.0, 0.0, hit_cap)]
            self.inners = [r.floored for r in records]
            return g, records, hit_cap

        cli.segment, cli.update_image = segment, update_image
        cli.main = self.wrap("cli.main", cli.main)
        for name in ("read_field", "read_pgm"):
            setattr(cli, name, self.wrap("fileio.read", getattr(cli, name)))
        for name in ("write_pgm", "write_f64"):
            setattr(cli, name, self.wrap("fileio.write", getattr(cli, name),
                                         self._count_bytes))

    def _capture_step(self, args, kwargs, step) -> None:
        z = kwargs["z"] if "z" in kwargs else args[1]
        ctx = kwargs["ctx"] if "ctx" in kwargs else args[2]
        self.steps.append((float(z), step.z_next, step.g_val, ctx.eta))

    def _count_bytes(self, args, kwargs, _result) -> None:
        self.bytes_written += Path(args[0]).stat().st_size

    def dump(self) -> dict:
        return {"spans": self.spans, "steps": self.steps, "outers": self.outers,
                "inners": self.inners, "bytes_written": self.bytes_written}


# --------------------------------------------------------------------------
# what the parent makes of a dump

def _busy(spans, name) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]


def layer_metrics(record: dict, src_lines: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (counts per run, busy seconds)."""
    tr = record["trace"]
    spans = tr["spans"]
    heat, fit = _busy(spans, "field.convolve_heat"), _busy(spans, "field.convolve_fit")
    out = {
        "field.convolve_heat.calls": len(heat),
        "field.convolve_heat.s": sum(heat),
        "field.convolve_heat.first_s": heat[0] if heat else 0.0,
        "field.convolve_fit.calls": len(fit),
        "field.convolve_fit.s": sum(fit),
    }
    for name in ("field.solve_implicit", "field.biharmonic", "energy.tv_energy",
                 "solve.update_means", "solve.update_bias", "solve.build_g_context",
                 "solve.rmsav_step", "solve.force", "solve.g_energy", "solve.threshold",
                 "fileio.read"):
        out[f"{name}.s"] = sum(_busy(spans, name))

    seg = [i for i, s in enumerate(spans) if s[0] == "solve.segment"]
    self_s = 0.0
    for i in seg:
        children = sum(e - s for _, s, e, p in spans if p == i)
        self_s += spans[i][2] - spans[i][1] - children
    out["solve.segment.self_s"] = self_s
    starts = [s for n, s, _, _ in spans if n == "solve.update_means"]
    laps = [b - a for a, b in zip(starts, starts[1:])]
    out["solve.outer_ms"] = 1e3 * statistics.median(laps) if laps else 0.0

    out["solve.outer_iters"] = len(tr["outers"]) if seg else 0
    out["solve.inner_iters"] = len(tr["inners"])
    out["solve.inner_cap_hits"] = sum(1 for o in tr["outers"] if o[2])
    out["solve.floored_steps"] = sum(1 for f in tr["inners"] if f)

    main = next(s for s in spans if s[0] == "cli.main")
    out["cli.import_s"] = record["import_s"]
    out["cli.setup_s"] = record["solve_enter"] - main[1]
    out["cli.output_s"] = main[2] - record["solve_exit"]
    out["fileio.bytes_written"] = tr["bytes_written"]
    out["src.lines"] = src_lines
    return out


def law_violations(record: dict) -> list[str]:
    """Criterion 3 on every threshold step, criterion 1 on every RMSAV step."""
    tr = record["trace"]
    bad = []
    for k, (before, after, _) in enumerate(tr["outers"]):
        if after - before > 1e-12 * max(1.0, abs(before)):
            bad.append(f"outer {k}: partition energy rose {before!r} -> {after!r}")
    for j, (z, z_next, g_val, eta) in enumerate(tr["steps"]):
        slack = (z_next - z) * (z_next + z) + (1.0 - eta) * g_val
        if slack > 1e-9 * max(1.0, z * z):
            bad.append(f"step {j}: z^2 - z_prev^2 exceeds -(1-eta) G by {slack:.3e}")
    return bad[:5]
