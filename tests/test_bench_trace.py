"""The benchmark's span recorder (`bench/spans.py`) against the program.

The tracer wraps functions of `field`, `energy`, `solve`, `fileio` and `cli`
by name and reads some of their arguments by position. A change to a name or
a layout it relies on would break the traced benchmark; here it fails a test.
The test only imports `bench/spans.py` and runs it in a child process, so the
patched modules do not leak into other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCENE = """synth.size = 32,32
synth.background = 60
synth.region = disk:16,16,8,190
noise.kind = gamma
noise.looks = 10
seed = 5
max_outer = 6
"""

RUNS = {
    "segment2": ("segment", SCENE + "init = circle:16,16,6\n"),
    "segment3": ("segment", SCENE + "synth.region = rect:2,2,10,28,120\n"
                 "init = circle:16,16,6\nn_phases = 3\n"),
    "denoise": ("denoise", SCENE + "max_inner = 8\n"),
}

CHILD = """
import json, sys
from collections import Counter
import spans
import ictmseg.cli as cli

tracer = spans.Tracer()
tracer.install()
report = {}
for name, command, cfg, out in json.loads(sys.argv[1]):
    code = cli.main([command, "--config", cfg, "--out", out, "--quiet"])
    dump = tracer.dump()
    report[name] = {"code": code,
                    "violations": spans.law_violations({"trace": dump}),
                    "counts": Counter(s[0] for s in dump["spans"])}
    tracer.spans.clear()
    tracer.steps.clear()
print(json.dumps(report))
"""


def test_traced_runs_keep_the_tracer_contract(tmp_path):
    jobs = []
    for name, (command, text) in RUNS.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        jobs.append((name, command, str(cfg), str(tmp_path / name)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(jobs)],
                          capture_output=True, text=True, cwd=tmp_path, env=env,
                          check=True, timeout=120)
    report = json.loads(proc.stdout.splitlines()[-1])
    for name, run in report.items():
        assert run["code"] == 0 and run["violations"] == [], (name, run)
        wanted = ["solve.rmsav_step", "field.solve_implicit", "solve.update_image"]
        if name != "denoise":
            wanted += ["field.convolve_fit", "field.convolve_heat", "solve.build_g_context"]
        for span in wanted:
            assert run["counts"].get(span, 0) > 0, (name, span)
