"""Peak resident memory of the program alone, on one prepared benchmark input.

    python3 tools/program_rss.py segment|denoise DIR [--runs N] [--src SRC]

DIR is a directory that `bench/run.py` prepared, `.bench_work/<workload>/
input<k>`, holding the input files and the `run.cfg` beside them. The script
runs `python -m ictmseg COMMAND --config run.cfg --quiet --out TMP` there N
times, one at a time, with PYTHONPATH leading with SRC (default: this
checkout's `src/`), and prints one JSON line: the median, min and max of each
run's `ru_maxrss` from `os.wait4`, in MB, and every run's value.

Linux counts the RSS of the parent at the fork into the child's high-water
mark, so `bench/run.py`'s `peak_rss_mb`, spawned from a parent that holds
numpy, mostly reads the harness. This parent never imports numpy: it holds
about a bare interpreter, far below any run's peak, so it reports the
program's own peak. The script only measures: it sets no bound, and exits
nonzero only when a run fails or its arguments are wrong.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def peak_rss_mb(command: str, d: Path, src: Path) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = Path(tempfile.mkdtemp(prefix="program_rss_"))
    try:
        with open(out / "program.log", "wb") as log:
            proc = subprocess.Popen([sys.executable, "-m", "ictmseg", command, "--config",
                                     "run.cfg", "--quiet", "--out", str(out / "out")],
                                    cwd=d, env=env, stdout=log, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)   # reaped by wait4
        if proc.returncode != 0:
            sys.stderr.write((out / "program.log").read_text(encoding="utf-8", errors="replace"))
            raise SystemExit(f"error: {command} in {d} exited with {proc.returncode}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return usage.ru_maxrss / 1024.0     # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=("segment", "denoise"))
    parser.add_argument("dir", type=Path, help="a prepared .bench_work/<workload>/input<k>")
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("--src", type=Path, default=SRC, help="the program's src/ directory")
    args = parser.parse_args(argv)
    if not (args.dir / "run.cfg").is_file():
        parser.error(f"no run.cfg in {args.dir}: run bench/run.py for its workload first")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    assert "numpy" not in sys.modules     # it would swell every child's high-water mark
    runs = [peak_rss_mb(args.command, args.dir, args.src.resolve()) for _ in range(args.runs)]
    print(json.dumps({"command": args.command, "dir": str(args.dir), "runs": len(runs),
                      "median_mb": statistics.median(runs), "min_mb": min(runs),
                      "max_mb": max(runs), "runs_mb": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
