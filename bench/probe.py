"""Run `python -m ictmseg ARGS...` in this process and time its solver call.

Usage: python probe.py RECORD_JSON TRACE(0|1) ARGS...

The program's own `__main__` runs unchanged through `runpy`. Before it runs,
the probe wraps the one solver call the command makes (`segment` for
`segment`, `update_image` for `denoise`) where `ictmseg.cli` looks it up,
and reads the monotonic clock, which all processes share, on entry and exit.
With TRACE=1 it also installs the span recorder of `spans.py`. The record is
written when the program exits, whatever its exit status.
"""

import json
import runpy
import sys
import time

record = {"probe_start": time.monotonic()}
out_path, traced = sys.argv[1], sys.argv[2] == "1"
sys.argv = ["ictmseg"] + sys.argv[3:]

import ictmseg.cli as cli  # noqa: E402

record["import_s"] = time.monotonic() - record["probe_start"]

tracer = None
if traced:
    import spans

    tracer = spans.Tracer()
    tracer.install()


def _timed(solver):
    def call(*args, **kwargs):
        record["solve_enter"] = time.monotonic()
        try:
            return solver(*args, **kwargs)
        finally:
            record["solve_exit"] = time.monotonic()
    return call


cli.segment = _timed(cli.segment)
cli.update_image = _timed(cli.update_image)

code = 1
try:
    runpy.run_module("ictmseg", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else 1
finally:
    record["exit_code"] = code
    if tracer is not None:
        record["trace"] = tracer.dump()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
sys.exit(code)
