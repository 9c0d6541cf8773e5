"""Runs `python3 -m twistcong.cli ARGS` in this interpreter, then the
calibration kernel in the same process.

    python3 perfbench/cli_probe.py SHARE ARGS...

The command runs as `-m` runs it (`runpy`, as `__main__`, with `sys.argv`
set to ARGS) and keeps its standard output and exit code. When it has ended,
the probe notes the clock (`time.perf_counter`, the system-wide monotonic
clock, so the parent that started this process can subtract its own start
time), runs the kernel for SHARE of the time since this interpreter started,
and writes one JSON line to standard error: the clock at the command's end
and the mean time of one kernel call. Nothing is imported before the command
that `-m` would not import.
"""
import runpy
import sys
import time

START = time.perf_counter()


def main() -> int:
    share = float(sys.argv[1])
    sys.argv = ["twistcong.cli", *sys.argv[2:]]
    try:
        runpy.run_module("twistcong.cli", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    sys.stdout.flush()
    end = time.perf_counter()

    import json
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from calib import Calibration
    calibration = Calibration()
    calibration.after(end - START, share)
    print(json.dumps({"end": end, "kernel_s": calibration.unit_s()}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
