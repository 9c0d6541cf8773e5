"""Reference figures for perfbench/README.md; not part of the gated runs.

    python3 perfbench/reference.py shapes [--slow]   verify time per tower shape
    python3 perfbench/reference.py drift [WINDOWS]   quintic verify and kernel
                                                     medians over 2-second windows

`shapes` times parse + verify of one tower of every shape on both routes,
the median of three warm calls (`--slow` adds one call each at |P| = 121
and 125 on the gz route, about 15 s each).
`drift` shows how far the machine alone moves a median: the same verify,
its median taken over consecutive 2-second windows, next to the median of
the calibration kernel run after each verify, and their ratio.
"""
from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
from calib import kernel  # noqa: E402
from twistcong.dataset import load_bundled_dataset, parse_dataset  # noqa: E402
from twistcong.engine import verify  # noqa: E402


def _time_verify(doc: dict, repeat: int) -> tuple[float, str]:
    """Median seconds of parse + verify over `repeat` calls after one
    warm-up call (none when repeat is 1)."""
    text = json.dumps(doc)
    times = []
    for _ in range(repeat + (repeat > 1)):
        start = time.perf_counter()
        result = verify(parse_dataset(json.loads(text)))
        times.append(time.perf_counter() - start)
    return statistics.median(times[-repeat:]), result.verdict


def shapes(slow: bool) -> None:
    rows = [("gz", shape, 3) for shape in gen.GZ_SHAPES]
    rows += [("auto", shape, 3) for shape in gen.AUTO_SHAPES]
    if slow:
        rows += [("gz", shape, 1) for shape in gen.SLOW_SHAPES]
    for route, shape, repeat in rows:
        rng = random.Random(f"reference:{route}:{shape}")
        inp = gen.gz_input(shape, rng) if route == "gz" else gen.auto_input(shape, rng)
        seconds, verdict = _time_verify(inp["doc"], repeat)
        size = "x".join(map(str, shape[1]))
        print(f"{route:4s} |P| = {size:6s} {seconds * 1e3:9.1f} ms  {verdict}", flush=True)


def drift(windows: int) -> None:
    medians, kernels, ratios = [], [], []
    for _ in range(windows):
        samples, unit = [], []
        end = time.perf_counter() + 2.0
        while time.perf_counter() < end:
            ds = load_bundled_dataset("21a1-quintic-19")
            start = time.perf_counter()
            verify(ds)
            middle = time.perf_counter()
            kernel()
            samples.append(middle - start)
            unit.append(time.perf_counter() - middle)
        medians.append(statistics.median(samples) * 1e3)
        kernels.append(statistics.median(unit) * 1e3)
        ratios.append(medians[-1] / kernels[-1])
    for label, values, fmt in (("verify (ms)", medians, "%.1f"),
                               ("kernel (ms)", kernels, "%.3f"),
                               ("ratio (cal)", ratios, "%.2f")):
        print(f"2-second window medians, {label}:", " ".join(fmt % v for v in values))
        print(f"  min {fmt % min(values)}, max {fmt % max(values)}")


def main() -> None:
    if len(sys.argv) < 2 or sys.argv[1] not in ("shapes", "drift"):
        raise SystemExit(__doc__)
    if sys.argv[1] == "shapes":
        shapes("--slow" in sys.argv[2:])
    else:
        drift(int(sys.argv[2]) if len(sys.argv) > 2 else 15)


if __name__ == "__main__":
    main()
