"""One benchmark process: a fresh interpreter that imports twistcong from the
checkout's `src` and does one of

    setup   import the package and load every input once, then run the
            calibration kernel and print the clock at the end of the
            set-up and the mean kernel call
    import  print the seconds `import twistcong.cli` takes
    serve   run whole rounds for as long as told, checking every output
    trace   alternate untraced and traced rounds, report per-module figures
    check   one round with its output checks, nothing timed

Usage: python3 perfbench/worker.py MODE MANIFEST [SECONDS], where SECONDS is
the kernel's share of the set-up time in `setup` mode. The manifest lists
each input's dataset file, its expected-value constants and whether the
round also runs the Sha predictions. The last line of standard output is a
JSON object.
"""
from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def _setup(manifest: list[dict]) -> None:
    import twistcong.dataset
    for item in manifest:
        twistcong.dataset.load_dataset(item["path"])


def _import_seconds() -> float:
    start = time.perf_counter()
    import twistcong.cli  # noqa: F401
    return time.perf_counter() - start


class Rounds:
    """The workload's inputs, run round after round with output checks."""

    def __init__(self, manifest: list[dict]):
        import twistcong.bsdsquares
        import twistcong.dataset
        import twistcong.engine
        import twistcong.report
        from checks import expected_report
        self.dataset, self.engine = twistcong.dataset, twistcong.engine
        self.report, self.bsd = twistcong.report, twistcong.bsdsquares
        self.items = []
        for item in manifest:
            text = Path(item["path"]).read_text(encoding="utf-8")
            exp = expected_report({"doc": json.loads(text), "expect": item["expect"]})
            self.items.append((item["name"], text, item["sha"], exp))
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.report_bytes = 0

    def one(self, calibration=None) -> float:
        """One round; returns the seconds spent in the program. With a
        calibration, the kernel runs right after each operation."""
        from checks import check_report, check_sha
        spent = 0.0
        for name, text, with_sha, exp in self.items:
            self.attempted += 1
            try:
                start = time.perf_counter()
                # looked up at call time, so the tracer's wrappers apply
                ds = self.dataset.parse_dataset(json.loads(text))
                result = self.engine.verify(ds)
                rendered = self.report.render(result, "structured")
                sha = self.bsd.sha_predictions(ds) if with_sha else None
                op_s = time.perf_counter() - start
                spent += op_s
            except Exception as e:  # an operation that raises has failed
                self.failed += 1
                self.problems.append(f"{name}: {type(e).__name__}: {e}")
                continue
            if calibration is not None:
                calibration.after(op_s)
            self.report_bytes += len(rendered.encode())
            bad = check_report(exp, json.loads(rendered)) + check_sha(exp, sha)
            if bad:
                self.failed += 1
                self.wrong += 1
                self.problems.extend(f"{name}: {b}" for b in bad[:3])
        return spent


def _serve(manifest: list[dict]) -> dict:
    """Rounds on command: each line `rounds SECONDS` on standard input runs
    whole rounds until the time is up and answers with their wall times and
    the seconds and calls of the kernel run after their operations; at the
    end of input the tally and the peak resident memory follow."""
    from calib import Calibration
    work = Rounds(manifest)
    work.one(Calibration())             # warm-up: lazy imports, caches
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        deadline = time.perf_counter() + float(line.split()[1])
        calibration = Calibration()
        times = []
        while not times or time.perf_counter() < deadline:
            times.append(work.one(calibration))
        print(json.dumps({"round_s": times, "kernel_s": calibration.seconds,
                          "kernel_calls": calibration.calls}), flush=True)
    import resource
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"attempted": work.attempted, "failed": work.failed, "wrong": work.wrong,
            "problems": work.problems[:20], "peak_rss_mb": peak_kb / 1024}


def _trace(manifest: list[dict], seconds: float) -> dict:
    from spans import Tracer
    work = Rounds(manifest)
    work.one()
    tracer = Tracer()
    plain, traced = [], []
    bytes_before = work.report_bytes
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(work.one())
        tracer.install()
        try:
            traced.append(work.one())
        finally:
            tracer.remove()
    rounds = len(traced)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics(rounds).items()}
    traced_ms = sum(traced) / rounds * 1e3
    plain_ms = sum(plain) / len(plain) * 1e3
    metrics.update({
        "report.bytes": {"value": (work.report_bytes - bytes_before) / (2 * rounds),
                         "unit": "bytes"},
        "trace.round_ms": {"value": traced_ms, "unit": "ms"},
        "trace.untraced_round_ms": {"value": plain_ms, "unit": "ms"},
        "trace.overhead_pct": {"value": (traced_ms / plain_ms - 1) * 100, "unit": "%"},
        "trace.remainder_ms": {"value": traced_ms - tracer.span_ns() / rounds / 1e6,
                               "unit": "ms"},
        "trace.absent_wraps": {"value": len(tracer.absent), "unit": "count"},
    })
    return {"attempted": work.attempted, "failed": work.failed, "wrong": work.wrong,
            "problems": work.problems[:20], "metrics": metrics,
            "absent": tracer.absent, "rounds": rounds}


def _check(manifest: list[dict]) -> dict:
    work = Rounds(manifest)
    work.one()
    return {"attempted": work.attempted, "failed": work.failed, "wrong": work.wrong,
            "problems": work.problems[:20]}


def main() -> None:
    mode, manifest_path = sys.argv[1], sys.argv[2]
    seconds = float(sys.argv[3]) if len(sys.argv) > 3 else 0.0
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    if mode == "setup":
        _setup(manifest)
        end = time.perf_counter()
        from calib import Calibration
        calibration = Calibration()
        calibration.after(end - START, float(sys.argv[3]))
        out = {"end": end, "kernel_s": calibration.unit_s()}
    elif mode == "import":
        out = {"import_s": _import_seconds()}
    elif mode == "serve":
        out = _serve(manifest)
    elif mode == "trace":
        out = _trace(manifest, seconds)
    elif mode == "check":
        out = _check(manifest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
