"""Benchmark of `twistcong verify`: one command, three workloads.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --check --seed 1

Run from the root of a checkout; the package is imported from `src`. With
`--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics (setup_s, round_cal, cli_cal, peak_rss_mb); with
`--trace 1` it holds the per-module metrics of a separate traced run.
`--check` runs every input of every workload once, through the library and
through the command line, with all output checks, and times nothing.
See perfbench/README.md.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import gen  # noqa: E402
from calib import REFERENCE_KERNEL_S  # noqa: E402
from checks import check_report, expected_report  # noqa: E402

WORKLOADS = ("bundled", "towers-gz", "towers-auto")
SEGMENTS = 6
CLI_RUNS_PER_SEGMENT = 4
# a command or a set-up probe is one short sample, so its calibration runs
# longer than a round's
CALIBRATION_SHARE = 0.5
SETUP_PROBES_PER_SEGMENT = 2
IMPORT_RUNS = 5
TIMEOUT_S = 150


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(args: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter to completion; a timeout kills it."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_env(), timeout=TIMEOUT_S, cwd=ROOT)


def _worker(mode: str, manifest: Path, seconds: float) -> dict:
    proc = _python([str(HERE / "worker.py"), mode, str(manifest), str(seconds)])
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_inputs(workload: str, seed: int, run_dir: Path) -> tuple[Path, list[dict]]:
    """Generate the inputs, write each synthetic dataset to a file and the
    manifest the workers read. Returns the manifest path and the inputs."""
    inputs = gen.make_inputs(workload, seed, SRC)
    manifest = []
    for inp in inputs:
        if workload == "bundled":
            path = SRC / "twistcong" / "datasets" / f"{inp['name']}.json"
        else:
            path = run_dir / f"{inp['name']}.json"
            path.write_text(json.dumps(inp["doc"], indent=1) + "\n", encoding="utf-8")
        inp["path"] = str(path)
        manifest.append({"name": inp["name"], "path": str(path), "expect": inp["expect"],
                         "sha": workload == "bundled"})
    manifest_path = run_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return manifest_path, inputs


def cli_runs(workload: str, inputs: list[dict], runs: int) -> tuple[list[float], list[float], dict]:
    """Time of `twistcong verify --format structured` on the named input,
    from starting the process to the end of the command, each output
    checked; returns milliseconds, the mean time of one kernel call in
    milliseconds for each (the kernel runs in the command's own process
    after it, see cli_probe.py) and the tally."""
    name = gen.cli_input_name(workload)
    inp = next(i for i in inputs if i["name"] == name)
    exp = expected_report(inp)
    dataset = name if workload == "bundled" else inp["path"]
    want_code = 0 if exp["verdict"] == "PASS" else 1
    times, kernel_ms = [], []
    tally = {"attempted": 0, "failed": 0, "wrong": 0, "problems": []}
    for _ in range(runs):
        start = time.perf_counter()
        proc = _python([str(HERE / "cli_probe.py"), str(CALIBRATION_SHARE),
                        "verify", "--dataset", dataset, "--format", "structured"])
        tally["attempted"] += 1
        try:
            probe = json.loads(proc.stderr.strip().splitlines()[-1])
            bad = check_report(exp, json.loads(proc.stdout))
        except (IndexError, json.JSONDecodeError):
            tally["failed"] += 1
            tally["problems"].append(f"cli {name}: exit {proc.returncode}, no report: "
                                     f"{proc.stderr[-300:]}")
            continue
        seconds = probe["end"] - start
        times.append(seconds * 1e3)
        kernel_ms.append(probe["kernel_s"] * 1e3)
        if proc.returncode != want_code:
            bad.append(f"exit code {proc.returncode}")
        if bad:
            tally["failed"] += 1
            tally["wrong"] += 1
            tally["problems"].extend(f"cli {name}: {b}" for b in bad)
    return times, kernel_ms, tally


def setup_time(manifest: Path) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to the end of importing
    twistcong and loading every input once, and the mean kernel call made
    in that interpreter afterwards."""
    start = time.perf_counter()
    proc = _python([str(HERE / "worker.py"), "setup", str(manifest),
                    str(CALIBRATION_SHARE)])
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["end"] - start, probe["kernel_s"]


def end_to_end(workload: str, manifest: Path, inputs: list[dict], seconds: float) -> dict:
    """The rounds run in one worker, in SEGMENTS stretches; the set-up
    probes and command-line runs sit between them, so that every metric
    samples the whole run and not one end of it."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "serve", str(manifest)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=_env(), cwd=ROOT)
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        def reply() -> dict:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"worker exited {proc.wait()}")
            return json.loads(line)

        reply()                                  # warm-up round done
        rounds, setup, setup_ref, cli_ms, cli_kernel_ms = [], [], [], [], []
        kernel_s, kernel_calls = 0.0, 0
        cli = {"attempted": 0, "failed": 0, "wrong": 0, "problems": []}
        for _ in range(SEGMENTS):
            proc.stdin.write(f"rounds {seconds / SEGMENTS}\n")
            proc.stdin.flush()
            got = reply()
            rounds += got["round_s"]
            kernel_s += got["kernel_s"]
            kernel_calls += got["kernel_calls"]
            for _ in range(SETUP_PROBES_PER_SEGMENT):
                probe_s, probe_kernel_s = setup_time(manifest)
                setup.append(probe_s)
                setup_ref.append(probe_s / probe_kernel_s * REFERENCE_KERNEL_S)
            ms, kernel_ms, tally = cli_runs(workload, inputs, CLI_RUNS_PER_SEGMENT)
            cli_ms += ms
            cli_kernel_ms += kernel_ms
            for key in cli:
                cli[key] += tally[key]
        proc.stdin.close()
        res = reply()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    # means, not medians: the program runs slower against the kernel in some
    # minutes than in others, and a median of few samples jumps between them
    round_cal = statistics.fmean(rounds) / (kernel_s / kernel_calls)
    cli_cal = statistics.fmean(cli_ms) / statistics.fmean(cli_kernel_ms)
    rounds.sort()
    tail = ""
    if len(rounds) >= 100:   # a p90 with at least ten rounds beyond it
        tail = f", p90 {statistics.quantiles(rounds, n=10)[-1]:.4f} s"
    print(f"{workload}: {len(rounds)} rounds, median {statistics.median(rounds):.4f} s"
          f"{tail}, max {rounds[-1]:.4f} s, mean {round_cal:.1f} cal; "
          f"setup wall {['%.3f' % s for s in setup]}, median "
          f"{statistics.median(setup_ref):.3f} reference s; cli ms {['%.0f' % c for c in cli_ms]}, "
          f"mean {cli_cal:.1f} cal")
    metrics = {
        "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
        "round_cal": {"value": round_cal, "unit": "cal"},
        "cli_cal": {"value": cli_cal, "unit": "cal"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    return {key: res[key] + cli[key] for key in cli} | {"metrics": metrics}


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    manifest, inputs = write_inputs(workload, seed, run_dir)
    if not trace:
        return end_to_end(workload, manifest, inputs, seconds)
    imports = [_worker("import", manifest, 0)["import_s"] for _ in range(IMPORT_RUNS)]
    res = _worker("trace", manifest, seconds)
    metrics = res["metrics"]
    metrics["cli.import_ms"] = {"value": statistics.median(imports) * 1e3, "unit": "ms"}
    for name in res["absent"]:
        print(f"trace: wrapped name absent: {name}")
    print(f"trace: {res['rounds']} traced rounds")
    return {"attempted": res["attempted"], "failed": res["failed"],
            "wrong": res["wrong"], "problems": res["problems"], "metrics": metrics}


def check_all(seed: int, run_dir: Path) -> int:
    bad = 0
    for workload in WORKLOADS:
        wdir = run_dir / workload
        wdir.mkdir()
        manifest, inputs = write_inputs(workload, seed, wdir)
        res = _worker("check", manifest, 0)
        _, _, cli = cli_runs(workload, inputs, 1)
        print(f"{workload}: {res['attempted']} inputs and 1 command-line run checked, "
              f"{res['failed'] + cli['failed']} failed")
        for p in res["problems"] + cli["problems"]:
            print(f"  {p}")
        bad += res["failed"] + cli["failed"]
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of twistcong verify.")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="run every input once with its output checks")
    args = ap.parse_args()
    if not (SRC / "twistcong" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'twistcong'}; run from a checkout",
              file=sys.stderr)
        return 2
    if not args.check and args.workload is None:
        ap.error("--workload is required unless --check is given")

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{args.workload or 'check'}-{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    try:
        if args.check:
            return check_all(args.seed, run_dir)
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for p in out["problems"]:
        print(f"problem: {p}")
    # a wrong output fails its operation; correct speaks of the rest
    print(json.dumps({"correct": out["wrong"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
