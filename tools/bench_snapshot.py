"""Write BENCH_<n>.json files: the benchmark, a |P| sweep and the suite time
of one checkout, or of two checkouts measured side by side, on this host.

    python3 tools/bench_snapshot.py --root . --out BENCH_26.json
    python3 tools/bench_snapshot.py --root <checkout of the parent> --out BENCH_36_parent.json \
        --root . --out BENCH_36.json

Everything runs in fresh interpreters from a checkout, importing its `src`,
so one command measures any checkout, this one or an older one. With two
`--root`/`--out` pairs, every phase below alternates the two checkouts
within each of its rounds, so a slow spell of the host reaches both sides
alike, and each file records, per sweep and CLI cell, the differences
"this side minus the other" taken within a round (`*_paired_diff_s`, the
median and the quartiles):

- `perfbench/run.py`, unchanged and at its defaults, on each workload with
  `--trace 0` (the end-to-end metrics) and `--trace 1` (the per-module ones);
- parse, `verify` and the structured `report.render` of the gz tower
  `perfbench/gen.py` builds at |P| = 343, 729 and 997 (seed 1), each in its
  own interpreter so that no cache is warm, SWEEP_RUNS times per shape,
  taken round-robin over the shapes: the medians and the quartiles are kept;
- `python -m twistcong.cli verify --dataset ... --format structured` on each
  workload's CLI input (the one `gen.cli_input_name` names, at seed 1, the
  default of `perfbench/run.py`), CLI_RUNS fresh processes under
  `-X importtime` in each bytecode state of CLI_STATES, taken round-robin
  over the workloads and states: the quartiles of the wall time (the median
  also alone), each exit code, whether each run imported mpmath, and from
  the import log the median self time in microseconds of every `twistcong`
  module and of the IMPORT_OTHERS slowest other modules (`twistcong.cli`
  runs as `__main__`, which the log does not list). Each state runs under
  its own fresh `PYTHONPYCACHEPREFIX` directory, where the interpreter reads
  and writes bytecode in place of every `__pycache__`, so a cache in the
  checkout decides nothing;
- the bytecode state the other processes saw: `PYTHONDONTWRITEBYTECODE`,
  and whether `src/twistcong/__pycache__` existed when the snapshot
  started. A clean checkout compiles `src/` in every process unless the
  cache exists, so two snapshots compare only in the same state;
- the tier-1 suite with its wall time, its counts and its five slowest tests.

Compare two files only when both were written on the same host.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from math import prod
from pathlib import Path

WORKLOADS = ("bundled", "towers-gz", "towers-auto")
SWEEP_SHAPES = ((7, [343]), (3, [729]), (997, [997]))
SWEEP_RUNS = 9
# one sweep point: gen.py loaded by path, as tools/report_digest.py reads it
SWEEP_SCRIPT = """
import importlib.util, json, random, sys, time
spec = importlib.util.spec_from_file_location("gen", "perfbench/gen.py")
gen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gen)
from twistcong.dataset import parse_dataset
from twistcong.engine import verify
from twistcong.report import render
doc = gen.gz_input(json.loads(sys.argv[1]), random.Random(1))["doc"]
start = time.perf_counter()
ds = parse_dataset(doc)
parsed = time.perf_counter()
result = verify(ds)
done = time.perf_counter()
render(result, "structured")
rendered = time.perf_counter()
print(json.dumps({"parse_s": parsed - start, "verify_s": done - parsed,
                  "render_s": rendered - done, "verdict": result.verdict}))
"""
SWEEP_KEYS = ("parse_s", "verify_s", "render_s")

CLI_RUNS = 21
# the bytecode states of the CLI runs, by the PYTHONDONTWRITEBYTECODE each
# runs with. "cold": the prefix directory stays empty, so every module not
# frozen into the interpreter, the standard library's included, is compiled
# in every run. "warm": one unmeasured run fills the directory first.
CLI_STATES = {"cold": "1", "warm": None}
# the dataset argument of a workload's CLI run: a bundled name, or the seed-1
# tower written to <name>.json in the directory sys.argv[2]
CLI_INPUT_SCRIPT = """
import importlib.util, json, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("gen", "perfbench/gen.py")
gen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gen)
workload = sys.argv[1]
name = gen.cli_input_name(workload)
if workload == "bundled":
    print(name)
else:
    doc = next(i for i in gen.make_inputs(workload, 1, Path("src")) if i["name"] == name)["doc"]
    path = Path(sys.argv[2]) / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1) + "\\n", encoding="utf-8")
    print(path)
"""
# a line of -X importtime's log, "import time: self | cumulative | name", the
# name indented by its nesting
IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)$", re.M)
IMPORT_OTHERS = 10


def _run(root: Path, args: list[str], **env_changes: str | None
         ) -> subprocess.CompletedProcess:
    """args in a fresh interpreter importing root's src; an environment
    variable given as None is unset."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for key, value in env_changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True,
                          text=True)


def _last_json(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"{what} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4)


def _paired(runs: list[list[float]]) -> list[dict] | list[None]:
    """Per side, the median and quartiles of its value minus the other
    side's, paired by round; None for a single side."""
    if len(runs) == 1:
        return [None]
    out = []
    for this, other in (runs, runs[::-1]):
        quartiles = _quartiles([a - b for a, b in zip(this, other)])
        out.append({"median": quartiles[1], "quartiles": quartiles})
    return out


def benchmark(roots: list[Path]) -> list[dict]:
    out: list[dict] = [{} for _ in roots]
    for workload in WORKLOADS:
        for trace in (0, 1):
            for root, done in zip(roots, out):
                done.setdefault(workload, {})[f"trace_{trace}"] = _last_json(
                    _run(root, ["perfbench/run.py", "--workload", workload,
                                "--trace", str(trace)]),
                    f"run.py --workload {workload} --trace {trace} in {root}")
    return out


def sweep(roots: list[Path]) -> list[list[dict]]:
    """The sweep runs, taken round-robin over the shapes and the roots, so
    that a slow spell of the host reaches every shape and side alike."""
    runs = [[[] for _ in SWEEP_SHAPES] for _ in roots]
    for _ in range(SWEEP_RUNS):
        for i, shape in enumerate(SWEEP_SHAPES):
            for root, side in zip(roots, runs):
                side[i].append(_last_json(_run(root, ["-c", SWEEP_SCRIPT, json.dumps(shape)]),
                                          f"sweep at {shape} in {root}"))
    out = []
    for side in runs:
        points = []
        for shape, done in zip(SWEEP_SHAPES, side):
            point = {"p": shape[0], "factors": shape[1], "p_order": prod(shape[1]),
                     "verdict": done[0]["verdict"]}
            for key in SWEEP_KEYS:
                quartiles = _quartiles([r[key] for r in done])
                point[key], point[key[:-2] + "_quartiles_s"] = quartiles[1], quartiles
            points.append(point)
        out.append(points)
    for i in range(len(SWEEP_SHAPES)):
        for key in SWEEP_KEYS:
            diffs = _paired([[r[key] for r in side[i]] for side in runs])
            for points, diff in zip(out, diffs):
                if diff is not None:
                    points[i][key[:-2] + "_paired_diff_s"] = diff
    return out


def _pycache(root: Path) -> bool:
    return (root / "src" / "twistcong" / "__pycache__").is_dir()


def _summary(dataset: str, runs: list[dict], self_us: dict[str, list[int]]) -> dict:
    quartiles = statistics.quantiles([r["wall_s"] for r in runs], n=4)
    medians = {name: statistics.median(us) for name, us in self_us.items()}
    others = sorted((name for name in medians if not name.startswith("twistcong")),
                    key=medians.get, reverse=True)[:IMPORT_OTHERS]
    kept = sorted(name for name in medians if name.startswith("twistcong"))
    return {"input": Path(dataset).stem, "runs": runs,
            "wall_s": quartiles[1], "wall_quartiles_s": quartiles,
            "import_self_us": {name: medians[name] for name in kept + others}}


def cli(roots: list[Path]) -> list[dict]:
    """The CLI runs of every workload, state and root, taken round-robin, so
    that each set of runs samples the host over the whole phase; each cell
    has a fresh prefix directory, and a warm one is filled by one unmeasured
    run first."""
    cells = {}
    with tempfile.TemporaryDirectory() as scratch:
        datasets = {}
        for side, root in enumerate(roots):
            inputs = Path(scratch) / f"inputs-{side}"
            inputs.mkdir()
            for workload in WORKLOADS:
                made = _run(root, ["-c", CLI_INPUT_SCRIPT, workload, str(inputs)])
                if made.returncode != 0:
                    raise RuntimeError(f"CLI input of {workload} in {root} exited "
                                       f"{made.returncode}: {made.stderr[-2000:]}")
                datasets[side, workload] = made.stdout.strip()
        # the two sides of a cell are adjacent in each round
        for workload in WORKLOADS:
            for state, dont_write in CLI_STATES.items():
                for side, root in enumerate(roots):
                    dataset = datasets[side, workload]
                    argv = ["-X", "importtime", "-m", "twistcong.cli", "verify", "--dataset",
                            dataset, "--format", "structured"]
                    prefix = Path(scratch) / f"pycache-{side}-{state}-{workload}"
                    prefix.mkdir()
                    env = {"PYTHONPYCACHEPREFIX": str(prefix),
                           "PYTHONDONTWRITEBYTECODE": dont_write}
                    if dont_write is None:
                        _run(root, argv, **env)
                    cells[side, state, workload] = (root, dataset, argv, env, [], {})
        for _ in range(CLI_RUNS):
            for root, dataset, argv, env, runs, self_us in cells.values():
                start = time.perf_counter()
                proc = _run(root, argv, **env)
                wall = time.perf_counter() - start
                imported = {name: int(us) for us, name in IMPORT_LINE.findall(proc.stderr)}
                for name, us in imported.items():
                    self_us.setdefault(name, []).append(us)
                runs.append({"wall_s": wall, "exit_code": proc.returncode,
                             "mpmath": "mpmath" in imported})
    out = [{state: {} for state in CLI_STATES} for _ in roots]
    for (side, state, workload), (_, dataset, _, _, runs, self_us) in cells.items():
        out[side][state][workload] = _summary(dataset, runs, self_us)
    for state in CLI_STATES:
        for workload in WORKLOADS:
            walls = [[r["wall_s"] for r in cells[side, state, workload][4]]
                     for side in range(len(roots))]
            for done, diff in zip(out, _paired(walls)):
                if diff is not None:
                    done[state][workload]["wall_paired_diff_s"] = diff
    return out


def suite(root: Path) -> dict:
    start = time.perf_counter()
    proc = _run(root, ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=5",
                       "--continue-on-collection-errors"])
    wall = time.perf_counter() - start
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|errors?|skipped)", proc.stdout.splitlines()[-1])}
    slowest = [{"seconds": float(s), "phase": phase, "test": test} for s, phase, test in
               re.findall(r"^(\d+\.\d+)s (call|setup|teardown)\s+(\S+)$", proc.stdout, re.M)]
    return {"wall_s": wall, "exit_code": proc.returncode, "counts": counts,
            "slowest": slowest}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=Path, action="append",
                    help="a checkout to measure; give two to measure them side by side")
    ap.add_argument("--out", required=True, type=Path, action="append",
                    help="the JSON file to write, one per --root, in the same order")
    args = ap.parse_args()
    if len(args.root) != len(args.out) or len(args.root) > 2:
        ap.error("give one or two --root, each with its --out")
    roots = [root.resolve() for root in args.root]
    # "-dirty" marks a working tree measured with changes not yet committed
    commits = [subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                              capture_output=True, text=True).stdout.strip() or None
               for root in roots]
    dont_write = os.environ.get("PYTHONDONTWRITEBYTECODE")
    snapshots = [{"commit": commit,
                  "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                           "python": platform.python_version()},
                  "bytecode": {"PYTHONDONTWRITEBYTECODE": dont_write,
                               "pycache_at_start": _pycache(root)}}
                 for root, commit in zip(roots, commits)]
    if len(roots) == 2:
        snapshots[0]["paired_with"], snapshots[1]["paired_with"] = commits[1], commits[0]
    for snapshot, bench in zip(snapshots, benchmark(roots)):
        snapshot["benchmark"] = bench
    for snapshot, points in zip(snapshots, sweep(roots)):
        snapshot["gz_sweep"] = points
    for snapshot, cells in zip(snapshots, cli(roots)):
        snapshot["cli"] = cells
    for snapshot, root in zip(snapshots, roots):
        snapshot["suite"] = suite(root)
    for snapshot, out in zip(snapshots, args.out):
        out.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
