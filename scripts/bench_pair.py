#!/usr/bin/env python3
"""Benchmark the working tree against a parent commit in alternating pairs,
and write the record as a ``BENCH_<n>.json`` file.

    python3 scripts/bench_pair.py --parent HEAD --out BENCH_29.json

The parent's committed files (``git archive REV``) and the working tree's
files (tracked and untracked, ignored ones left out) are copied into one
temporary directory, which is removed at the end. Every run starts a fresh
process from one copy, and runs go one at a time:

- for each workload that ``BENCHMARK.json`` declares, ``--pairs`` pairs of
  ``perfbench/run.py --seed p --seconds S --trace 0``, pair p on seed p,
  the parent first in odd pairs and the change first in even ones;
- for each workload, ``TRACE_PAIRS`` (3) alternating pairs of traced runs
  (``--trace 1``, also for ``--seconds``) on seeds 1 to 3, for the
  per-layer split;
- ``--pairs`` alternating pairs of a fresh interpreter that imports
  ``twseg.cli`` under one BLAS thread, recording its peak resident memory
  (interpreter included) and the import's wall time;
- five alternating pairs of ``twseg bench --repeats 2 --seed 707``
  (acceptance criterion 7's scaling benchmark) at the default BLAS thread
  count, recording every fitted slope.

The record has the keys ``what``, ``command``, ``trace_command``,
``protocol``, ``machine``, ``workloads``, ``per_layer_trace``,
``import_twseg_cli`` and ``criterion_7_slopes``. ``workloads`` holds the
end-to-end metrics and ``per_layer_trace`` the per-layer ones, each in the
same form: per side each metric's runs with their median and inclusive
quartiles; per metric the pairs the change wins under the metric's
direction in ``BENCHMARK.json``, the ties, each pair's relative change, the
relative change and the gap of the medians, and the parent's interquartile
range. Nothing is written outside the output file and the temporary
directory.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SLOPE_PAIRS = 5  # criterion 7's slope is flaky: its spread matters, not one value
TRACE_PAIRS = 3  # a per-layer reading rests on a spread too, not on one traced run

IMPORT_PROBE = """
import json, resource, time
start = time.perf_counter()
import twseg.cli
wall_s = time.perf_counter() - start
print(json.dumps({"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "wall_s": wall_s}))
"""


def git(*argv: str) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True).stdout


def copy_parent(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def copy_working_tree(dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def alternating(pairs: int) -> list[tuple[int, tuple[str, str]]]:
    """Pair p (from 1) with its run order: the parent first in odd pairs."""
    return [(p, SIDES if p % 2 else SIDES[::-1]) for p in range(1, pairs + 1)]


def run_json(argv: list[str], cwd: Path, env: dict) -> tuple[dict, list[str]]:
    """Run one command; its last stdout line as JSON, and every stdout line."""
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1]), lines
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"error: {' '.join(argv)} in {cwd} exited {proc.returncode} "
                         f"without a JSON line: {proc.stderr.strip()[-500:]}") from None


def perfbench(copy: Path, workload: str, seed: int, seconds: float, trace: int,
              env: dict, machine: dict) -> dict:
    """One ``perfbench/run.py`` run's result; its environment goes to ``machine``."""
    result, lines = run_json([sys.executable, "perfbench/run.py", "--workload", workload,
                              "--seed", str(seed), "--seconds", str(seconds),
                              "--trace", str(trace)], copy, env)
    machine.update(json.loads(next(line[4:] for line in lines if line.startswith("env "))))
    return result


def spread(runs: list[float]) -> dict:
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    gaps = [sign * (c - p) for p, c in zip(parent, change)]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_spread = spread(parent)
    return {
        "change_wins": sum(g > 0 for g in gaps),
        "ties": sum(g == 0 for g in gaps),
        "pairs": len(gaps),
        "pair_change_rel": [c / p - 1.0 if p else None for p, c in zip(parent, change)],
        "median_change_rel": c_med / p_med - 1.0 if p_med else None,
        "median_gap": c_med - p_med,
        "parent_iqr": p_spread["q3"] - p_spread["q1"],
    }


def bench_workload(copies, workload, metrics, pairs, trace, seconds, env, machine,
                   log) -> dict:
    """``pairs`` alternating pairs of ``perfbench/run.py --trace trace`` runs
    on ``workload``: each of ``metrics`` (name -> better) per side, and the
    pairwise comparison."""
    runs = {side: {name: [] for name in metrics} for side in SIDES}
    totals = {side: {"failed": 0, "attempted": 0, "all_correct": True} for side in SIDES}
    order = alternating(pairs)
    for seed, sides in order:
        for side in sides:
            result = perfbench(copies[side], workload, seed, seconds, trace, env, machine)
            for name in metrics:
                runs[side][name].append(result["metrics"][name]["value"])
            totals[side]["failed"] += result["failed"]
            totals[side]["attempted"] += result["attempted"]
            totals[side]["all_correct"] &= result["correct"]
            values = " ".join(f"{name} {runs[side][name][-1]:.4g}" for name in metrics)
            log(f"{workload} seed {seed} {side}: " + ("traced" if trace else values))
    record = {"seeds": [seed for seed, _ in order],
              "first_in_pair": {str(seed): sides[0] for seed, sides in order}}
    for side in SIDES:
        record[side] = {name: spread(values) for name, values in runs[side].items()}
        record[side].update(totals[side])
    record["comparison"] = {name: compare(runs["parent"][name], runs["change"][name], better)
                            for name, better in metrics.items()}
    return record


def import_cost(copies, pairs, log) -> dict:
    record = {side: {"rss_mb": [], "wall_s": []} for side in SIDES}
    for p, sides in alternating(pairs):
        for side in sides:
            env = {**os.environ, **{var: "1" for var in BLAS_ENV},
                   "PYTHONPATH": str(copies[side] / "src")}
            result, _ = run_json([sys.executable, "-c", IMPORT_PROBE], copies[side], env)
            for key in record[side]:
                record[side][key].append(result[key])
            log(f"import twseg.cli {p} {side}: {result['rss_mb']:.1f} MB {result['wall_s']:.3f} s")
    return {side: {key: spread(values) for key, values in record[side].items()}
            for side in SIDES}


def slopes(copies, pairs, sizes, work: Path, log) -> dict:
    record = {side: [] for side in SIDES}
    out = work / "bench.json"
    for p, sides in alternating(pairs):
        for side in sides:
            env = {**os.environ, "PYTHONPATH": str(copies[side] / "src")}
            argv = ["bench", "--repeats", "2", "--seed", "707", "--json", str(out)]
            if sizes:
                argv += ["--sizes", sizes]
            proc = subprocess.run([sys.executable, "-m", "twseg", *argv],
                                  cwd=copies[side], env=env, capture_output=True, text=True)
            if proc.returncode:
                raise SystemExit(f"error: twseg bench in {copies[side]}: {proc.stderr.strip()}")
            record[side].append(round(json.loads(out.read_text())["slope"], 4))
            log(f"criterion 7 slope {p} {side}: {record[side][-1]}")
    return record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="where to write the JSON record")
    parser.add_argument("--what", default="", help="one sentence on the change measured")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="perfbench/run.py --seconds for every run")
    parser.add_argument("--slope-sizes", help="twseg bench --sizes; default: bench's own")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    layer_metrics = {m["name"]: m["better"] for m in declared["per_layer"]}
    workloads = [w["name"] for w in declared["workloads"]]
    out = Path(args.out).resolve()

    def log(line: str) -> None:
        print(line, flush=True)

    # The runs fix their own BLAS threads; the copies import their own src/.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        work = Path(tmp)
        copies = {side: work / side for side in SIDES}
        copy_parent(args.parent, copies["parent"])
        copy_working_tree(copies["change"])
        parent_rev = git("rev-parse", args.parent).decode().strip()

        machine: dict = {}
        records = {w: bench_workload(copies, w, metrics, args.pairs, 0, args.seconds, env,
                                     machine, log)
                   for w in workloads}
        traces = {w: bench_workload(copies, w, layer_metrics, TRACE_PAIRS, 1, args.seconds,
                                    env, machine, log)
                  for w in workloads}
        imports = import_cost(copies, args.pairs, log)
        slope_runs = slopes(copies, SLOPE_PAIRS, args.slope_sizes, work, log)

    doc = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "trace_command": f"python3 perfbench/run.py --workload W --seed S --seconds "
                         f"{args.seconds:g} --trace 1",
        "protocol": (
            f"scripts/bench_pair.py --parent {args.parent} (parent {parent_rev}, change: the "
            f"working tree). {args.pairs} pairs per workload, and {TRACE_PAIRS} traced pairs "
            "for the per-layer metrics, pair p on seed p, the parent first in odd pairs and "
            "the change first in even pairs, one run at a time, each side from a copy of its "
            "files. Metric values are each run's own medians; "
            "median/q1/q3 are over the runs (inclusive quartiles). A pair is won by the "
            "side better in BENCHMARK.json's direction for the metric."),
        "machine": {key: machine[key] for key in (
            "nproc", "affinity_cpus", "python", "numpy", "scipy", "openblas", "blas_threads",
            "blas_env")},
        "workloads": records,
        "per_layer_trace": traces,
        "import_twseg_cli": {
            "command": "python -c 'import twseg.cli' in a fresh interpreter under one BLAS "
                       "thread: peak RSS of the process and the import's wall time",
            "pairs": args.pairs, **imports},
        "criterion_7_slopes": {
            "command": "python -m twseg bench --repeats 2 --seed 707"
                       + (f" --sizes {args.slope_sizes}" if args.slope_sizes else "")
                       + ", default BLAS threads, alternating pairs, gate [1.7, 2.3]",
            **slope_runs},
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
