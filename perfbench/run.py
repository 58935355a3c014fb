"""twseg benchmark: one workload per run, end-to-end or traced per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload long-d64 --seed 1 --seconds 10 --trace 0

The package is imported from ``src/``; a run makes its inputs from the seed
under ``.perfbench/`` and removes them at the end. Set-up (imports, then
three rounds of input generation, file writing and a warm-up pass) is timed
as ``setup_s``. Passes then repeat for ``--seconds`` seconds and every one is
checked against the warm-up pass's outputs.

``--trace 0`` prints the end-to-end metrics: median frames per second over
the passes, the aggregate MoF and IoU, and the peak resident memory.
``--trace 1`` alternates untraced passes with passes that have every public
function of the io, graph, hierarchy, refine, evaluate and cli modules
wrapped in spans, for twice ``--seconds``, and prints the per-layer metrics
(medians over the traced passes) plus the tracing overhead. A layer a workload never calls
reads 0 (the ``cli.*`` metrics on the library workloads). Spans and the
environment are written to ``.perfbench/results/``.

``wide-d2048`` runs but is left out of BENCHMARK.json: each pass's work
follows the seed's merge count (refinement re-summarizes 2048 columns per
merge), so its frames per second spread by 15-19% across seeds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when any output check fails, 2 when the source tree is missing.
"""

from __future__ import annotations

import os

# One BLAS thread per process, fixed before numpy can be imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_ROUNDS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("long-d64", "manifest-short", "wide-d2048"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS library reports, by file name."""
    import ctypes

    found = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return found
    libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment(args, load_at_start, workers) -> dict:
    import numpy as np
    import scipy

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "blas_threads": blas_threads(),
        "workers": workers,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    if not (ROOT / "src" / "twseg" / "__init__.py").is_file():
        print(f"error: no twseg source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import twseg.cli  # noqa: F401  (numpy and scipy come with it)
    import_s = time.perf_counter() - start

    from layers import COUNTS, PER_LAYER, per_layer
    from tracing import Tracer, to_records
    from workloads import CLI_WORKERS, END_TO_END, CliWorkload, Runner, build

    workdir = OUT / f"work-{os.getpid()}"
    try:
        w = build(args.workload, args.seed, workdir)
        workers = CLI_WORKERS if isinstance(w, CliWorkload) else 1
        runner = Runner(w)
        rounds = [runner.setup_round() for _ in range(SETUP_ROUNDS)]
        setup_s = import_s + statistics.median(rounds)

        if args.trace:
            tracer = Tracer()
            rates, traced = runner.traced_passes(2 * args.seconds, tracer)
        else:
            rates = runner.timed_passes(args.seconds)
        fps = statistics.median(rates)
        record = {"env": environment(args, load_at_start, workers),
                  "passes_fps": rates, "setup_rounds_s": rounds, "import_s": import_s}
        if args.trace:
            overhead = 1.0 - statistics.median(traced) / fps
            metrics, per_pass, covers = per_layer(tracer.spans, workers, overhead)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            record.update(traced_fps=traced, per_pass=per_pass,
                          segment_self_cover=covers, spans=to_records(tracer.spans))
            for name, value in metrics.items():
                tag = " (computed)" if PER_LAYER[name][1] else ""
                print(f"{name:34s} {value:14.4f} {units[name]}{tag}")
            print(f"{'segment self-time cover':34s} "
                  f"{min(covers):.4f}..{max(covers):.4f} of the segment wall time")
            if any(len({m[c] for m in per_pass}) != 1 for c in COUNTS):
                runner.problems.append("counts differ between traced passes")
            if not all(0.95 <= c <= 1.05 for c in covers):
                runner.problems.append("graph, hierarchy and refine self times miss "
                                       "the segment wall time by more than 5%")
        else:
            metrics = {
                "frames_per_s": fps,
                "mof": runner.reference.mof,
                "iou": runner.reference.iou,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": setup_s,
            }
            units = END_TO_END
            for name, value in metrics.items():
                print(f"{name:34s} {value:14.4f} {units[name]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{'failed_frac':34s} {runner.failed / runner.attempted:14.4f} ratio")
    correct = runner.failed == 0 and not runner.problems
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record.update(metrics=metrics, correct=correct, problems=runner.problems)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
