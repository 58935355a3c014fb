"""Smoke tests for the experiment scripts in ``scripts/``, run with tiny
arguments."""

import importlib.util
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from twseg import refine
from twseg.cli import main
from twseg.synth import generate

from tests_support import suite_spec

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name, *argv):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, argv)],
                          capture_output=True, text=True)


def test_synthetic_suite_table():
    proc = run_script("run_synthetic_suite.py", "--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    rows = re.findall(r"^  (equalsplit|kmeans|finch|twfinch) +\d\.\d{4} +\d\.\d{4}$",
                      proc.stdout, re.MULTILINE)
    assert rows == ["equalsplit", "kmeans", "finch", "twfinch"] * 2
    assert "plain half" in proc.stdout and "repeated-class half" in proc.stdout


def test_demo_dataset_commands_run(tmp_path):
    proc = run_script("make_demo_dataset.py", tmp_path / "demo", "--videos-per-activity", 1,
                      "--frames", 60, "--dims", 8)
    assert proc.returncode == 0, proc.stderr
    commands = [line.split("twseg ", 1)[1] for line in proc.stdout.splitlines()
                if "twseg " in line]
    assert [c.split()[0] for c in commands] == ["segment", "eval"]
    for command in commands:
        assert main(shlex.split(command)) == 0
    assert sorted(p.name for p in (tmp_path / "demo" / "pred").glob("*.seg")) == [
        "act0_vid0.seg", "act1_vid0.seg"]


def load_partition_digest():
    module_spec = importlib.util.spec_from_file_location("partition_digest",
                                                         SCRIPTS / "partition_digest.py")
    partition_digest = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(partition_digest)
    return partition_digest


def test_partition_digest_slice():
    partition_digest = load_partition_digest()
    cases = partition_digest.suite()
    assert len(cases) == 150
    for seed in range(50):
        for offset, repeated in enumerate((False, True)):
            spec = suite_spec(seed, repeated)
            assert cases[3 * seed + offset] == (spec, spec.k)
    counts, digest, decisions = partition_digest.digest(
        (generate(spec)[0], k) for spec, k in cases[:2])
    assert re.fullmatch(r"4 runs, \d+ hierarchy levels, \d+ merges, \d+ fallbacks", counts)
    assert re.fullmatch(r"[0-9a-f]{64}", digest) and re.fullmatch(r"[0-9a-f]{64}", decisions)


def test_duplicate_frame_digest_slice():
    partition_digest = load_partition_digest()
    cases = partition_digest.duplicate_suite()
    assert len(cases) == 40
    (aba, k), (reversed_aba, _) = cases[:2]
    assert k == 3 and aba.n == 150
    assert np.array_equal(reversed_aba.frames, aba.frames[::-1])
    assert len(np.unique(aba.frames, axis=0)) == 2
    counts, digest, decisions = partition_digest.digest(cases[:2])
    assert re.fullmatch(r"4 runs, \d+ hierarchy levels, \d+ merges, \d+ fallbacks", counts)
    assert re.fullmatch(r"[0-9a-f]{64}", digest) and re.fullmatch(r"[0-9a-f]{64}", decisions)


def test_decision_digest_ignores_merge_weights(monkeypatch):
    partition_digest = load_partition_digest()
    cases = [(generate(spec)[0], k) for spec, k in partition_digest.suite()[:2]]
    counts, digest, decisions = partition_digest.digest(cases)
    assert " 0 merges" not in counts
    real = refine._min_link

    def one_ulp_up(*args, **kwargs):
        a, b, w = real(*args, **kwargs)
        return a, b, float(np.nextafter(w, np.inf))

    monkeypatch.setattr(refine, "_min_link", one_ulp_up)
    moved = partition_digest.digest(cases)
    assert moved[0] == counts
    assert moved[1] != digest
    assert moved[2] == decisions


# Prints the decision digest of the standard suite's first 20 cases.
FIRST_CASES_DECISIONS = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("partition_digest", sys.argv[1])
partition_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(partition_digest)
from twseg.synth import generate
cases = ((generate(s)[0], k) for s, k in partition_digest.suite()[:20])
print(partition_digest.digest(cases)[2])
"""


def test_standard_suite_decisions_do_not_depend_on_blas_threads():
    # Only the merge weights' last bits may follow the BLAS reduction order.
    # The duplicate suite is left out: its seed-7 held-and-padded sequence
    # and that sequence's time reversal still split with the thread count.
    decisions = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", FIRST_CASES_DECISIONS,
                               str(SCRIPTS / "partition_digest.py")],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        decisions.append(proc.stdout.strip())
    assert re.fullmatch(r"[0-9a-f]{64}", decisions[0])
    assert decisions[0] == decisions[1]


# A stand-in for perfbench/run.py with its command line and output format: an
# ``env`` line, then one JSON line whose metric values are SCALE times the seed.
STUB_PERFBENCH = """
import argparse, json
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag, required=True)
args = parser.parse_args()
declared = json.load(open("BENCHMARK.json"))
names = [m["name"] for m in declared["per_layer" if args.trace == "1" else "end_to_end"]]
print("env " + json.dumps(dict.fromkeys(("nproc", "affinity_cpus", "python", "numpy", "scipy",
                                         "openblas", "blas_threads", "blas_env"), 1)))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {name: {"value": SCALE * int(args.seed)} for name in names}}))
"""


def git(repo, *argv):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                           "-c", "commit.gpgsign=false", *argv], cwd=repo,
                          capture_output=True, text=True, check=True).stdout


def test_bench_pair_head_against_head(tmp_path):
    """bench_pair.py in a small repository: its HEAD against a working tree
    whose perfbench stand-in reports twice the values, 1 pair, short seconds
    and two small sizes. The real perfbench's set-up alone takes seconds per
    run, so a stand-in keeps this test short."""
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src" / "twseg", repo / "src" / "twseg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (repo / "scripts").mkdir()
    shutil.copy(SCRIPTS / "bench_pair.py", repo / "scripts")
    shutil.copy(ROOT / "BENCHMARK.json", repo)
    (repo / "perfbench").mkdir()
    stub = repo / "perfbench" / "run.py"
    stub.write_text("SCALE = 1\n" + STUB_PERFBENCH)
    git(repo, "init", "-q")
    git(repo, "add", ".")
    git(repo, "commit", "-q", "-m", "parent")
    stub.write_text("SCALE = 2\n" + STUB_PERFBENCH)
    before = git(repo, "status", "--porcelain", "--ignored")
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(repo / "scripts" / "bench_pair.py"),
                           "--parent", "HEAD", "--out", str(out), "--pairs", "1",
                           "--seconds", "0.05", "--slope-sizes", "20,40"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert git(repo, "status", "--porcelain", "--ignored") == before  # nothing written there
    doc = json.loads(out.read_text())
    # BENCH_32.json and older hold one traced run per side, per_layer_trace_seed1.
    old_keys = set(json.loads((ROOT / "BENCH_32.json").read_text()))
    assert old_keys - {"per_layer_trace_seed1"} | {"per_layer_trace"} == set(doc)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc["workloads"]) == set(doc["per_layer_trace"]) == {
        w["name"] for w in declared["workloads"]}
    for record in doc["workloads"].values():
        assert record["seeds"] == [1] and record["first_in_pair"] == {"1": "parent"}
        assert record["parent"]["frames_per_s"]["runs"] == [1]
        assert record["change"]["frames_per_s"]["runs"] == [2]
        assert record["comparison"]["frames_per_s"]["change_wins"] == 1
        assert record["comparison"]["peak_rss_mb"]["change_wins"] == 0  # lower is better
        assert record["comparison"]["setup_s"]["pair_change_rel"] == [1.0]
    for trace in doc["per_layer_trace"].values():
        # Seeds 1-3 whatever --pairs says; the stand-in reports SCALE times the seed.
        assert trace["seeds"] == [1, 2, 3]
        assert trace["first_in_pair"] == {"1": "parent", "2": "change", "3": "parent"}
        assert set(trace["parent"]) - {"failed", "attempted", "all_correct"} == {
            m["name"] for m in declared["per_layer"]}
        for name in trace["comparison"]:
            assert trace["parent"][name]["runs"] == [1, 2, 3]
            assert trace["change"][name] == {"median": 4, "q1": 3, "q3": 5, "runs": [2, 4, 6]}
        assert trace["comparison"]["graph.nn_links.gflops"]["change_wins"] == 3
        assert trace["comparison"]["graph.nn_links.level1_ms"]["change_wins"] == 0
    assert "--seconds 0.05 --trace 1" in doc["trace_command"]
    for side in ("parent", "change"):
        assert doc["import_twseg_cli"][side]["rss_mb"]["median"] > 0
        assert len(doc["criterion_7_slopes"][side]) == 5
