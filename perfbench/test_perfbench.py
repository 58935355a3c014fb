"""Tests of the benchmark's own machinery: wrapping, self time, counts, checks.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import twseg  # noqa: E402
from twseg import cli, evaluate, hierarchy, refine  # noqa: E402
from twseg.synth import SynthSpec, generate  # noqa: E402

from layers import COUNTS, PER_LAYER, pass_metrics, per_layer, segment_self_cover  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    CLI_WORKERS,
    END_TO_END,
    CliWorkload,
    LibraryWorkload,
    Runner,
    Video,
    failures,
    manifest_short,
)


def small_library(seed: int, workdir: Path) -> LibraryWorkload:
    rng = np.random.default_rng(seed)
    videos = [
        Video(f"v{i}", "lib", SynthSpec(k=5, n=int(n), d=32, background_frac=0.2,
                                        seed=int(s), background_label="SIL"), k=5)
        for i, (n, s) in enumerate(zip(rng.integers(600, 1200, 3),
                                       rng.integers(0, 2**31, 3)))
    ]
    return LibraryWorkload(videos, workdir)


def small_cli(seed: int, workdir: Path) -> CliWorkload:
    return CliWorkload(manifest_short(seed, count=12), workdir)


def traced_run(w) -> tuple[Runner, Tracer]:
    """One set-up round, then the minimum number of traced passes."""
    runner = Runner(w)
    runner.setup_round()
    tracer = Tracer()
    runner.traced_passes(0.0, tracer)
    return runner, tracer


class TestWrapping:
    def test_wrapped_functions_return_identical_results(self):
        seq, gt = generate(SynthSpec(k=4, n=500, d=16, seed=3, background_frac=0.2))
        plain = twseg.segment(seq, 4)
        plain_report = twseg.evaluate_pair(plain.partition, gt)
        tracer = Tracer()
        tracer.install()
        try:
            traced = twseg.segment(seq, 4)
            traced_report = twseg.evaluate_pair(traced.partition, gt)
        finally:
            tracer.uninstall()
        assert np.array_equal(traced.partition.labels, plain.partition.labels)
        assert traced.hierarchy.cluster_counts == plain.hierarchy.cluster_counts
        assert traced.trace == plain.trace
        assert traced.fallback == plain.fallback
        assert traced_report == plain_report
        names = {s.name for s in tracer.spans}
        assert {"refine.segment", "hierarchy.build_hierarchy", "hierarchy.summarize",
                "graph.nearest_neighbor_links", "refine.refine_to_k",
                "evaluate.overlap_matrix", "evaluate.hungarian_match"} <= names

    def test_names_imported_by_value_are_wrapped_and_restored(self):
        originals = (refine.summarize, cli.evaluate_pair, twseg.segment)
        assert refine.summarize is hierarchy.summarize
        tracer = Tracer()
        tracer.install()
        try:
            assert refine.summarize is hierarchy.summarize
            assert refine.summarize is not originals[0]
            assert refine.summarize.__wrapped__ is originals[0]
            assert cli.evaluate_pair is evaluate.evaluate_pair
            assert cli.evaluate_pair.__wrapped__ is originals[1]
            assert twseg.segment is refine.segment
            assert twseg.segment.__wrapped__ is originals[2]
        finally:
            tracer.uninstall()
        assert (refine.summarize, cli.evaluate_pair, twseg.segment) == originals
        assert cli.ThreadPoolExecutor.__module__ == "concurrent.futures.thread"


def span(sid, start, end, parent=None, thread=0, name="x"):
    return Span(sid, name, start, end, parent, thread, None)


class TestSelfTime:
    def test_overlapping_children_on_two_threads_count_once(self):
        spans = [span(0, 0.0, 10.0),
                 span(1, 1.0, 5.0, parent=0, thread=1),
                 span(2, 3.0, 8.0, parent=0, thread=2),
                 span(3, 4.0, 4.5, parent=2, thread=2)]
        own = self_times(spans)
        assert own[0] == pytest.approx(3.0)
        assert own[1] == pytest.approx(4.0)
        assert own[2] == pytest.approx(4.5)
        assert own[3] == pytest.approx(0.5)

    @pytest.mark.parametrize("make", [small_library, small_cli])
    def test_child_self_times_never_exceed_the_parent(self, make, tmp_path):
        _, tracer = traced_run(make(7, tmp_path))
        spans = tracer.spans
        by_id = {s.id: s for s in spans}
        own = self_times(spans)
        assert len({s.id for s in spans}) == len(spans)
        for s in spans:
            assert 0.0 <= own[s.id] <= s.duration + 1e-9
            if s.parent is not None:
                parent = by_id[s.parent]
                assert own[s.id] <= parent.duration + 1e-9
                assert parent.start <= s.start and s.end <= parent.end

    def test_pool_tasks_nest_under_cmd_segment_on_worker_threads(self, tmp_path):
        _, tracer = traced_run(small_cli(7, tmp_path))
        by_id = {s.id: s for s in tracer.spans}
        tasks = [s for s in tracer.spans if s.name == "cli.pool.task"]
        assert len(tasks) == 12 * 3
        assert all(by_id[t.parent].name == "cli.cmd_segment" for t in tasks)
        assert all(t.thread != threading.get_ident() for t in tasks)
        assert len({t.thread for t in tasks}) <= CLI_WORKERS
        assert {t.video for t in tasks} == {f"short{i:03d}" for i in range(12)}

    def test_graph_hierarchy_refine_self_times_cover_segment(self, tmp_path):
        _, tracer = traced_run(small_library(3, tmp_path))
        assert segment_self_cover(tracer.spans) == pytest.approx(1.0, abs=0.05)


class TestCounts:
    @pytest.mark.parametrize("make", [small_library, small_cli])
    def test_two_traced_runs_of_one_seed_give_identical_counts(self, make, tmp_path):
        counts = []
        for run in ("a", "b"):
            runner, tracer = traced_run(make(11, tmp_path / run))
            assert runner.failed == 0 and not runner.problems
            metrics, per_pass, _ = per_layer(tracer.spans, CLI_WORKERS, 0.0)
            assert all(m[c] == per_pass[0][c] for m in per_pass for c in COUNTS)
            counts.append({c: metrics[c] for c in COUNTS})
        assert counts[0] == counts[1]
        assert counts[0]["evaluate.overlap_matrix.calls"] == 4 * len(runner.w.videos)
        assert counts[0]["graph.nn_links.pairs"] > 0

    def test_metric_names_match_benchmark_json(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
        assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
            name: unit for name, (unit, _) in PER_LAYER.items()}
        assert set(pass_metrics([], 1)) == set(PER_LAYER) - {"trace.overhead_frac"}

    def test_pass_metrics_split_nn_links_by_caller(self, tmp_path):
        _, tracer = traced_run(small_library(5, tmp_path))
        m = pass_metrics(tracer.spans, 1)  # all three passes at once
        nn = sum(s.duration for s in tracer.spans
                 if s.name == "graph.nearest_neighbor_links") * 1000.0
        split = (m["graph.nn_links.level1_ms"] + m["graph.nn_links.upper_ms"]
                 + m["graph.nn_links.refine_ms"])
        assert split == pytest.approx(nn)
        assert m["graph.nn_links.calls"] == (
            m["graph.components.calls"] + m["refine.merges"])


class TestChecks:
    def test_a_changed_output_fails_the_check(self, tmp_path):
        w = small_library(2, tmp_path)
        runner = Runner(w)
        runner.setup_round()
        result = w.collect(w.run_pass())
        assert failures(w, result, runner.reference) == {}
        result.videos["v1"].seg_sha = "0" * 64
        assert set(failures(w, result, runner.reference)) == {"v1"}
        result.videos["v0"].clusters = 4
        assert set(failures(w, result, None)) == {"v0"}

    def test_a_raising_segment_counts_as_failed(self, tmp_path, monkeypatch):
        w = small_library(2, tmp_path)
        w.prepare()

        def broken(seq, k):
            raise RuntimeError("boom")

        monkeypatch.setattr(twseg, "segment", broken)
        result = w.collect(w.run_pass())
        assert set(failures(w, result, None)) == {"v0", "v1", "v2"}

    def test_without_a_source_tree_the_command_exits_nonzero(self, tmp_path):
        shutil.copytree(HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "long-d64",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert out.returncode != 0
        assert out.stdout == ""
