"""Acceptance suite: one test (and one printed verdict line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. Every numeric threshold is
pinned here; nothing is deferred to later calibration. The standard synthetic
suite is 50 plain planted-segment sequences (k = 4 + seed % 7, N = 800,
sep = 8 sigma, length_alpha = 8) plus 50 repeated-class sequences (same sizes,
one visual class occurring twice), all seeded 0..49.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

import twseg
from twseg import graph
from twseg.baselines import KmeansConfig, equal_split, finch, kmeans
from twseg.bench import run_scaling_benchmark, time_segmentation
from twseg.cli import main
from twseg.errors import KUnreachableError
from twseg.evaluate import (
    evaluate_pair,
    f1,
    hungarian_match,
    iou,
    midpoint_hit,
    overlap_matrix,
)
from twseg.hierarchy import summarize
from twseg.refine import refine_to_k, select_level
from twseg.synth import SynthSpec, generate
from twseg.types import GroundTruth, Partition, relabel_dense

from reference_impl import (
    assignment_total,
    brute_force_assignment,
    brute_force_components,
    feature_distances,
    temporal_distances,
    weighted_distances,
)
from tests_support import make_manifest_dataset, run_table, suite_spec

SUITE_SEEDS = range(50)


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def contiguous(p: Partition) -> bool:
    return int(np.sum(np.diff(p.labels) != 0) + 1) == p.num_clusters


@pytest.fixture(scope="module")
def standard_suite():
    """MoF of every method on both suite halves, computed once."""
    out = {"plain": {"tw": [], "km": [], "es": [], "contig": 0},
           "repeat": {"tw": [], "km": [], "es": []}}
    for half, repeated in (("plain", False), ("repeat", True)):
        for seed in SUITE_SEEDS:
            spec = suite_spec(seed, repeated)
            seq, gt = generate(spec)
            tw = twseg.segment(seq, spec.k).partition
            out[half]["tw"].append(evaluate_pair(tw, gt).mof)
            if not repeated:
                out[half]["contig"] += contiguous(tw)
            out[half]["km"].append(
                evaluate_pair(kmeans(seq, KmeansConfig(k=spec.k)), gt).mof
            )
            out[half]["es"].append(evaluate_pair(equal_split(seq.n, spec.k), gt).mof)
    return out


def test_criterion_1_hungarian_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        p, g = rng.integers(1, 7, size=2)
        ov = rng.integers(0, 50, size=(p, g))
        ours = assignment_total(ov, hungarian_match(ov))
        oracle = assignment_total(ov, brute_force_assignment(ov))
        assert ours == oracle
        checked += 1
    elapsed = time.perf_counter() - start
    verdict(1, "hungarian equals brute force", checked == 1000 and elapsed < 5.0,
            f"{checked} matrices, {elapsed:.2f}s < 5s")


def test_criterion_2_components_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(2, 2001))
        nn = rng.integers(0, n - 1, size=n)
        nn[nn >= np.arange(n)] += 1  # uniform over j != i
        ours = graph.components_of_links(nn).labels
        oracle = brute_force_components(n, [(i, int(j)) for i, j in enumerate(nn)]).labels
        assert np.array_equal(ours, oracle)
    elapsed = time.perf_counter() - start
    verdict(2, "components equal BFS oracle", elapsed < 10.0,
            f"500 graphs (N up to 2000), {elapsed:.2f}s < 10s")


def test_criterion_3_hierarchy_invariants():
    rng = np.random.default_rng(303)
    violations = 0
    fallbacks = 0
    merges_checked = 0
    for i in range(200):
        n = int(rng.integers(100, 3001))
        spec = SynthSpec(k=int(rng.integers(2, 9)), n=n, seed=1000 + i)
        seq, _ = generate(spec)
        h = twseg.build_hierarchy(seq)
        counts = h.cluster_counts
        if not all(a > b for a, b in zip(counts, counts[1:])):
            violations += 1
        for fine, coarse in zip(h.partitions, h.partitions[1:]):
            mapping = np.full(fine.num_clusters, -1, dtype=np.int64)
            mapping[fine.labels] = coarse.labels
            if not np.array_equal(mapping[fine.labels], coarse.labels):
                violations += 1
        if i % 10 == 9:  # exercise the unreachable-K flag path too
            k = h.partitions[0].num_clusters + int(rng.integers(1, 10))
        else:
            k = int(rng.integers(1, 16))
        try:
            level = select_level(h, k)
        except KUnreachableError as err:
            if err.max_available != h.partitions[0].num_clusters:
                violations += 1
            res = twseg.segment(seq, k)
            if not res.fallback or res.partition.num_clusters != err.max_available:
                violations += 1
            fallbacks += 1
            continue
        p = level
        refined, trace = refine_to_k(seq, level, k)
        if refined.num_clusters != k:
            violations += 1
        for a, b, w in trace.merges:
            s = summarize(seq, p)
            wd = weighted_distances(
                feature_distances(s.means),
                temporal_distances(s.num_clusters, s.mean_times, seq.n),
                seq.n,
            ).w.copy()
            np.fill_diagonal(wd, np.inf)
            if not (abs(w - wd.min()) <= 1e-12 * max(1.0, abs(w))
                    and abs(wd[a, b] - wd.min()) <= 1e-12 * max(1.0, abs(w))):
                violations += 1
            merges_checked += 1
            merged = p.labels.copy()
            merged[merged == b] = a
            p = relabel_dense(merged)
    verdict(3, "hierarchy and refinement invariants", violations == 0,
            f"200 sequences, {merges_checked} merges recomputed, "
            f"{fallbacks} unreachable-K flags, {violations} violations")


def test_criterion_4_synthetic_recovery(standard_suite):
    tw_mean = float(np.mean(standard_suite["plain"]["tw"]))
    contig = standard_suite["plain"]["contig"]
    aba_margins = []
    for seed in SUITE_SEEDS:
        spec = SynthSpec(k=3, n=800, repeat_pattern=("A", "B", "A"),
                         seed=seed, length_alpha=8.0)
        seq, gt = generate(spec)
        tw = evaluate_pair(twseg.segment(seq, 3).partition, gt).mof
        fi = evaluate_pair(finch(seq, 3).partition, gt).mof
        aba_margins.append(tw - fi)
    margin = float(np.mean(aba_margins))
    ok = tw_mean >= 0.95 and contig >= 45 and margin >= 0.15
    verdict(4, "synthetic recovery and repeated-pattern contrast", ok,
            f"plain MoF {tw_mean:.4f} >= 0.95, contiguous {contig}/50 >= 45, "
            f"A-B-A margin over FINCH {margin:.4f} >= 0.15")


def test_criterion_5_baseline_ordering(standard_suite):
    tw = float(np.mean(standard_suite["plain"]["tw"] + standard_suite["repeat"]["tw"]))
    km = float(np.mean(standard_suite["plain"]["km"] + standard_suite["repeat"]["km"]))
    es = float(np.mean(standard_suite["plain"]["es"] + standard_suite["repeat"]["es"]))
    ok = es <= km <= tw and tw - max(km, es) >= 0.05
    verdict(5, "equal split <= kmeans <= temporally-weighted", ok,
            f"ES {es:.4f} <= KM {km:.4f} <= TW {tw:.4f}, margin {tw - km:.4f} >= 0.05")


def _unique_optimum_instance(rng):
    """Random (pred, gt) whose maximum-overlap assignment is unique."""
    while True:
        n = 40
        pred = relabel_dense(rng.integers(0, int(rng.integers(2, 5)), size=n))
        gt_ids = relabel_dense(rng.integers(0, int(rng.integers(2, 5)), size=n)).labels
        gt = GroundTruth(gt_ids, tuple(f"g{i}" for i in range(int(gt_ids.max()) + 1)), "g0")
        ov = overlap_matrix(pred, gt)
        p, g = ov.shape
        totals = []
        if p <= g:
            for cols in itertools.permutations(range(g), p):
                totals.append(sum(ov[r, c] for r, c in enumerate(cols)))
        else:
            for rows in itertools.permutations(range(p), g):
                totals.append(sum(ov[r, c] for c, r in enumerate(rows)))
        totals.sort()
        if len(totals) == 1 or totals[-1] > totals[-2]:
            return pred, gt


def test_criterion_6_metric_identities():
    rng = np.random.default_rng(606)

    # purity >= MoF on every instance.
    for _ in range(200):
        n = int(rng.integers(5, 80))
        pred = relabel_dense(rng.integers(0, int(rng.integers(1, 8)), size=n))
        gt_ids = relabel_dense(rng.integers(0, int(rng.integers(1, 6)), size=n)).labels
        gt = GroundTruth(gt_ids, tuple(f"g{i}" for i in range(int(gt_ids.max()) + 1)), "g0")
        rep = evaluate_pair(pred, gt)
        assert rep.purity >= rep.mof - 1e-12

    # Relabeling invariance, 100 permutations per base instance (unique optima).
    checked = 0
    for _ in range(3):
        pred, gt = _unique_optimum_instance(rng)
        base = evaluate_pair(pred, gt)
        for _ in range(50):  # predicted-id permutations
            perm = rng.permutation(pred.num_clusters)
            rep = evaluate_pair(Partition(perm[pred.labels]), gt)
            for field in ("mof", "iou", "f1", "midpoint_precision",
                          "midpoint_recall", "purity"):
                assert abs(getattr(rep, field) - getattr(base, field)) <= 1e-12
            checked += 1
        for _ in range(50):  # ground-truth-id permutations
            perm = rng.permutation(gt.num_labels)
            names = tuple(f"g{i}" for i in range(gt.num_labels))
            gt2 = GroundTruth(perm[gt.labels], names, names[int(perm[0])])
            rep = evaluate_pair(pred, gt2)
            for field in ("mof", "iou", "f1", "midpoint_precision",
                          "midpoint_recall", "purity"):
                assert abs(getattr(rep, field) - getattr(base, field)) <= 1e-12
            checked += 1

    # Hand examples to 1e-9.
    pred = Partition(np.array([0, 0, 1, 1]))
    gt = GroundTruth.from_tokens(list("aaab"), background_label="SIL")
    mapping = {0: 0, 1: 1}
    assert abs(iou(overlap_matrix(pred, gt), mapping) - (2 / 3 + 1 / 2) / 2) <= 1e-9
    assert abs(f1(overlap_matrix(pred, gt), mapping) - 0.75) <= 1e-9
    assert midpoint_hit(run_table((0, 0, 9)), run_table((0, 5, 20)), {0: 0}) == (0.0, 0.0)
    assert midpoint_hit(run_table((0, 2, 11)), run_table((0, 5, 20)), {0: 0}) == (1.0, 1.0)

    verdict(6, "metric identities", True,
            f"purity >= MoF on 200 instances, {checked} relabelings invariant, "
            f"hand examples within 1e-9")


def test_criterion_7_quadratic_scaling():
    result = run_scaling_benchmark(repeats=2, seed=707)
    single = time_segmentation(2000, 64, 10, repeats=3, seed=707)
    ok = 1.7 <= result.slope <= 2.3 and single < 1.0
    times = ", ".join(f"{n}:{s * 1000:.0f}ms" for n, s in result.rows())
    verdict(7, "O(N^2) scaling", ok,
            f"slope {result.slope:.3f} in [1.7, 2.3]; 2000-frame video {single:.3f}s < 1s; {times}")


def test_criterion_8_determinism(tmp_path):
    manifest = make_manifest_dataset(tmp_path)
    runs = {}
    for tag, workers in (("r1", "1"), ("r2", "1"), ("r3", "3")):
        filtered = tmp_path / f"{tag}-filtered"
        assert main(["segment", "--manifest", str(manifest), "--k-per-video-gt",
                     "--tau", "0.5", "--seed", "3", "--workers", workers,
                     "--output-dir", str(filtered)]) == 0
        report = tmp_path / f"{tag}.json"
        assert main(["eval", "--manifest", str(manifest), "--pred-dir", str(filtered),
                     "--json", str(report)]) == 0
        full = tmp_path / f"{tag}-full"
        assert main(["segment", "--manifest", str(manifest), "--k-per-video-gt",
                     "--workers", workers, "--output-dir", str(full)]) == 0
        svg = tmp_path / f"{tag}.svg"
        assert main(["plot", "--labels", str(tmp_path / "v1.txt"), "--background-label",
                     "BG", "--pred", str(full / "v1.seg"), "--out", str(svg)]) == 0
        runs[tag] = (
            {p.name: p.read_bytes() for p in sorted(filtered.iterdir())},
            {p.name: p.read_bytes() for p in sorted(full.iterdir()) if p.suffix == ".seg"},
            report.read_bytes(),
            svg.read_bytes(),
        )
    ok = runs["r1"] == runs["r2"] == runs["r3"]
    verdict(8, "byte-identical across runs and worker counts", ok,
            "partitions, keep files, JSON reports and SVGs compared over 3 runs")


def test_criterion_9_real_data_hook(tmp_path):
    # End-to-end over the documented on-disk formats: synth -> files ->
    # manifest -> segment (per-video gt K) -> eval, exactly the path a user
    # follows with real benchmark features.
    entries = []
    for i, seed in enumerate((1, 2)):
        vid = f"v{i}"
        assert main(["synth", "--k", "5", "--n", "300", "--dims", "16",
                     "--seed", str(seed),
                     "--out-features", str(tmp_path / f"{vid}.bin"),
                     "--out-labels", str(tmp_path / f"{vid}.txt")]) == 0
        entries.append({"video_id": vid, "activity": "demo",
                        "feature_path": f"{vid}.bin", "label_path": f"{vid}.txt"})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": entries, "background_label": "BG"}))
    out = tmp_path / "out"
    assert main(["segment", "--manifest", str(manifest), "--k-per-video-gt",
                 "--output-dir", str(out)]) == 0
    report = tmp_path / "report.json"
    assert main(["eval", "--manifest", str(manifest), "--pred-dir", str(out),
                 "--json", str(report)]) == 0
    doc = json.loads(report.read_text())
    has_metrics = all(
        key in doc["aggregate"] for key in ("mof", "iou", "f1", "purity")
    ) and len(doc["videos"]) == 2

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = "63.8" in readme and "44.1" in readme and "TWSEGF01" in readme
    verdict(9, "real-data hook", has_metrics and documented,
            f"pipeline end-to-end over documented formats, aggregate MoF "
            f"{doc['aggregate']['mof']:.3f}; reference values documented in README")
