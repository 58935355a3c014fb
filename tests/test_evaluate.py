import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twseg.errors import InvalidValueError
from twseg.evaluate import (
    _max_weight_assignment,
    aggregate,
    evaluate_pair,
    f1,
    filter_background,
    hungarian_match,
    iou,
    match_across_videos,
    midpoint_hit,
    mof,
    overlap_matrix,
    purity,
    segments_from_labels,
)
from twseg.synth import SynthSpec, generate
from twseg.types import EvalReport, GroundTruth, Partition, relabel_dense

from reference_impl import (
    assignment_total,
    brute_force_assignment,
    loop_f1,
    loop_iou,
    loop_midpoint_hit,
    loop_mof,
)
from tests_support import run_table


def gt_of(tokens, background="SIL"):
    return GroundTruth.from_tokens(list(tokens), background_label=background)


def part_of(labels):
    return Partition(np.asarray(labels))


class TestHungarian:
    def test_diagonal_optimum(self):
        m = hungarian_match(np.array([[5, 0], [0, 7]]))
        assert m == {0: 0, 1: 1}

    def test_anti_diagonal(self):
        m = hungarian_match(np.array([[0, 5], [7, 0]]))
        assert m == {0: 1, 1: 0}

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p, g = rng.integers(1, 6, size=2)
            counts = rng.integers(0, 30, size=(p, g))
            ours = assignment_total(counts, hungarian_match(counts))
            oracle = assignment_total(counts, brute_force_assignment(counts))
            assert ours == oracle

    def test_rectangular_leaves_preds_unmatched(self):
        m = hungarian_match(np.array([[9, 0], [8, 0], [0, 7]]))
        assert len(m) == 2
        assert len(set(m.values())) == 2

    def test_no_label_with_frames_gives_empty_mapping(self):
        assert hungarian_match(np.zeros((3, 2), dtype=np.int64)) == {}
        assert hungarian_match(np.zeros((3, 0), dtype=np.int64)) == {}


def tie_heavy_matrices(rng, count):
    """Seeded int64 matrices of 1-11 rows and columns (1 x N and N x 1
    included) over value ranges from {0, 1} to {0..999}; a third repeat
    some columns, a third some rows, and one in twenty is all zero."""
    for _ in range(count):
        p, g = (int(s) for s in rng.integers(1, 12, size=2))
        counts = rng.integers(0, int(rng.choice([2, 3, 5, 30, 1000])), size=(p, g))
        if rng.random() < 0.3:
            counts = counts[:, rng.integers(0, g, size=g)]
        if rng.random() < 0.3:
            counts = counts[rng.integers(0, p, size=p)]
        if rng.random() < 0.05:
            counts = np.zeros_like(counts)
        yield counts


class TestAssignmentMatchesScipy:
    """The in-house solver returns SciPy's own pairs, ties included: which of
    several optimal matchings is picked moves IoU, F1 and the midpoint
    metrics. SciPy is imported here only; the package does not use it."""

    def assert_same_as_scipy(self, counts):
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(counts, maximize=True)
        assert _max_weight_assignment(counts) == (rows.tolist(), cols.tolist()), counts

    def test_seeded_tie_heavy_matrices(self):
        rng = np.random.default_rng(29)
        shapes = set()
        for counts in tie_heavy_matrices(rng, 6000):
            self.assert_same_as_scipy(counts)
            shapes.add(counts.shape)
        assert {(1, 7), (7, 1), (3, 9), (9, 3)} <= shapes

    def test_small_values_with_repeated_rows_and_columns(self):
        rng = np.random.default_rng(30)
        for _ in range(500):
            p, g = (int(s) for s in rng.integers(2, 9, size=2))
            base = rng.integers(0, 3, size=(p, g))
            rows, cols = rng.integers(0, p, size=p), rng.integers(0, g, size=g)
            self.assert_same_as_scipy(base[rows][:, cols])

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (4, 4), (3, 8), (8, 3)])
    def test_all_zero(self, shape):
        self.assert_same_as_scipy(np.zeros(shape, dtype=np.int64))

    def test_empty_side(self):
        for shape in [(4, 0), (0, 4), (0, 0)]:
            assert _max_weight_assignment(np.zeros(shape, dtype=np.int64)) == ([], [])

    @pytest.mark.parametrize("shape", [(50, 300), (300, 50), (100, 100)])
    def test_large(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        self.assert_same_as_scipy(rng.integers(0, 4, size=shape))
        self.assert_same_as_scipy(rng.integers(0, 10**6, size=shape))


class TestMof:
    def test_perfect(self):
        assert mof(overlap_matrix(part_of([0, 1]), gt_of("ab")), {0: 0, 1: 1}) == 1.0

    def test_empty_mapping(self):
        assert mof(overlap_matrix(part_of([0, 1]), gt_of("ab")), {}) == 0.0

    def test_three_of_four(self):
        pred = part_of([0, 0, 1, 1])
        gt = gt_of("aaab")
        assert mof(overlap_matrix(pred, gt), {0: 0, 1: 1}) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(InvalidValueError, match="1 predicted frames vs 2 ground-truth frames"):
            mof(overlap_matrix(part_of([0]), gt_of("ab")), {})


class TestIou:
    def test_perfect(self):
        assert iou(overlap_matrix(part_of([0, 1]), gt_of("ab")), {0: 0, 1: 1}) == 1.0

    def test_hand_example(self):
        pred = part_of([0, 0, 1, 1])
        gt = gt_of("aaab")
        expected = (2.0 / 3.0 + 1.0 / 2.0) / 2.0
        assert iou(overlap_matrix(pred, gt), {0: 0, 1: 1}) == pytest.approx(expected, abs=1e-12)

    def test_disjoint_is_zero(self):
        pred = part_of([0, 1])
        gt = gt_of("ab")
        assert iou(overlap_matrix(pred, gt), {0: 1, 1: 0}) == 0.0


class TestF1:
    def test_perfect(self):
        assert f1(overlap_matrix(part_of([0, 1]), gt_of("ab")), {0: 0, 1: 1}) == 1.0

    def test_empty_intersection_is_zero(self):
        assert f1(overlap_matrix(part_of([0, 1]), gt_of("ab")), {0: 1, 1: 0}) == 0.0

    def test_hand_example(self):
        pred = part_of([0, 0, 1, 1])
        gt = gt_of("aaab")
        assert f1(overlap_matrix(pred, gt), {0: 0, 1: 1}) == pytest.approx(0.75, abs=1e-12)

    def test_macro_option(self):
        pred = part_of([0, 0, 1, 1])
        gt = gt_of("aaab")
        # a: p=1, r=2/3 -> 0.8 ; b: p=1/2, r=1 -> 2/3
        expected = (0.8 + 2.0 / 3.0) / 2.0
        assert f1(overlap_matrix(pred, gt), {0: 0, 1: 1},
                  average="macro") == pytest.approx(expected)


class TestMidpointHit:
    def test_identical_segmentations(self):
        runs = run_table((0, 0, 4), (1, 5, 9))
        assert midpoint_hit(runs, runs, {0: 0, 1: 1}) == (1.0, 1.0)

    def test_midpoint_in_background_is_miss(self):
        pred = run_table((0, 0, 9))
        gt = run_table((1, 0, 6), (0, 7, 9))  # midpoint 4 lands on label 1
        p, r = midpoint_hit(pred, gt, {0: 0})
        assert (p, r) == (0.0, 0.0)

    def test_floor_midpoint_rule(self):
        gt = run_table((0, 5, 20))
        miss = run_table((0, 0, 9))   # midpoint 4, outside
        hit = run_table((0, 2, 11))   # midpoint 6, inside
        assert midpoint_hit(miss, gt, {0: 0}) == (0.0, 0.0)
        assert midpoint_hit(hit, gt, {0: 0}) == (1.0, 1.0)

    def test_midpoint_between_or_past_runs_is_miss(self):
        gt = run_table((0, 0, 3), (0, 8, 12))
        assert midpoint_hit(run_table((0, 4, 6)), gt, {0: 0}) == (0.0, 0.0)   # midpoint 5
        assert midpoint_hit(run_table((0, 10, 20)), gt, {0: 0}) == (0.0, 0.0)  # midpoint 15
        assert midpoint_hit(run_table((0, 6, 12)), gt, {0: 0}) == (1.0, 0.5)   # midpoint 9

    def test_each_gt_segment_claimed_once(self):
        pred = run_table((0, 0, 3), (1, 4, 5), (0, 6, 9))
        gt = run_table((0, 0, 9))
        mapping = {0: 0, 1: 0}
        p, r = midpoint_hit(pred, gt, mapping)
        assert p == pytest.approx(1 / 3)
        assert r == 1.0


class TestPurity:
    def test_relabeled_perfect(self):
        assert purity(overlap_matrix(part_of([1, 1, 0]), gt_of("aab"))) == 1.0

    def test_one_cluster_two_equal_labels(self):
        assert purity(overlap_matrix(part_of([0, 0]), gt_of("ab"))) == 0.5

    def test_matches_direct_recount(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pred = part_of(_dense(rng.integers(0, 4, size=20)))
            gt_ids = rng.integers(0, 3, size=20)
            gt = GroundTruth(_dense(gt_ids), tuple("xyz"), "x")
            expected = 0.0
            for c in range(pred.num_clusters):
                members = gt.labels[pred.labels == c]
                if members.size:
                    expected += np.bincount(members).max()
            assert purity(overlap_matrix(pred, gt)) == pytest.approx(expected / 20)


def _dense(raw):
    from twseg.types import relabel_dense

    return relabel_dense(raw).labels


class TestSegmentsFromLabels:
    def test_runs(self):
        runs = segments_from_labels(np.array([0, 0, 1, 1, 0]))
        assert [a.tolist() for a in runs] == [[0, 1, 0], [0, 2, 4], [1, 3, 4]]
        assert all(a.dtype == np.int64 for a in runs)

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40))
    def test_cover_and_maximality(self, labels):
        run_labels, starts, ends = segments_from_labels(np.array(labels))
        assert starts[0] == 0 and ends[-1] == len(labels) - 1
        assert np.array_equal(starts[1:], ends[:-1] + 1)
        assert np.all(run_labels[1:] != run_labels[:-1])
        assert np.array_equal(np.repeat(run_labels, ends - starts + 1), labels)


class TestFilterBackground:
    def test_tau_zero_identity(self):
        seq, gt = generate(SynthSpec(k=3, n=90, background_frac=0.3, seed=0))
        fseq, fgt, keep = filter_background(seq, gt, 0.0, seed=1)
        assert fseq.n == seq.n and np.array_equal(keep, np.arange(seq.n))

    def test_tau_one_removes_all_background(self):
        seq, gt = generate(SynthSpec(k=3, n=90, background_frac=0.3, seed=0))
        _, fgt, _ = filter_background(seq, gt, 1.0, seed=1)
        assert fgt.background_id is None or np.all(fgt.labels != fgt.background_id)

    def test_exact_removal_count(self):
        tokens = ["bg"] * 40 + ["a"] * 60
        gt = GroundTruth.from_tokens(tokens, background_label="bg")
        seq, _ = generate(SynthSpec(k=1, n=100, seed=3))
        fseq, fgt, keep = filter_background(seq, gt, 0.75, seed=0)
        assert fseq.n == 70
        assert keep.size == 70

    def test_deterministic_and_order_preserving(self):
        seq, gt = generate(SynthSpec(k=4, n=200, background_frac=0.5, seed=5))
        a = filter_background(seq, gt, 0.6, seed=11)
        b = filter_background(seq, gt, 0.6, seed=11)
        assert np.array_equal(a[2], b[2])
        assert np.all(np.diff(a[2]) > 0)

    def test_no_background_is_noop(self):
        seq, gt = generate(SynthSpec(k=2, n=50, seed=1))
        fseq, _, keep = filter_background(seq, gt, 0.9, seed=0)
        assert fseq.n == 50 and keep.size == 50


class TestAggregate:
    def test_video_vs_frame_mode(self):
        from twseg.types import EvalReport

        r1 = EvalReport(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, {}, 10)
        r2 = EvalReport(0.0, 0.0, 0.0, 0.0, 0.0, 1.0, {}, 30)
        assert aggregate([r1, r2], "video").mof == pytest.approx(0.5)
        assert aggregate([r1, r2], "frame").mof == pytest.approx(0.25)

    def test_single_video_is_itself(self):
        from twseg.types import EvalReport

        r = EvalReport(0.7, 0.6, 0.5, 0.4, 0.3, 0.9, {}, 42)
        assert aggregate([r], "video") == EvalReport(0.7, 0.6, 0.5, 0.4, 0.3, 0.9, {}, 42)

    def test_equal_reports_invariant_to_mode(self):
        from twseg.types import EvalReport

        rs = [EvalReport(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, {}, n) for n in (10, 20)]
        assert aggregate(rs, "video").mof == pytest.approx(aggregate(rs, "frame").mof)


class TestInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_purity_at_least_mof(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        pred = part_of(_dense(rng.integers(0, rng.integers(1, 8), size=n)))
        gt = GroundTruth(_dense(rng.integers(0, rng.integers(1, 6), size=n)),
                         tuple(f"l{i}" for i in range(8)), "l0")
        rep = evaluate_pair(pred, gt)
        assert rep.purity >= rep.mof - 1e-12

    def test_mof_and_purity_relabeling_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(8, 40))
            pred = part_of(_dense(rng.integers(0, 5, size=n)))
            gt = GroundTruth(_dense(rng.integers(0, 4, size=n)),
                             tuple("abcd"), "a")
            base = evaluate_pair(pred, gt)
            for _ in range(10):
                perm = rng.permutation(pred.num_clusters)
                pred2 = part_of(perm[pred.labels])
                rep2 = evaluate_pair(pred2, gt)
                assert rep2.mof == pytest.approx(base.mof, abs=1e-12)
                assert rep2.purity == pytest.approx(base.purity, abs=1e-12)


class TestMatchAcrossVideos:
    def test_pooled_matching_differs_from_per_video(self):
        # Video 1: cluster 0 is 'a'; video 2: cluster 0 is mostly 'b'.
        gt1 = gt_of("aaaaa")
        gt2 = GroundTruth([1, 1, 1, 0], ("a", "b"))  # "bbba", with gt1's id for 'a'
        p1 = part_of([0, 0, 0, 0, 0])
        p2 = part_of([0, 0, 0, 1])
        pooled = match_across_videos([(p1, gt1), (p2, gt2)])
        assert pooled[0] == 0  # pooled: cluster 0 overlaps 'a' 5 times, 'b' 3 times
        per_video = hungarian_match(overlap_matrix(p2, gt2))
        assert per_video[0] == 1  # within video 2 alone, cluster 0 is 'b'


class TestMatchesLoopReference:
    def test_bitwise_on_random_matrices(self):
        """mof, iou and f1 give the loop oracle's exact bits under full,
        partial and padded mappings, each in a random order."""
        rng = np.random.default_rng(7)
        for _ in range(600):
            p, g, pad_p, pad_g = rng.integers(1, 10), rng.integers(1, 10), *rng.integers(0, 3, 2)
            ov = np.zeros((p + pad_p, g + pad_g), dtype=np.int64)
            ov[:p, :g] = rng.integers(0, 40, (p, g)) * (rng.random((p, g)) < 0.6)
            ov[rng.integers(p), rng.integers(g)] += 1
            full = list(hungarian_match(ov).items())
            m = min(ov.shape)
            padded = zip(rng.permutation(ov.shape[0])[:m].tolist(),
                         rng.permutation(ov.shape[1])[:m].tolist())
            partial = [full[i] for i in rng.permutation(len(full))[:rng.integers(len(full) + 1)]]
            for mapping in (dict(full), dict(padded), dict(partial)):
                got = (mof(ov, mapping), iou(ov, mapping), f1(ov, mapping, "micro"),
                       f1(ov, mapping, "macro"))
                want = (loop_mof(ov, mapping), loop_iou(ov, mapping),
                        loop_f1(ov, mapping, "micro"), loop_f1(ov, mapping, "macro"))
                assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


    def test_midpoint_hit_bitwise_on_random_run_tables(self):
        """midpoint_hit gives the loop oracle's exact bits on 500 random
        videos, fragmented or single-run, under the per-video matching (which
        leaves spare clusters unmapped), a part of it, and a pooled mapping
        that may name clusters and labels the video lacks; each against the
        full ground-truth run table and one with some runs dropped, where a
        midpoint can fall between or past the runs: 3,000 cases."""
        rng = np.random.default_rng(11)

        def sticky_labels(n, k):
            run_starts = np.where(rng.random(n) < rng.choice([0.0, 0.1, 0.4, 1.0]),
                                  np.arange(n), 0)
            return rng.integers(0, k, size=n)[np.maximum.accumulate(run_starts)]

        seen = {"unmapped": 0, "absent": 0, "single-run": 0}
        for _ in range(500):
            n = int(rng.integers(1, 80))
            pred = relabel_dense(sticky_labels(n, int(rng.integers(1, 7))))
            gt_labels = sticky_labels(n, int(rng.integers(1, 5)))
            gt = GroundTruth(gt_labels, tuple("abcd"), "a")
            per_video = hungarian_match(overlap_matrix(pred, gt))
            items = list(per_video.items())
            kept = rng.permutation(len(items))[:rng.integers(len(items) + 1)]
            partial = dict(items[i] for i in kept)
            m = int(rng.integers(1, 5))
            pooled = dict(zip(rng.permutation(pred.num_clusters + 2)[:m].tolist(),
                              rng.permutation(4)[:m].tolist()))
            pred_runs, gt_runs = segments_from_labels(pred.labels), segments_from_labels(gt.labels)
            kept = rng.random(gt_runs[0].size) < 0.6
            kept[rng.integers(kept.size)] = True
            gapped = tuple(a[kept] for a in gt_runs)
            for mapping in (per_video, partial, pooled):
                for gt_table in (gt_runs, gapped):
                    got = midpoint_hit(pred_runs, gt_table, mapping)
                    want = loop_midpoint_hit(pred_runs, gt_table, mapping)
                    assert [v.hex() for v in got] == [v.hex() for v in want]
                seen["unmapped"] += any(c not in mapping for c in range(pred.num_clusters))
                seen["absent"] += any(c >= pred.num_clusters for c in mapping)
            seen["single-run"] += pred_runs[0].size == 1 or gt_runs[0].size == 1
        assert min(seen.values()) >= 50, seen

class TestPaddedAndAbsent:
    def test_absent_label_in_table_gives_identical_report(self):
        # Three clusters, two labels: the spare cluster must stay unmatched
        # even when the table carries a label this video never uses.
        pred = part_of([0, 0, 1, 1, 2, 2])
        gt = gt_of("aaabbb")
        padded = GroundTruth(gt.labels, gt.label_names + ("z",), gt.background_label)
        assert evaluate_pair(pred, padded) == evaluate_pair(pred, gt)

    def test_pooled_mapping_larger_than_the_video(self):
        # Cluster 2 and label 'c' exist only in another video of the activity.
        pred = part_of([0, 0, 1, 1])
        gt = GroundTruth(np.array([0, 0, 1, 1]), ("a", "b", "c"), "SIL")
        rep = evaluate_pair(pred, gt, {0: 0, 2: 1, 1: 2})
        assert rep.mof == 0.5            # the absent cluster 2 adds no frames
        assert rep.iou == 0.5            # 'b', matched to absent cluster 2, scores 0
        assert rep.f1 == pytest.approx(2 * 0.5 * 0.5 / (0.5 + 0.5))
        assert rep.purity == 1.0


@st.composite
def scored_pairs(draw):
    """A prediction and a ground truth built from a random overlap matrix.

    Zero columns are labels the table carries but the video never uses.
    """
    p, g = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    counts = np.array(draw(st.lists(st.integers(0, 6), min_size=p * g, max_size=p * g)))
    counts = counts.reshape(p, g)
    assume(counts.sum(axis=1).all())  # every cluster id occurs
    cells = np.repeat(np.arange(p * g), counts.ravel())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = cells[rng.permutation(cells.size)]
    gt = GroundTruth(cells % g, tuple(f"l{i}" for i in range(g)), "l0")
    return Partition(cells // g), gt


def _optimal_mappings(counts):
    """Every maximum-total assignment of clusters to the labels present."""
    present = [int(c) for c in np.flatnonzero(counts.sum(axis=0))]
    rows = range(counts.shape[0])
    if len(rows) >= len(present):
        candidates = [dict(zip(r, present)) for r in itertools.permutations(rows, len(present))]
    else:
        candidates = [dict(zip(rows, c)) for c in itertools.permutations(present, len(rows))]
    totals = [sum(int(counts[c, g]) for c, g in m.items()) for m in candidates]
    return [m for m, t in zip(candidates, totals) if t == max(totals)]


class TestEvalProperties:
    @given(pair=scored_pairs(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_cluster_relabeling_changes_no_metric(self, pair, seed):
        pred, gt = pair
        # With tied optima the solver may pick another assignment after a
        # relabeling, and IoU/F1 read which one it picked.
        assume(len(_optimal_mappings(overlap_matrix(pred, gt))) == 1)
        perm = np.random.default_rng(seed).permutation(pred.num_clusters)
        for average in ("micro", "macro"):
            base = evaluate_pair(pred, gt, f1_average=average)
            rep = evaluate_pair(Partition(perm[pred.labels]), gt, f1_average=average)
            assert rep.mapping == {int(perm[c]): g for c, g in base.mapping.items()}
            for name in EvalReport.SCORES:
                assert getattr(rep, name) == pytest.approx(getattr(base, name), abs=1e-12)

    @given(pair=scored_pairs())
    @settings(max_examples=100, deadline=None)
    def test_one_video_pooled_match_is_the_per_video_match(self, pair):
        pred, gt = pair
        pooled = match_across_videos([(pred, gt)])
        assert pooled == hungarian_match(overlap_matrix(pred, gt))
        assert evaluate_pair(pred, gt, pooled) == evaluate_pair(pred, gt)

    @given(pair=scored_pairs(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_mof_at_most_purity_under_any_mapping(self, pair, seed):
        pred, gt = pair
        ov = overlap_matrix(pred, gt)
        rng = np.random.default_rng(seed)
        m = min(pred.num_clusters, gt.num_labels)
        any_mapping = dict(zip(rng.permutation(pred.num_clusters)[:m].tolist(),
                               rng.permutation(gt.num_labels)[:m].tolist()))
        for mapping in (hungarian_match(ov), any_mapping):
            assert mof(ov, mapping) <= purity(ov) + 1e-12

    @given(pair=scored_pairs(), extra=st.lists(st.integers(0, 6), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_absent_labels_in_table_change_no_metric(self, pair, extra):
        pred, gt = pair
        names = list(gt.label_names)
        for i, pos in enumerate(extra):
            names.insert(min(pos, len(names)), f"absent{i}")
        ids = np.array([names.index(n) for n in gt.label_names])
        wider = GroundTruth(ids[gt.labels], tuple(names), gt.background_label)
        for average in ("micro", "macro"):
            assert (evaluate_pair(pred, wider, f1_average=average).as_dict(wider.label_names)
                    == evaluate_pair(pred, gt, f1_average=average).as_dict(gt.label_names))
