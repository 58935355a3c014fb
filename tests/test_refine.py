import gc
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twseg import graph, refine
from twseg.baselines import segment_with
from twseg.errors import InvalidValueError, KUnreachableError
from twseg.hierarchy import LevelSummary, build_hierarchy, summarize
from twseg.refine import refine_to_k, segment, select_level
from twseg.synth import SynthSpec, generate
from twseg.types import FeatureSequence, Partition, PartitionHierarchy, relabel_dense

from reference_impl import (
    bitwise_equal,
    feature_distances,
    reference_segment,
    reference_summary,
    temporal_distances,
    weighted_distances,
)
from tests_support import suite_spec


def hierarchy_with_counts(counts):
    """Nested partitions over counts[0] frames hitting the given counts exactly."""
    n = counts[0]
    parts = [Partition(np.arange(n))]
    for c in counts[1:]:
        prev = parts[-1]
        parts.append(Partition(prev.labels * c // prev.num_clusters))
    return PartitionHierarchy(tuple(parts))


class TestSelectLevel:
    def test_picks_smallest_count_at_least_k(self):
        h = hierarchy_with_counts([254, 67, 20, 3])
        assert select_level(h, 4).num_clusters == 20

    def test_exact_hit(self):
        h = hierarchy_with_counts([10, 4])
        assert select_level(h, 4).num_clusters == 4

    def test_unreachable_reports_finest(self):
        h = hierarchy_with_counts([3])
        with pytest.raises(KUnreachableError) as err:
            select_level(h, 5)
        assert err.value.max_available == 3


class TestRefineToK:
    def test_merge_count_and_final_k(self):
        seq, _ = generate(SynthSpec(k=4, n=300, seed=5))
        h = hierarchy_with_counts([300, 20])
        p, trace = refine_to_k(seq, h.partitions[-1], 4)
        assert p.num_clusters == 4
        assert len(trace.merges) == 16
        assert trace.start_level_clusters == 20

    def test_noop_when_k_equals_clusters(self):
        seq, _ = generate(SynthSpec(k=3, n=60, seed=1))
        start = Partition(np.repeat([0, 1, 2], 20))
        p, trace = refine_to_k(seq, start, 3)
        assert np.array_equal(p.labels, start.labels)
        assert trace.merges == ()

    def test_identical_means_merge_first(self):
        # Clusters 1 and 3 share the feature mean (0,5) and, by symmetric
        # placement (t in {3,9} vs {5,7}), the mean time 6: their weighted
        # distance is exactly 0, the global minimum, so they merge first.
        frames = np.array([
            [9.0, 0.0],               # t=1  cluster 0
            [9.0, 0.0],               # t=2  cluster 0
            [0.0, 5.0],               # t=3  cluster 1
            [4.0, 4.0],               # t=4  cluster 2
            [0.0, 5.0],               # t=5  cluster 3
            [4.0, 4.0],               # t=6  cluster 2
            [0.0, 5.0],               # t=7  cluster 3
            [7.0, 1.0],               # t=8  cluster 4
            [0.0, 5.0],               # t=9  cluster 1
            [7.0, 1.0],               # t=10 cluster 4
        ])
        labels = np.array([0, 0, 1, 2, 3, 2, 3, 4, 1, 4])
        p, trace = refine_to_k(FeatureSequence(frames), Partition(labels), 4)
        a, b, w = trace.merges[0]
        assert w == 0.0
        assert (a, b) == (1, 3)
        assert p.num_clusters == 4

    def test_k_too_large(self):
        seq, _ = generate(SynthSpec(k=2, n=50, seed=0))
        with pytest.raises(InvalidValueError, match="k=3 exceeds the 2 available clusters"):
            refine_to_k(seq, Partition(np.repeat([0, 1], 25)), 3)

    def test_each_step_reduces_by_one_and_coarsens(self):
        seq, _ = generate(SynthSpec(k=5, n=200, seed=8))
        from twseg.hierarchy import build_hierarchy

        level = build_hierarchy(seq).partitions[0]
        k = max(1, level.num_clusters - 6)
        p, trace = refine_to_k(seq, level, k)
        assert p.num_clusters == k
        assert len(trace.merges) == level.num_clusters - k
        mapping = {}
        for f, c in zip(level.labels.tolist(), p.labels.tolist()):
            assert mapping.setdefault(f, c) == c

    def test_merged_pair_is_globally_minimal(self):
        seq, _ = generate(SynthSpec(k=4, n=150, seed=3))
        from twseg.hierarchy import build_hierarchy

        level = build_hierarchy(seq).partitions[0]
        p = level
        _, trace = refine_to_k(seq, level, max(1, level.num_clusters - 5))
        for a, b, w in trace.merges:
            s = summarize(seq, p)
            gf = feature_distances(s.means)
            gtd = temporal_distances(s.num_clusters, s.mean_times, seq.n)
            wd = weighted_distances(gf, gtd, seq.n)
            masked = wd.w.copy()
            np.fill_diagonal(masked, np.inf)
            assert w == pytest.approx(masked.min(), rel=1e-12, abs=1e-15)
            merged = p.labels.copy()
            merged[merged == b] = a
            from twseg.types import relabel_dense

            p = relabel_dense(merged)


class TestIncrementalSummaries:
    """Every step of refine_to_k sees exactly the summary a full recompute
    of the current partition gives, and the links the kernel gives over it."""

    @staticmethod
    def check(monkeypatch, seq, start, k, run=None):
        seen = []
        real = refine._next_level

        def spy(level, grouping, n_total, temporal):
            seen.append(level)
            return real(level, grouping, n_total, temporal)

        monkeypatch.setattr(refine, "_next_level", spy)
        final, trace = run() if run else refine_to_k(seq, start, k)
        assert len(seen) == len(trace.merges) == start.num_clusters - k
        p = relabel_dense(start.labels)  # the records use first-frame ids
        for level, (a, b, _) in zip(seen, trace.merges):
            ref = reference_summary(seq, p)
            assert np.array_equal(level.partition.labels, p.labels)
            assert bitwise_equal(level.summary.means, ref.means)
            assert bitwise_equal(level.summary.mean_times, ref.mean_times)
            nn, link_w = graph.nearest_neighbor_links(ref.means, ref.mean_times, seq.n)
            assert np.array_equal(level.nn, nn) and bitwise_equal(level.link_w, link_w)
            p = relabel_dense(np.where(p.labels == b, a, p.labels))
        assert np.array_equal(final.labels, p.labels)

    def test_from_the_first_level(self, monkeypatch):
        seq, _ = generate(SynthSpec(k=5, n=600, seed=21))
        from twseg.hierarchy import build_hierarchy

        level = build_hierarchy(seq).partitions[0]
        self.check(monkeypatch, seq, level, 1)

    def test_from_the_level_segment_hands_over(self, monkeypatch):
        seq, _ = generate(SynthSpec(k=5, n=600, seed=21))
        start = select_level(build_hierarchy(seq), 3)
        assert start.num_clusters > 4

        def run():
            res = segment(seq, 3)
            return res.partition, res.trace

        self.check(monkeypatch, seq, start, 3, run)

    def test_interleaved_start_not_in_first_frame_order(self, monkeypatch):
        rng = np.random.default_rng(22)
        seq = FeatureSequence(rng.normal(size=(120, 6)) * np.exp2(rng.integers(-12, 12, (120, 6))))
        start = Partition(rng.permutation(np.arange(120) % 15))
        self.check(monkeypatch, seq, start, 2)
        # The start is renumbered in first-frame order before the first merge.
        got, trace = refine_to_k(seq, start, 2)
        want, want_trace = refine_to_k(seq, relabel_dense(start.labels), 2)
        assert np.array_equal(got.labels, want.labels)
        assert trace == want_trace

    def test_single_column(self, monkeypatch):
        # One feature column: numpy reductions would sum pairwise here.
        rng = np.random.default_rng(23)
        seq = FeatureSequence(rng.normal(size=(300, 1)) * np.exp2(rng.integers(-12, 12, (300, 1))))
        start = Partition(np.repeat(np.arange(30), 10)[rng.permutation(300)])
        self.check(monkeypatch, seq, relabel_dense(start.labels), 3)


class TestSegment:
    def test_planted_segments_recovered(self):
        seq, gt = generate(SynthSpec(k=4, n=400, seed=2, length_alpha=8.0))
        res = segment(seq, 4)
        from twseg.evaluate import evaluate_pair

        assert evaluate_pair(res.partition, gt).mof >= 0.95
        assert not res.fallback

    def test_k_one_merges_everything(self):
        seq, _ = generate(SynthSpec(k=3, n=90, seed=4))
        res = segment(seq, 1)
        assert res.partition.num_clusters == 1
        assert set(res.partition.labels.tolist()) == {0}

    def test_k_equal_n_flags_fallback(self):
        rng = np.random.default_rng(0)
        seq = FeatureSequence(rng.normal(size=(40, 6)))
        res = segment(seq, 40)
        assert res.partition.num_clusters == 40 or res.fallback

    def test_contiguous_on_separated_blocks(self):
        seq, _ = generate(SynthSpec(k=5, n=500, seed=6, length_alpha=8.0))
        res = segment(seq, 5)
        runs = int(np.sum(np.diff(res.partition.labels) != 0) + 1)
        assert runs == res.partition.num_clusters == 5


class TestSegmentReusesTheBuild:
    """segment hands refinement the level the build made: one kernel call per
    level and per merge, and no level summary kept in the result."""

    @pytest.mark.parametrize("temporal", [True, False], ids=["twfinch", "finch"])
    def test_one_kernel_call_per_level_and_per_merge(self, monkeypatch, temporal):
        seq, _ = generate(SynthSpec(k=5, n=600, seed=21))
        calls = []
        real = graph.nearest_neighbor_links

        def spy(*args, **kwargs):
            calls.append(args[0].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(graph, "nearest_neighbor_links", spy)
        res = segment(seq, 3, temporal=temporal)
        assert res.trace.merges and not res.fallback
        # The frames, each level, then each merge's new level (down to K).
        assert len(calls) == 1 + len(res.hierarchy.partitions) + len(res.trace.merges)
        assert calls[-1] == 3

    @pytest.mark.parametrize("k", [3, 300], ids=["refined", "fallback"])
    def test_result_holds_no_level_summary(self, k):
        seq, _ = generate(SynthSpec(k=5, n=300, seed=4))
        res = segment(seq, k)
        assert res.fallback == (k == 300)
        seen, stack = set(), [res]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, np.ndarray)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, LevelSummary)
            stack.extend(gc.get_referents(obj))
        assert len(seen) > len(res.hierarchy.partitions)

    @pytest.mark.parametrize("method", ["twfinch", "finch", "kmeans"])
    def test_sequence_keeps_no_float64_array(self, method):
        seq, _ = generate(SynthSpec(k=5, n=300, seed=4))
        segment_with(method, seq, 3)
        assert [(k, v.dtype) for k, v in vars(seq).items() if isinstance(v, np.ndarray)] == [
            ("frames", np.float32)]


def segment_record(res):
    """Everything a segment call decides, with each merge weight's exact bits."""
    merges = [(a, b, w.hex()) for a, b, w in res.trace.merges] if res.trace else []
    return ([p.labels.tolist() for p in res.hierarchy.partitions],
            res.partition.labels.tolist(), res.fallback, merges)


class TestMetamorphic:
    """Standard-suite sequences: doubling every frame decides exactly the
    same, and reversing time mirrors the partition."""

    CASES = [(seed, repeated, temporal) for seed in (0, 5, 11, 18)
             for repeated in (False, True) for temporal in (True, False)]

    @pytest.mark.parametrize("seed, repeated, temporal", CASES)
    def test_doubling_frames_is_bit_identical(self, seed, repeated, temporal):
        spec = suite_spec(seed, repeated)
        seq, _ = generate(spec)
        doubled = FeatureSequence(2 * seq.frames)
        assert (segment_record(segment(doubled, spec.k, temporal=temporal))
                == segment_record(segment(seq, spec.k, temporal=temporal)))

    @pytest.mark.parametrize("seed, repeated, temporal", CASES)
    def test_reversing_time_mirrors_the_partition(self, seed, repeated, temporal):
        spec = suite_spec(seed, repeated)
        seq, _ = generate(spec)
        res = segment(seq, spec.k, temporal=temporal)
        rev = segment(FeatureSequence(seq.frames[::-1]), spec.k, temporal=temporal)
        assert rev.hierarchy.cluster_counts == res.hierarchy.cluster_counts
        assert np.array_equal(relabel_dense(rev.partition.labels[::-1]).labels,
                              relabel_dense(res.partition.labels).labels)


def random_case(seed):
    """A seeded random sequence and K: 2-300 float32 frames of width 2-16,
    piecewise-constant means plus noise, and K up to 12, which may exceed
    the finest level."""
    rng = np.random.default_rng([seed, 11])
    n, d = int(rng.integers(2, 301)), int(rng.integers(2, 17))
    runs = rng.integers(0, int(rng.integers(1, 9)), size=n).cumsum() // max(1, n // 4)
    centers = rng.normal(scale=float(rng.choice([0.5, 3.0])), size=(int(runs.max()) + 1, d))
    frames = (centers[runs] + rng.normal(size=(n, d))).astype(np.float32)
    return FeatureSequence(frames), int(rng.integers(1, 13))


def tie_case(seed):
    """A seeded one-dimensional sequence of small integers: every distance
    and mean time is exact, so ties are exact and common (same-sign frames
    are at feature distance 0), and the tie rules decide."""
    rng = np.random.default_rng([seed, 12])
    n = int(rng.integers(2, 121))
    values = rng.choice([-2, -1, 0, 1, 2], size=int(rng.integers(1, 9)))
    frames = np.repeat(values, rng.multinomial(n, np.ones(len(values)) / len(values)))
    return FeatureSequence(frames[:, None]), int(rng.integers(1, 9))


class TestWholePipelineOracle:
    """``segment`` decides what the dense recompute-everything statement of
    the method decides: every level, the final partition, the fallback flag
    and the merged pairs exactly, the merge weights within 1e-9 relative."""

    @staticmethod
    def check(seq, k, temporal):
        res = segment(seq, k, temporal=temporal)
        levels, labels, fallback, merges = reference_segment(seq.frames, k, temporal=temporal)
        assert [p.labels.tolist() for p in res.hierarchy.partitions] == [
            level.tolist() for level in levels]
        assert res.partition.labels.tolist() == labels.tolist()
        assert res.fallback == fallback
        got = list(res.trace.merges) if res.trace else []
        assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in merges]
        for (_, _, w), (_, _, ref_w) in zip(got, merges):
            assert math.isclose(w, ref_w, rel_tol=1e-9)

    @pytest.mark.parametrize("temporal", [True, False], ids=["twfinch", "finch"])
    @pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
    def test_standard_suite(self, repeated, temporal):
        for seed in range(10):
            spec = suite_spec(seed, repeated)
            self.check(generate(spec)[0], spec.k, temporal)

    @pytest.mark.parametrize("temporal", [True, False], ids=["twfinch", "finch"])
    def test_seeded_random_cases(self, temporal):
        for seed in range(100):
            self.check(*random_case(seed), temporal)

    @pytest.mark.parametrize("temporal", [True, False], ids=["twfinch", "finch"])
    def test_exact_ties(self, temporal):
        for seed in range(100):
            self.check(*tie_case(seed), temporal)


@st.composite
def tie_heavy_sequences(draw):
    """Up to 14 frames drawn from at most four distinct rows (so duplicate
    frames are common), including the zero row and signed values; 0 or 1
    frames also occur."""
    n = draw(st.integers(0, 14))
    d = draw(st.integers(1, 3))
    value = st.one_of(st.integers(-2, 2).map(float), st.floats(-10, 10, width=32))
    row = st.one_of(st.just([0.0] * d), st.lists(value, min_size=d, max_size=d))
    pool = draw(st.lists(row, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return FeatureSequence(np.array([pool[i] for i in picks], dtype=np.float32).reshape(n, d))


def assert_pipeline_partitions_valid(res):
    """The pipeline builds its partitions without the constructors' checks;
    the public constructors accept every one of them unchanged."""
    for p in (*res.hierarchy.partitions, res.partition):
        assert p.labels.dtype == np.int64 and not p.labels.flags.writeable
        assert Partition(p.labels.copy()).num_clusters == p.num_clusters
    assert PartitionHierarchy(res.hierarchy.partitions).cluster_counts == res.hierarchy.cluster_counts


class TestPipelinePartitionsValid:
    @pytest.mark.parametrize("temporal", [True, False], ids=["twfinch", "finch"])
    def test_standard_suite(self, temporal):
        for seed in range(50):
            for repeated in (False, True):
                spec = suite_spec(seed, repeated)
                seq, _ = generate(spec)
                assert_pipeline_partitions_valid(segment(seq, spec.k, temporal=temporal))

    @given(seq=tie_heavy_sequences(), temporal=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_k_on_tie_heavy_sequences(self, seq, temporal):
        assume(seq.n >= 2)
        for k in range(1, seq.n + 1):
            assert_pipeline_partitions_valid(segment(seq, k, temporal=temporal))


class TestSegmentProperties:
    """Every k in [1, n] gives exactly k clusters, or, when k exceeds the
    finest level, the finest partition with ``fallback=True``. Fewer than
    two frames raise the documented InputError."""

    @given(seq=tie_heavy_sequences(), temporal=st.booleans())
    @example(seq=FeatureSequence(np.ones((2, 3))), temporal=True)
    @example(seq=FeatureSequence(np.zeros((5, 2))), temporal=False)
    @example(seq=FeatureSequence(np.zeros((0, 2))), temporal=True)
    @settings(max_examples=150, deadline=None)
    def test_every_k_exact_or_finest_fallback(self, seq, temporal):
        if seq.n < 2:
            message = "0x" if seq.n == 0 else "at least 2 frames"
            with pytest.raises(InvalidValueError, match=message):
                segment(seq, 1, temporal=temporal)
            return
        for k in range(1, seq.n + 1):
            res = segment(seq, k, temporal=temporal)
            finest = res.hierarchy.finest
            assert res.fallback == (k > finest.num_clusters)
            if res.fallback:
                assert np.array_equal(res.partition.labels, finest.labels)
            else:
                assert res.partition.num_clusters == k
