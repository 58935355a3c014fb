import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twseg import graph, hierarchy, refine
from twseg.errors import InvalidValueError
from twseg.hierarchy import build_hierarchy, compose, summarize
from twseg.synth import SynthSpec, generate
from twseg.types import FeatureSequence, Partition, relabel_dense

from reference_impl import (bitwise_equal, reference_group_sums, reference_summary,
                            summaries_equal)
from tests_support import suite_spec


def assert_nested(h):
    for fine, coarse in zip(h.partitions, h.partitions[1:]):
        assert coarse.num_clusters < fine.num_clusters
        mapping = {}
        for f, c in zip(fine.labels.tolist(), coarse.labels.tolist()):
            assert mapping.setdefault(f, c) == c


class TestSummarize:
    def test_two_cluster_means(self):
        seq = FeatureSequence(np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 4.0]]))
        s = summarize(seq, Partition(np.array([0, 0, 1])))
        assert np.allclose(s.means, [[1.0, 0.0], [4.0, 4.0]])
        assert np.allclose(s.mean_times, [1.5, 3.0])
        assert s.sizes.tolist() == [2, 1]

    def test_single_cluster_full_average(self):
        rng = np.random.default_rng(3)
        seq = FeatureSequence(rng.normal(size=(7, 4)))
        s = summarize(seq, Partition(np.zeros(7, dtype=int)))
        assert np.allclose(s.means[0], seq.frames.astype(np.float64).mean(axis=0))
        assert s.mean_times[0] == pytest.approx((7 + 1) / 2)

    def test_all_distinct_is_identity(self):
        rng = np.random.default_rng(4)
        seq = FeatureSequence(rng.normal(size=(5, 3)))
        s = summarize(seq, Partition(np.arange(5)))
        assert np.allclose(s.means, seq.frames.astype(np.float64))
        assert np.allclose(s.mean_times, np.arange(1, 6))

    def test_sizes_sum_to_n_and_times_in_range(self):
        seq, _ = generate(SynthSpec(k=3, n=120, seed=9))
        p = Partition(np.repeat([0, 1, 2, 3], 30))
        s = summarize(seq, p)
        assert s.sizes.sum() == seq.n
        assert np.all((s.mean_times >= 1) & (s.mean_times <= seq.n))


class TestSummaryParity:
    """summarize equals the per-column bincount reference bit for bit."""

    @given(st.integers(min_value=1, max_value=80), st.sampled_from([1, 2, 7, 64]),
           st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_random_partitions(self, n, d, c, seed):
        rng = np.random.default_rng(seed)
        # Magnitudes spread over many octaves so that any change of summation
        # order shows in the last bits; some exact -0.0 entries as well.
        frames = rng.normal(size=(n, d)) * np.exp2(rng.integers(-20, 20, size=(n, d)))
        frames[rng.random((n, d)) < 0.1] = -0.0
        seq = FeatureSequence(frames)
        p = relabel_dense(rng.integers(0, c, size=n))
        ref = reference_summary(seq, p)
        assert summaries_equal(summarize(seq, p), ref)

    def test_hierarchy_levels(self, monkeypatch):
        seq, _ = generate(SynthSpec(k=6, n=900, seed=12))
        seen = []
        real = graph.nearest_neighbor_links

        def spy(x, t, n_total, **kwargs):
            seen.append((x, t))
            return real(x, t, n_total, **kwargs)

        monkeypatch.setattr(graph, "nearest_neighbor_links", spy)
        levels = build_hierarchy(seq).partitions
        for p in levels:
            assert summaries_equal(summarize(seq, p), reference_summary(seq, p))
        # After the frame-level call, the kernel gets each level's summary,
        # coarsened from the one below, as a frame-order recompute gives it.
        assert len(seen) == 1 + len(levels)
        for (means, mean_times), p in zip(seen[1:], levels):
            ref = reference_summary(seq, p)
            assert bitwise_equal(means, ref.means) and bitwise_equal(mean_times, ref.mean_times)

    @given(st.integers(min_value=1, max_value=80), st.sampled_from([1, 2, 7, 64]),
           st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_coarsened_sums_within_rounding_on_40_octaves(self, n, d, c, seed):
        # Past the exactness bound (the hierarchy module's docstring), sums of
        # cluster sums may differ from frame-order sums, but only by rounding:
        # two summation orders of the same terms each err by at most
        # (n - 1) * 2**-53 * sum(|x|).
        rng = np.random.default_rng(seed)
        frames = rng.normal(size=(n, d)) * np.exp2(rng.integers(-20, 20, size=(n, d)))
        seq = FeatureSequence(frames)
        fine = relabel_dense(rng.integers(0, c, size=n))
        g = relabel_dense(rng.integers(0, max(1, fine.num_clusters // 2), size=fine.num_clusters))
        got = summarize(seq, fine).coarsen(g)
        want = summarize(seq, compose(fine, g))
        magnitude = summarize(FeatureSequence(np.abs(seq.frames)), compose(fine, g)).sums
        assert np.all(np.abs(got.sums - want.sums) <= n * 2.0**-52 * magnitude)
        assert bitwise_equal(got.time_sums, want.time_sums)
        assert bitwise_equal(got.sizes, want.sizes)


class TestGroupSums:
    """``_group_sums`` against the per-column oracle, one block of columns or many."""

    @pytest.mark.parametrize("block", [1, 10, 64, 1 << 30])
    @pytest.mark.parametrize("n, d", [(1, 1), (5, 7), (37, 13), (200, 3)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_per_column_oracle(self, monkeypatch, block, n, d, dtype):
        # With n = 5 and a block of 10 index entries, the columns go in
        # blocks of 2, 2, 2 and 1.
        monkeypatch.setattr(hierarchy, "_BLOCK", block)
        rng = np.random.default_rng(n * d)
        x = (rng.normal(size=(n, d)) * np.exp2(rng.integers(-20, 20, size=(n, d)))).astype(dtype)
        x[rng.random((n, d)) < 0.2] = -0.0
        x[:, 0] = -0.0
        x.flags.writeable = False  # as LevelSummary holds its sums
        groupings = [np.arange(n), np.zeros(n, dtype=np.int64),
                     relabel_dense(rng.integers(0, max(1, n // 3), size=n)).labels]
        for g in groupings:  # singletons, one group, a mix
            c = int(g.max()) + 1
            got = hierarchy._group_sums(x, g, c)
            assert bitwise_equal(got, reference_group_sums(x, g, c))
            assert not np.signbit(got[:, 0]).any()  # -0.0 sums to +0.0

    def test_summary_of_many_column_blocks(self, monkeypatch):
        monkeypatch.setattr(hierarchy, "_BLOCK", 1000)
        seq, _ = generate(SynthSpec(k=4, n=300, d=40, seed=3))
        for p in build_hierarchy(seq).partitions:
            assert summaries_equal(summarize(seq, p), reference_summary(seq, p))

    def test_summarize_makes_no_float64_copy_of_the_frames(self):
        """tracemalloc sees numpy's buffers: the peak stays below the size
        of the frames widened to float64."""
        n, d = 3000, 512
        seq = FeatureSequence(np.random.default_rng(0).normal(size=(n, d)))
        p = relabel_dense(np.arange(n) // 10)
        tracemalloc.start()
        try:
            summarize(seq, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8


class TestBuildHierarchy:
    def test_two_separated_blocks_recovered(self):
        seq, gt = generate(SynthSpec(k=2, n=100, d=8, sep=10.0, seed=0, length_alpha=30.0))
        h = build_hierarchy(seq)
        final = h.partitions[-1]
        assert final.num_clusters == 2
        # Perfect agreement with the planted blocks up to relabeling.
        agreement = {}
        for got, want in zip(final.labels.tolist(), gt.labels.tolist()):
            assert agreement.setdefault(got, want) == want

    def test_nestedness_and_decreasing_counts(self):
        for seed in range(5):
            seq, _ = generate(SynthSpec(k=5, n=300, seed=seed))
            assert_nested(build_hierarchy(seq))

    def test_two_frames_single_degenerate_level(self):
        seq = FeatureSequence(np.array([[1.0, 0.0], [0.0, 1.0]]))
        h = build_hierarchy(seq)
        assert h.cluster_counts == (1,)
        assert h.partitions[0].labels.tolist() == [0, 0]

    def test_one_frame_rejected(self):
        with pytest.raises(InvalidValueError, match="at least 2 frames"):
            build_hierarchy(FeatureSequence(np.ones((1, 3))))

    def test_deterministic(self):
        seq, _ = generate(SynthSpec(k=4, n=200, seed=7))
        a = build_hierarchy(seq)
        b = build_hierarchy(seq)
        assert a.cluster_counts == b.cluster_counts
        for pa, pb in zip(a.partitions, b.partitions):
            assert np.array_equal(pa.labels, pb.labels)

    @pytest.mark.parametrize("temporal", [True, False], ids=["twfinch", "finch"])
    def test_levels_in_first_frame_order(self, temporal):
        # refine_to_k renumbers its start in first-frame order; on a level
        # that renumbering must change nothing.
        for seed in range(50):
            for repeated in (False, True):
                seq, _ = generate(suite_spec(seed, repeated))
                for level in build_hierarchy(seq, temporal=temporal).partitions:
                    assert np.array_equal(relabel_dense(level.labels).labels, level.labels)

    def test_frames_summarized_once_per_build_and_refinement(self, monkeypatch):
        seq, _ = generate(SynthSpec(k=6, n=900, seed=12))
        calls = []
        real = hierarchy.summarize

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hierarchy, "summarize", spy)
        monkeypatch.setattr(refine, "summarize", spy)
        h = build_hierarchy(seq)
        assert len(h.partitions) >= 3 and len(calls) == 1
        level = h.partitions[0]
        _, trace = refine.refine_to_k(seq, level, 2)
        assert len(trace.merges) == level.num_clusters - 2 and len(calls) == 2
        # segment hands refinement the level the build summarized.
        res = refine.segment(seq, 2)
        assert len(res.trace.merges) > 0 and len(calls) == 3

    def test_terminates_within_first_level_count(self):
        seq, _ = generate(SynthSpec(k=6, n=500, seed=11))
        h = build_hierarchy(seq)
        assert len(h.partitions) <= h.partitions[0].num_clusters


class TestCompose:
    def test_applies_grouping_to_frames(self):
        p = Partition(np.array([0, 0, 1, 2, 2]))
        grouping = Partition(np.array([0, 0, 1]))
        assert compose(p, grouping).labels.tolist() == [0, 0, 0, 1, 1]

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 1, 2]], ids=["short", "long"])
    def test_grouping_must_label_every_cluster_once(self, labels):
        # A longer grouping could leave an id unused, so no partition is made.
        p = Partition(np.array([0, 0, 1, 2, 2]))
        with pytest.raises(InvalidValueError, match="grouping of"):
            compose(p, Partition(np.array(labels)))
