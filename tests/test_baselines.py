import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twseg import graph
from twseg.baselines import equal_split, finch, kmeans
from twseg.errors import InvalidValueError, NonFiniteError
from twseg.evaluate import evaluate_pair
from twseg.hierarchy import build_hierarchy
from twseg.refine import refine_to_k, segment, select_level
from twseg.synth import SynthSpec, generate
from twseg.types import FeatureSequence

from reference_impl import brute_force_components, first_neighbor_edges


class TestEqualSplit:
    def test_even_split(self):
        p = equal_split(10, 2)
        assert p.labels.tolist() == [0] * 5 + [1] * 5

    def test_remainder_first_rule(self):
        sizes = np.bincount(equal_split(10, 3).labels)
        assert sizes.tolist() == [4, 3, 3]

    def test_singleton_blocks(self):
        assert equal_split(3, 3).labels.tolist() == [0, 1, 2]

    def test_k_too_large(self):
        with pytest.raises(InvalidValueError, match="cannot split 3 frames into 4 blocks"):
            equal_split(3, 4)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
    def test_exactly_k_contiguous_runs(self, n, k):
        if k > n:
            return
        p = equal_split(n, k)
        runs = int(np.sum(np.diff(p.labels) != 0) + 1)
        assert runs == k == p.num_clusters
        sizes = np.bincount(p.labels)
        assert sizes.max() - sizes.min() <= 1
        assert np.all(np.diff(sizes) <= 0)  # longer blocks first


class TestKmeans:
    def test_separated_blobs_recovered(self):
        seq, gt = generate(SynthSpec(k=2, n=80, d=6, sep=12.0, seed=0, length_alpha=30.0))
        p = kmeans(seq, 2, seed=0)
        agreement = {}
        for got, want in zip(p.labels.tolist(), gt.labels.tolist()):
            assert agreement.setdefault(got, want) == want

    def test_k_one(self):
        seq, _ = generate(SynthSpec(k=2, n=30, seed=1))
        assert set(kmeans(seq, 1).labels.tolist()) == {0}

    def test_k_equal_n_zero_wcss(self):
        rng = np.random.default_rng(2)
        seq = FeatureSequence(rng.normal(size=(8, 3)))
        p = kmeans(seq, 8)
        assert p.num_clusters == 8

    def test_k_too_large(self):
        seq, _ = generate(SynthSpec(k=2, n=10, seed=0))
        with pytest.raises(InvalidValueError, match="k=11 exceeds 10 frames"):
            kmeans(seq, 11)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frame_rejected(self, bad):
        # A NaN once left every restart's objective NaN and returned one
        # cluster; an inf failed inside the kmeans++ seeding. Such a
        # sequence cannot reach kmeans: the constructor refuses it.
        frames = np.random.default_rng(4).normal(size=(20, 3))
        frames[7, 1] = bad
        with pytest.raises(NonFiniteError, match="row 7, col 1"):
            FeatureSequence(frames)

    def test_deterministic_given_seed(self):
        seq, _ = generate(SynthSpec(k=3, n=120, seed=5))
        a = kmeans(seq, 3, seed=9)
        b = kmeans(seq, 3, seed=9)
        assert np.array_equal(a.labels, b.labels)

    def test_objective_monotonicity_enforced_internally(self):
        # The per-iteration non-increase assertion lives inside _lloyd; a
        # normal run must never trip it.
        seq, _ = generate(SynthSpec(k=6, n=400, seed=7))
        kmeans(seq, 6, seed=3)


class TestFinch:
    def test_separated_blobs(self):
        seq, gt = generate(SynthSpec(k=2, n=100, d=8, sep=12.0, seed=3, length_alpha=30.0))
        p = finch(seq, 2).partition
        agreement = {}
        for got, want in zip(p.labels.tolist(), gt.labels.tolist()):
            assert agreement.setdefault(got, want) == want

    def test_k_one(self):
        seq, _ = generate(SynthSpec(k=2, n=40, seed=2))
        p = finch(seq, 1).partition
        assert set(p.labels.tolist()) == {0}

    def test_repeated_visual_class_merged_by_finch_separated_by_tw(self):
        margins = []
        for seed in range(5):
            seq, gt = generate(SynthSpec(
                k=3, n=600, repeat_pattern=("A", "B", "A"), seed=seed, length_alpha=8.0
            ))
            tw_mof = evaluate_pair(segment(seq, 3).partition, gt).mof
            fi_mof = evaluate_pair(finch(seq, 3).partition, gt).mof
            margins.append(tw_mof - fi_mof)
        assert np.mean(margins) > 0.10

    def test_configuration_equivalence_with_temporal_pipeline(self):
        # finch is the temporally-weighted pipeline with the time factor
        # off: the same hierarchy and final partition as its stages
        # assembled by hand with temporal=False.
        for seed in (0, 1):
            seq, _ = generate(SynthSpec(k=4, n=250, seed=seed))
            h = build_hierarchy(seq, temporal=False)
            level = select_level(h, 4)
            p, _ = refine_to_k(seq, level, 4, temporal=False)
            res = finch(seq, 4)
            assert h.cluster_counts == res.hierarchy.cluster_counts
            for a, b in zip(h.partitions, res.hierarchy.partitions):
                assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(p.labels, res.partition.labels)
            assert not res.fallback

    def test_shared_neighbor_links_do_not_change_components(self):
        # Nodes sharing a nearest neighbor are already connected through it,
        # so the extra links of the original first-neighbor relation leave
        # the connected components unchanged.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(40, 4))
            nn, _ = graph.nearest_neighbor_links(x, np.arange(1, 41), 40, temporal=False)
            plain = graph.components_of_links(nn)
            full = first_neighbor_edges(nn)
            with_shared = brute_force_components(40, [(a, b) for a, b in full if a < b])
            assert np.array_equal(plain.labels, with_shared.labels)
