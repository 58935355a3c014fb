import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twseg import graph
from twseg.errors import InvalidValueError, NonFiniteError

from reference_impl import (
    OneNnGraph,
    WeightedDistances,
    bitwise_equal,
    brute_force_components,
    feature_distances,
    one_nn_graph,
    reference_links,
    temporal_distances,
    weighted_distances,
)


def build_weighted(vectors, timestamps, n_total):
    gf = feature_distances(vectors)
    gt = temporal_distances(len(timestamps), timestamps, n_total)
    return weighted_distances(gf, gt, n_total)


class TestFeatureDistances:
    def test_identical_directions(self):
        d = feature_distances([(1.0, 0.0), (1.0, 0.0)])
        assert d[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        d = feature_distances([(1.0, 0.0), (0.0, 1.0)])
        assert d[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_45_degrees(self):
        d = feature_distances([(1.0, 0.0), (1.0, 1.0)])
        assert d[0, 1] == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-12)

    def test_diagonal_is_one(self):
        d = feature_distances(np.random.default_rng(0).normal(size=(5, 3)))
        assert np.all(np.diag(d) == 1.0)

    def test_zero_norm_vector_at_distance_one(self):
        d = feature_distances([(0.0, 0.0), (1.0, 0.0)])
        assert d[0, 1] == 1.0

    def test_negative_dot_products_not_clamped(self):
        d = feature_distances([(1.0, 0.0), (-1.0, 0.0)])
        assert d[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteError):
            feature_distances([(np.nan, 0.0), (1.0, 0.0)])

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_exactly(self, n, seed):
        x = np.random.default_rng(seed).normal(size=(n, 4))
        d = feature_distances(x)
        assert np.array_equal(d, d.T)
        assert np.isfinite(d).all()


class TestTemporalDistances:
    def test_simple_gap(self):
        d = temporal_distances(2, [1.0, 3.0], 10)
        assert d[0, 1] == pytest.approx(0.2)

    def test_coincident_times(self):
        d = temporal_distances(2, [1.0, 1.0], 10)
        assert d[0, 1] == 0.0

    def test_full_span(self):
        d = temporal_distances(2, [1.0, 10.0], 10)
        assert d[0, 1] == pytest.approx(0.9)

    def test_zero_normalizer_rejected(self):
        with pytest.raises(InvalidValueError, match="n_total must be positive"):
            temporal_distances(1, [1.0], 0)


class TestWeightedDistances:
    def test_product(self):
        gf = np.array([[1.0, 0.5], [0.5, 1.0]])
        gt = np.array([[1.0, 0.2], [0.2, 1.0]])
        w = weighted_distances(gf, gt, 10)
        assert w.w[0, 1] == pytest.approx(0.1)

    def test_zero_feature_distance_annihilates(self):
        gf = np.array([[1.0, 0.0], [0.0, 1.0]])
        gt = np.array([[1.0, 0.9], [0.9, 1.0]])
        assert weighted_distances(gf, gt, 10).w[0, 1] == 0.0

    def test_zero_time_distance_annihilates(self):
        gf = np.array([[1.0, 0.7], [0.7, 1.0]])
        gt = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert weighted_distances(gf, gt, 10).w[0, 1] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(InvalidValueError, match=r"shape mismatch: \(2, 2\) vs \(3, 3\)"):
            weighted_distances(np.ones((2, 2)), np.ones((3, 3)), 3)

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_unit_diagonal(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3))
        w = build_weighted(x, np.arange(1, n + 1), n)
        assert np.array_equal(w.w, w.w.T)
        assert np.all(np.diag(w.w) == 1.0)


class TestOneNnGraph:
    def test_argmin_and_symmetrized_edges(self):
        w = np.array([
            [1.0, 0.8, 0.2],
            [0.8, 1.0, 0.5],
            [0.2, 0.5, 1.0],
        ])
        g = one_nn_graph(WeightedDistances(w, 3))
        assert g.nn[0] == 2
        assert (0, 2) in g.edges and (2, 0) in g.edges

    def test_tie_break_lowest_index(self):
        w = np.full((4, 4), 0.5)
        np.fill_diagonal(w, 1.0)
        g = one_nn_graph(WeightedDistances(w, 4))
        assert g.nn.tolist() == [1, 0, 0, 0]

    def test_chain_forms_one_component(self):
        # A-B close, B-C close, A-C far.
        w = np.array([
            [1.0, 0.1, 0.9],
            [0.1, 1.0, 0.2],
            [0.9, 0.2, 1.0],
        ])
        g = one_nn_graph(WeightedDistances(w, 3))
        p = graph.components_of_links(g.nn)
        assert p.num_clusters == 1

    def test_too_few_nodes(self):
        with pytest.raises(InvalidValueError, match="at least 2 nodes"):
            one_nn_graph(WeightedDistances(np.array([[1.0]]), 1))

    @given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_edge_count_bounds(self, n, seed):
        rng = np.random.default_rng(seed)
        w = build_weighted(rng.normal(size=(n, 3)), np.arange(1, n + 1), n)
        g = one_nn_graph(w)
        assert n <= len(g.edges) <= 2 * n

    @given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_every_node_shares_component_with_its_nn(self, n, seed):
        rng = np.random.default_rng(seed)
        w = build_weighted(rng.normal(size=(n, 3)), np.arange(1, n + 1), n)
        g = one_nn_graph(w)
        labels = graph.components_of_links(g.nn).labels
        assert np.array_equal(labels, labels[g.nn])


class TestConnectedComponents:
    def test_chained_links_single_component(self):
        g = OneNnGraph(np.array([1, 0, 1]), frozenset({(0, 1), (1, 0), (2, 1), (1, 2)}))
        assert graph.components_of_links(g.nn).labels.tolist() == [0, 0, 0]

    def test_two_disjoint_pairs(self):
        g = OneNnGraph(
            np.array([1, 0, 3, 2]),
            frozenset({(0, 1), (1, 0), (2, 3), (3, 2)}),
        )
        assert graph.components_of_links(g.nn).labels.tolist() == [0, 0, 1, 1]

    def test_two_nodes_always_one_component(self):
        g = one_nn_graph(WeightedDistances(np.array([[1.0, 0.3], [0.3, 1.0]]), 2))
        assert graph.components_of_links(g.nn).labels.tolist() == [0, 0]

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_matches_bfs_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        nn = np.array([rng.choice([j for j in range(n) if j != i]) for i in range(n)])
        edges = frozenset((i, int(j)) for i, j in enumerate(nn)) | frozenset(
            (int(j), i) for i, j in enumerate(nn)
        )
        g = OneNnGraph(nn, edges)
        ours = graph.components_of_links(g.nn).labels
        oracle = brute_force_components(n, [(a, b) for a, b in edges if a < b]).labels
        assert np.array_equal(ours, oracle)


class TestBlockedLinks:
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_matches_matrix_path(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 5))
        times = np.arange(1, n + 1, dtype=float)
        w = build_weighted(x, times, n)
        expected = one_nn_graph(w)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_BLOCK_ROWS", 7)
            nn, link_w = graph.nearest_neighbor_links(x, times, n)
        assert np.array_equal(nn, expected.nn)
        masked = w.w.copy()
        np.fill_diagonal(masked, np.inf)
        assert np.allclose(link_w, masked[np.arange(n), expected.nn], rtol=1e-12, atol=1e-12)

    # Tiles of 8 columns in blocks of 4 rows: n = tile - 1, tile, tile + 1
    # and 2 * tile + 1, on the Toeplitz path, the general path and FINCH's.
    @pytest.mark.parametrize("kind", ["toeplitz", "general", "finch"])
    @pytest.mark.parametrize("n", [7, 8, 9, 17])
    def test_tile_edges_match_the_reference(self, n, kind):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_BLOCK_ROWS", 4)
            mp.setattr(graph, "_TILE_COLS", 8)
            assert len(graph._tile_bounds(n, 4)) - 1 == -(-n // 8)
            self.assert_ties_go_low_and_match_the_reference(n, kind, block_rows=4)

    def test_two_tiles_at_full_size(self):
        n = graph._TILE_COLS + 1
        assert len(graph._tile_bounds(n, graph._BLOCK_ROWS)) == 3
        for kind in ("toeplitz", "general", "finch"):
            self.assert_ties_go_low_and_match_the_reference(n, kind, block_rows=graph._BLOCK_ROWS)

    @staticmethod
    def assert_ties_go_low_and_match_the_reference(n, kind, *, block_rows):
        """Rows 1, 9 (past 10 rows) and n - 1 are one unit vector, in
        different tiles once there are several: their feature distance is
        exactly 0, so each ties among them and links to the lowest other."""
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 5))
        dups = [1] + ([9] if n > 10 else []) + [n - 1]
        x[dups] = [1.0, 0.0, 0.0, 0.0, 0.0]
        times, n_total = np.arange(1, n + 1, dtype=float), n
        if kind == "general":
            times = np.cumsum(rng.uniform(0.5, 4.0, size=n))
            n_total = int(np.ceil(times[-1])) + 1
        temporal = kind != "finch"
        nn, link_w = graph.nearest_neighbor_links(x, times, n_total, temporal=temporal)
        ref_nn, ref_w = reference_links(x, times, n_total, temporal=temporal,
                                        block_rows=block_rows)
        assert nn[dups].tolist() == [dups[1]] + [dups[0]] * (len(dups) - 1)
        assert np.array_equal(nn, ref_nn)
        # A one-column tile runs as a GEMV, whose sums may round differently.
        assert np.allclose(link_w, ref_w, rtol=1e-12, atol=0.0)

    def test_mismatched_timestamps_rejected(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        for count in (4, 6):
            with pytest.raises(InvalidValueError, match=f"{count} timestamps for 5 nodes"):
                graph.nearest_neighbor_links(x, np.arange(1.0, count + 1), 5)
        graph.nearest_neighbor_links(x, np.arange(1.0, 7), 5, temporal=False)

    def test_temporal_toggle_changes_the_winner(self):
        # Node 1 is feature-closest to node 0 but sits far away in time;
        # node 2 is feature-farther but temporally adjacent.
        x = np.array([[1.0, 0.0], [0.95, 0.312], [0.7, 0.714]])
        times = [1.0, 100.0, 2.0]
        nn_t, _ = graph.nearest_neighbor_links(x, times, 100)
        nn_f, _ = graph.nearest_neighbor_links(x, times, 100, temporal=False)
        assert nn_f[0] == 1
        assert nn_t[0] == 2


class TestKernelParity:
    """The production kernel equals the elementwise reference bit for bit."""

    @staticmethod
    def count_toeplitz(monkeypatch):
        calls = []
        real = graph._gap_windows
        monkeypatch.setattr(graph, "_gap_windows",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        return calls

    @given(st.integers(min_value=2, max_value=70), st.integers(min_value=0, max_value=300),
           st.sampled_from([1, 7, 13, 33]), st.sampled_from([1, 3]))
    @settings(max_examples=40, deadline=None)
    def test_frame_positions(self, n, seed, block_rows, stretch):
        x = np.random.default_rng(seed).normal(size=(n, 5))
        times = np.arange(1, n + 1, dtype=float)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_BLOCK_ROWS", block_rows)
            calls = self.count_toeplitz(mp)
            nn, link_w = graph.nearest_neighbor_links(x, times, stretch * n)
        ref_nn, ref_w = reference_links(x, times, stretch * n, block_rows=block_rows)
        assert len(calls) == 1  # the Toeplitz path ran
        assert bitwise_equal(nn, ref_nn) and bitwise_equal(link_w, ref_w)

    @given(st.integers(min_value=2, max_value=70), st.integers(min_value=0, max_value=300),
           st.sampled_from([1, 7, 13, 33]))
    @settings(max_examples=40, deadline=None)
    def test_mean_timestamps(self, n, seed, block_rows):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 5))
        # Cluster-mean times: increasing, mostly non-integer, within 1..N.
        times = np.cumsum(rng.uniform(0.5, 4.0, size=n))
        n_total = int(np.ceil(times[-1])) + 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_BLOCK_ROWS", block_rows)
            calls = self.count_toeplitz(mp)
            nn, link_w = graph.nearest_neighbor_links(x, times, n_total)
        ref_nn, ref_w = reference_links(x, times, n_total, block_rows=block_rows)
        assert calls == []  # the general path ran
        assert bitwise_equal(nn, ref_nn) and bitwise_equal(link_w, ref_w)

    def test_default_blocks_on_a_long_sequence(self):
        # Blocks of _BLOCK_ROWS rows at every length, the last one partial.
        for n in (700, 1100):
            x = np.random.default_rng(5).normal(size=(n, 16))
            times = np.arange(1, n + 1, dtype=float)
            nn, link_w = graph.nearest_neighbor_links(x, times, n)
            ref_nn, ref_w = reference_links(x, times, n, block_rows=graph._BLOCK_ROWS)
            assert bitwise_equal(nn, ref_nn) and bitwise_equal(link_w, ref_w)


class TestKernelMemory:
    def test_one_float64_copy_and_one_output_buffer(self):
        """The kernel holds one float64 copy of its input and one output
        buffer of at most _BLOCK_ROWS x _TILE_COLS; tracemalloc sees numpy's
        buffers. Three copies (widened, normalized, transposed) and the
        buffer would come to about 57 MB, 20 MB over the bound."""
        n, d = 4000, 512
        x = np.random.default_rng(0).normal(size=(n, d)).astype(np.float32)
        times = np.arange(1, n + 1, dtype=float)
        tracemalloc.start()
        try:
            graph.nearest_neighbor_links(x, times, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        copy = n * d * 8
        out = graph._BLOCK_ROWS * min(n, graph._TILE_COLS) * 8
        assert peak < copy + 2 * out + (4 << 20)

    def test_long_sequence_peak(self):
        """At 8,000 x 64 the output buffer sets the kernel's peak: 128-row
        blocks hold 7.8 MiB of it beside the 3.9 MiB copy, 12.1 MiB in all;
        256-row blocks came to 20.0 MiB."""
        n, d = 8000, 64
        x = np.random.default_rng(0).normal(size=(n, d)).astype(np.float32)
        times = np.arange(1, n + 1, dtype=float)
        tracemalloc.start()
        try:
            graph.nearest_neighbor_links(x, times, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13 << 20
