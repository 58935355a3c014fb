import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twseg.errors import InvalidValueError, NonFiniteError
from twseg.types import (
    FeatureSequence,
    GroundTruth,
    Partition,
    PartitionHierarchy,
    relabel_dense,
)


class TestValidateSequence:
    """FeatureSequence checks its invariants at construction: a nonempty
    matrix of values that are finite as float32."""

    def test_finite_matrix_is_ok(self):
        assert FeatureSequence(np.ones((3, 2))).n == 3

    def test_zero_rows_rejected(self):
        with pytest.raises(InvalidValueError, match="^sequence: 0x2 matrix"):
            FeatureSequence(np.empty((0, 2)))
        with pytest.raises(InvalidValueError, match="^v7: 0x2 matrix"):
            FeatureSequence(np.empty((0, 2)), video_id="v7")

    def test_zero_columns_rejected(self):
        with pytest.raises(InvalidValueError, match="^sequence: 3x0 matrix"):
            FeatureSequence(np.empty((3, 0)))

    def test_nan_reports_position(self):
        frames = np.ones((3, 2))
        frames[1, 0] = np.nan
        with pytest.raises(NonFiniteError) as err:
            FeatureSequence(frames)
        assert (err.value.row, err.value.col) == (1, 0)

    def test_float32_overflow_rejected(self):
        # 1e39 is finite as float64 but past float32's range: inf after the
        # cast, reported by the finiteness check and not as numpy's warning.
        frames = np.ones((2, 3))
        frames[0, 2] = 1e39
        with warnings.catch_warnings(), pytest.raises(NonFiniteError) as err:
            warnings.simplefilter("error")
            FeatureSequence(frames)
        assert (err.value.row, err.value.col) == (0, 2)

    def test_frames_stored_float32_and_readonly(self):
        seq = FeatureSequence(np.ones((2, 2), dtype=np.float64))
        assert seq.frames.dtype == np.float32
        with pytest.raises(ValueError):
            seq.frames[0, 0] = 3.0

    def test_timestamps_are_one_based(self):
        seq = FeatureSequence(np.ones((4, 1)))
        assert seq.timestamps.tolist() == [1.0, 2.0, 3.0, 4.0]


class TestRelabelDense:
    def test_first_occurrence_order(self):
        p = relabel_dense([5, 5, 9, 5, 2])
        assert p.labels.tolist() == [0, 0, 1, 0, 2]
        assert p.num_clusters == 3

    def test_singleton(self):
        p = relabel_dense([0])
        assert p.labels.tolist() == [0]
        assert p.num_clusters == 1

    def test_order_by_first_occurrence_not_value(self):
        p = relabel_dense([1, 0, 1])
        assert p.labels.tolist() == [0, 1, 0]
        assert p.num_clusters == 2

    def test_empty_rejected(self):
        with pytest.raises(InvalidValueError, match="cannot relabel an empty assignment"):
            relabel_dense([])

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=60))
    def test_idempotent(self, raw):
        once = relabel_dense(raw)
        twice = relabel_dense(once.labels)
        assert np.array_equal(once.labels, twice.labels)

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=60))
    def test_output_is_dense(self, raw):
        p = relabel_dense(raw)
        assert set(p.labels.tolist()) == set(range(p.num_clusters))


class TestPartition:
    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 2]))

    def test_id_past_length_rejected(self):
        with pytest.raises(ValueError, match="dense"):
            Partition(np.array([0, 10**12]))

    def test_num_clusters_derived(self):
        assert Partition(np.array([0, 1, 1, 2])).num_clusters == 3


class TestPartitionHierarchy:
    def test_counts_must_strictly_decrease(self):
        p = Partition(np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            PartitionHierarchy((p, p))

    def test_coarsening_enforced(self):
        fine = Partition(np.array([0, 0, 1, 1]))
        not_coarser = Partition(np.array([0, 1, 0, 0]))  # splits fine cluster 0
        with pytest.raises(ValueError):
            PartitionHierarchy((fine, not_coarser))

    def test_valid_chain(self):
        h = PartitionHierarchy((
            Partition(np.array([0, 1, 2, 3])),
            Partition(np.array([0, 0, 1, 1])),
            Partition(np.array([0, 0, 0, 0])),
        ))
        assert h.cluster_counts == (4, 2, 1)


class TestGroundTruth:
    def test_interning_first_occurrence(self):
        gt = GroundTruth.from_tokens(["pour", "SIL", "pour"], background_label="SIL")
        assert gt.label_names == ("pour", "SIL")
        assert gt.labels.tolist() == [0, 1, 0]
        assert gt.background_id == 1

    def test_background_absent(self):
        gt = GroundTruth.from_tokens(["a", "b"], background_label="SIL")
        assert gt.background_id is None

    def test_distinct_count_background_toggle(self):
        gt = GroundTruth.from_tokens(["SIL", "a", "b", "SIL"], background_label="SIL")
        assert gt.distinct_count(include_background=True) == 3
        assert gt.distinct_count(include_background=False) == 2
