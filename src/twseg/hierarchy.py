"""Recursive temporally-weighted partitioning into a nested hierarchy.

Level 1 comes from the connected components of the frame-level 1-NN graph.
Each further level summarizes the current clusters (means of the original
frames and of the original 1-based timestamps), rebuilds the weighted 1-NN
graph over those summaries, and composes the resulting cluster grouping back
onto frames. Recursion stops before the single-cluster level, which is kept
only if it is the very first partition.

A summary is one sparse product of the cluster-membership matrix with the
sequence's float64 view of its frames (``FeatureSequence.wide_frames``, built
once per sequence). Each cluster's sum adds its frames in frame order, so the
means are exactly those of a per-cluster loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import graph
from .errors import TooFewFramesError
from .types import (
    FeatureSequence,
    Partition,
    PartitionHierarchy,
    _freeze,
    validate_sequence,
)


@dataclass(frozen=True)
class LevelSummary:
    """Per-cluster means over the original frames of one hierarchy level."""

    means: np.ndarray
    mean_times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", _freeze(np.asarray(self.means, dtype=np.float64)))
        object.__setattr__(self, "mean_times", _freeze(np.asarray(self.mean_times, dtype=np.float64)))
        object.__setattr__(self, "sizes", _freeze(np.asarray(self.sizes, dtype=np.int64)))

    @property
    def num_clusters(self) -> int:
        return self.sizes.shape[0]


def summarize(seq: FeatureSequence, p: Partition) -> LevelSummary:
    """Average original frames and original timestamps per cluster.

    Always computed from the raw frames, never from previous-level means, so
    the averages are implicitly size-weighted. Accumulation is float64, each
    cluster's frames added in frame order starting from zero.
    """
    sizes = np.bincount(p.labels, minlength=p.num_clusters)
    means, mean_times = _member_means(seq, np.argsort(p.labels, kind="stable"),
                                      np.concatenate(([0], np.cumsum(sizes))))
    return LevelSummary(means, mean_times, sizes)


def _member_means(seq: FeatureSequence, members: np.ndarray,
                  bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row j: the mean frame and mean time of ``members[bounds[j]:bounds[j + 1]]``.

    One sparse 0/1 membership matrix multiplies the float64 frames and the
    timestamps. Its rows add their frames in the order listed, starting from
    zero; a numpy reduction would switch to pairwise summation on a single
    column.
    """
    m = sparse.csr_array((np.ones(members.size), members, bounds),
                         shape=(bounds.size - 1, seq.n))
    sizes = np.diff(bounds)
    return (m @ seq.wide_frames) / sizes[:, None], (m @ seq.timestamps) / sizes


def compose(p: Partition, grouping: Partition) -> Partition:
    """Apply a partition of clusters back onto frames."""
    return Partition(grouping.labels[p.labels])


def build_hierarchy(seq: FeatureSequence, *, temporal: bool = True) -> PartitionHierarchy:
    """Produce the nested partition hierarchy, coarsest last.

    ``temporal=False`` drops the time modulation and clusters on feature
    distances alone (the FINCH baseline).
    """
    validate_sequence(seq)
    if seq.n < 2:
        raise TooFewFramesError("hierarchy construction needs at least 2 frames")

    nn, _ = graph.nearest_neighbor_links(seq.wide_frames, seq.timestamps, seq.n,
                                         temporal=temporal)
    p = graph.components_of_links(nn)
    levels = [p]

    # Bounded by the first level's cluster count: every level at least halves.
    while p.num_clusters >= 2:
        summary = summarize(seq, p)
        nn, _ = graph.nearest_neighbor_links(
            summary.means, summary.mean_times, seq.n, temporal=temporal
        )
        grouping = graph.components_of_links(nn)
        if grouping.num_clusters == 1:
            break
        p = compose(p, grouping)
        levels.append(p)

    return PartitionHierarchy(tuple(levels))
