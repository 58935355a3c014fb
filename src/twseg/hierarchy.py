"""Recursive temporally-weighted partitioning into a nested hierarchy.

Level 1 comes from the connected components of the frame-level 1-NN graph.
Each further level summarizes the current clusters (means of the original
frames and of the original 1-based timestamps), rebuilds the weighted 1-NN
graph over those summaries, and composes the resulting cluster grouping back
onto frames. Recursion stops before the single-cluster level, which is kept
only if it is the very first partition.

A level is its partition, its summary and, from two clusters up, the 1-NN
links over its means. One step (``_next_level``) makes a level from the one
below and a grouping of its clusters: compose, coarsen, link. The build
groups by the components of the links; refinement (``refine``) groups by the
one minimal link, starting from the level the build made.

A summary holds float64 per-cluster sums, which add up under any grouping.
So only level 1 reads the frames: the frame-level 1-NN kernel and
``summarize``, each of which widens its float32 input a block at a time.
Every further level, like every refinement merge, adds its member clusters'
sums with the same ``_group_sums`` (``coarsen``). A sum
of float32 values, each a multiple of its own ulp, is exact in any order
while the column's member values span at most 29 - log2(size) octaves; the
means then equal a frame-order recompute's bit for bit. Wider columns may
differ in the last bits.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import graph
from .errors import InvalidValueError
from .types import FeatureSequence, Partition, PartitionHierarchy, _freeze, validate_sequence


@dataclass(frozen=True)
class LevelSummary:
    """Per-cluster sums of the original frames and times of one hierarchy level."""

    sums: np.ndarray
    time_sums: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sums", _freeze(np.asarray(self.sums, dtype=np.float64)))
        object.__setattr__(self, "time_sums", _freeze(np.asarray(self.time_sums, dtype=np.float64)))
        object.__setattr__(self, "sizes", _freeze(np.asarray(self.sizes, dtype=np.int64)))

    @property
    def num_clusters(self) -> int:
        return self.sizes.shape[0]

    @property
    def means(self) -> np.ndarray:
        return self.sums / self.sizes[:, None]

    @property
    def mean_times(self) -> np.ndarray:
        return self.time_sums / self.sizes

    def coarsen(self, grouping: Partition) -> LevelSummary:
        """The summary of the clusters ``grouping`` makes of these clusters."""
        g, c = grouping.labels, grouping.num_clusters
        times, sizes = np.bincount(g, self.time_sums, c), np.bincount(g, self.sizes, c)
        return LevelSummary(_group_sums(self.sums, g, c), times, sizes)


# Index entries per np.bincount call in _group_sums. 2**17 was fastest on d = 2048
# videos (2**19: +22%); at d = 64, 2**15 to 2**19 time alike (1 thread).
_BLOCK = 1 << 17


def _group_sums(x: np.ndarray, g: np.ndarray, c: int) -> np.ndarray:
    """The float64 sums of ``x``'s rows in each of the ``c`` groups ``g`` names.
    One flat ``np.bincount`` per block of columns (copied to float64 first, as
    bincount copies float32 or read-only weights) adds each group's rows in row
    order from zero, so ``-0.0`` sums to ``+0.0``; numpy reductions go pairwise."""
    n, d = x.shape
    w = max(1, min(d, _BLOCK // max(n, 1)))
    idx = (g[:, None] * w + np.arange(w)).ravel()
    out = np.empty((c, d))
    for lo in range(0, d, w):
        block = x[:, lo:lo + w].astype(np.float64)
        k = block.shape[1]
        if k < w:  # the last, narrower block
            idx = (g[:, None] * k + np.arange(k)).ravel()
        out[:, lo:lo + k] = np.bincount(idx, block.ravel(), c * k).reshape(c, k)
    return out


def summarize(seq: FeatureSequence, p: Partition) -> LevelSummary:
    """Sum the original frames and timestamps per cluster, each cluster's
    frames added in frame order starting from zero.

    The only summary that reads frames, straight from their float32 matrix;
    every coarser summary adds these sums (``LevelSummary.coarsen``).
    """
    g, c = p.labels, p.num_clusters
    return LevelSummary(_group_sums(seq.frames, g, c), np.bincount(g, seq.timestamps, c),
                        np.bincount(g, minlength=c))


def compose(p: Partition, grouping: Partition) -> Partition:
    """Apply a partition of ``p``'s clusters back onto frames."""
    if grouping.n != p.num_clusters:
        raise InvalidValueError(f"grouping of {grouping.n} labels for {p.num_clusters} clusters")
    return Partition._unchecked(grouping.labels[p.labels], grouping.num_clusters)


_Level = namedtuple("_Level", "partition summary nn link_w")


def _linked(p: Partition, s: LevelSummary, n_total: int, temporal: bool) -> _Level:
    """The level of ``p``, summarized by ``s``; no links below two clusters."""
    links = (graph.nearest_neighbor_links(s.means, s.mean_times, n_total, temporal=temporal)
             if s.num_clusters >= 2 else (None, None))
    return _Level(p, s, *links)


def _next_level(level: _Level, g: Partition, n_total: int, temporal: bool) -> _Level:
    """The level that grouping ``g`` makes of ``level``'s clusters: compose, coarsen, link."""
    return _linked(compose(level.partition, g), level.summary.coarsen(g), n_total, temporal)


def build_hierarchy(seq: FeatureSequence, *, temporal: bool = True) -> PartitionHierarchy:
    """Produce the nested partition hierarchy, coarsest last.

    ``temporal=False`` drops the time modulation and clusters on feature
    distances alone (the FINCH baseline).
    """
    validate_sequence(seq)
    if seq.n < 2:
        raise InvalidValueError("hierarchy construction needs at least 2 frames")

    nn, _ = graph.nearest_neighbor_links(seq.frames, seq.timestamps, seq.n, temporal=temporal)
    p = graph.components_of_links(nn)
    levels = [_linked(p, summarize(seq, p), seq.n, temporal)]

    # Bounded by the first level's cluster count: every level at least halves.
    while levels[-1].nn is not None:
        grouping = graph.components_of_links(levels[-1].nn)
        if grouping.num_clusters == 1:
            break
        levels.append(_next_level(levels[-1], grouping, seq.n, temporal))

    return PartitionHierarchy._unchecked(levels)
