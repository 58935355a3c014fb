"""Level selection and one-merge-at-a-time refinement down to K clusters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidValueError, KUnreachableError
from .hierarchy import _Level, _linked, _next_level, build_hierarchy, summarize
from .types import FeatureSequence, Partition, PartitionHierarchy, relabel_dense


@dataclass(frozen=True)
class RefinementTrace:
    """Audit trail of the pairwise merges performed by ``refine_to_k``.

    Each record is ``(cluster_a, cluster_b, w_value)`` in the labeling that
    was current at that step, with ``cluster_a < cluster_b``. At every step,
    the first included, the ids number the clusters in order of first frame.
    """

    start_level_clusters: int
    merges: tuple[tuple[int, int, float], ...] = ()


@dataclass(frozen=True)
class SegmentationResult:
    """Final partition plus provenance; ``fallback`` flags a K that was
    unreachable (the finest available partition is returned instead)."""

    partition: Partition
    requested_k: int
    fallback: bool
    hierarchy: PartitionHierarchy
    trace: RefinementTrace | None = None

    @property
    def k(self) -> int:
        return self.partition.num_clusters


def select_level(h: PartitionHierarchy, k: int) -> Partition:
    """The hierarchy partition with the smallest cluster count >= k."""
    if k < 1:
        raise InvalidValueError("k must be >= 1")
    for p in reversed(h.partitions):  # counts strictly decrease, coarsest last
        if p.num_clusters >= k:
            return p
    raise KUnreachableError(h.partitions[0].num_clusters)


def _min_link(nn: np.ndarray, link_w: np.ndarray) -> tuple[int, int, float]:
    """The symmetric 1-NN link with globally minimal weighted distance.

    The global minimum over all pairs is always attained on a 1-NN link, so
    the row minima of the link weights suffice. Ties break lexicographically
    on the (low id, high id) pair.
    """
    wmin = link_w.min()
    rows = np.flatnonzero(link_w == wmin)
    a, b = min((min(i, j), max(i, j)) for i, j in zip(rows.tolist(), nn[rows].tolist()))
    return a, b, float(wmin)


def refine_to_k(seq: FeatureSequence, p: Partition, k: int, *, temporal: bool = True,
                _start: _Level | None = None) -> tuple[Partition, RefinementTrace]:
    """Merge two clusters at a time until exactly ``k`` remain.

    Each step merges the single symmetric 1-NN link with minimal weighted
    distance between the cluster means, and makes the next level as a
    hierarchy step does: a merge adds the pair's sums, and the new level's
    1-NN links are computed over its means. So every step sees the means a
    full re-summary of the current partition would give, bit for bit within
    the exactness bound of the ``hierarchy`` module. The start is summarized
    from the original frames and linked once; ``segment`` hands over instead
    the level record (``_start``, for ``p``) the build already made. A start
    in another id order is first renumbered in order of first frame, and so
    is the result; with no merge to make, ``p`` comes back as it is.
    """
    if k < 1:
        raise InvalidValueError("k must be >= 1")
    if k > p.num_clusters:
        raise InvalidValueError(f"k={k} exceeds the {p.num_clusters} available clusters")

    start = p.num_clusters
    if start == k:
        return p, RefinementTrace(start, ())
    # Ids in order of first frame: the running maximum of the labels never
    # steps by more than one. Every hierarchy level already has them.
    if np.any(np.diff(np.maximum.accumulate(p.labels), prepend=-1) > 1):
        p = relabel_dense(p.labels)
    level = _start or _linked(p, summarize(seq, p), seq.n, temporal)
    merges: list[tuple[int, int, float]] = []
    for c in range(start, k, -1):
        a, b, w = _min_link(level.nn, level.link_w)
        merges.append((a, b, w))
        # b joins a and the ids above b shift down. As a < b, the merged
        # cluster keeps a's first frame, so the ids stay in first-frame order.
        ids = np.arange(c)
        g = Partition._unchecked(np.where(ids == b, a, ids - (ids > b)), c - 1)
        level = _next_level(level, g, seq.n, temporal)
    return level.partition, RefinementTrace(start, tuple(merges))


def segment(seq: FeatureSequence, k: int, *, temporal: bool = True) -> SegmentationResult:
    """Full pipeline: hierarchy, level selection, refinement to ``k``.

    ``temporal=False`` is the FINCH baseline: the same pipeline on feature
    distances alone. If no level has at least ``k`` clusters the finest
    partition is returned with ``fallback=True`` instead of aborting, so batch
    runs survive degenerate videos. Refinement starts from the selected
    level's summary and links as the build made them, so the frames are read
    once; the result keeps only the hierarchy's partitions.
    """
    h = build_hierarchy(seq, temporal=temporal)
    levels = vars(h).pop("_levels")  # the result keeps no level record
    try:
        level = select_level(h, k)
    except KUnreachableError:
        return SegmentationResult(h.finest, k, True, h)
    start = levels[h.cluster_counts.index(level.num_clusters)]
    del levels  # the other levels' summaries go before refinement
    p, trace = refine_to_k(seq, level, k, temporal=temporal, _start=start)
    return SegmentationResult(p, k, False, h, trace)
