"""Segmentation metrics under optimal one-to-one label matching.

Predicted cluster ids are matched to ground-truth labels by maximizing total
frame overlap (Hungarian assignment); the frame metrics are then read from
the overlap matrix under that mapping. The matching is solved in-house by
the shortest augmenting path algorithm for rectangular assignment (Crouse,
"On implementing 2D rectangular assignment algorithms", IEEE TAES 2016), a
step-for-step port of the solver behind SciPy's
``linear_sum_assignment(..., maximize=True)``. Among several optimal
matchings it returns the one SciPy returns: the same scan order over the
columns, and on a tie in path cost the column that is still unassigned.
IoU, F1 and the midpoint metrics depend on which optimum is picked.

The overlap matrix is a plain read-only int64 (P, G) array of frame counts,
and a label array's maximal runs are a run table: three int64 arrays
``(labels, starts, ends)``. The segment metrics read two run tables.
Background counts as an ordinary label; the background removal protocol is
expressed separately via ``filter_background``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidValueError
from .types import EvalReport, FeatureSequence, GroundTruth, Partition, _freeze


def segments_from_labels(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A nonempty label array's maximal runs as a run table ``(labels, starts,
    ends)``: three int64 arrays, one entry per run, ``ends`` inclusive."""
    labels = np.asarray(labels, dtype=np.int64)
    new_run = np.ones(labels.size, dtype=bool)
    new_run[1:] = labels[1:] != labels[:-1]
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:] - 1, labels.size - 1)
    return labels[starts], starts, ends


def overlap_matrix(pred: Partition, gt: GroundTruth,
                   num_pred: int | None = None,
                   num_gt: int | None = None) -> np.ndarray:
    """Frame co-occurrence counts: entry (c, g) is the number of frames in
    predicted cluster c with ground-truth label g."""
    if pred.n != gt.n:
        raise InvalidValueError(f"{pred.n} predicted frames vs {gt.n} ground-truth frames")
    p = num_pred if num_pred is not None else pred.num_clusters
    g = num_gt if num_gt is not None else gt.num_labels
    return _freeze(np.bincount(pred.labels * g + gt.labels, minlength=p * g).reshape(p, g))


def hungarian_match(counts: np.ndarray) -> dict[int, int]:
    """Maximum-total-overlap one-to-one assignment of clusters to labels.

    Only labels with frames take part, so labels that a shared label table
    carries but the video never uses cannot claim a spare cluster.
    Rectangular matrices are handled directly: only min(P, G) pairs are
    assigned, and unmatched predicted clusters are simply absent from the
    mapping (their frames count as errors downstream).
    """
    present = np.flatnonzero(counts.sum(axis=0))
    rows, cols = _max_weight_assignment(counts[:, present])
    return {r: int(present[c]) for r, c in zip(rows, cols)}


def _max_weight_assignment(weights: np.ndarray) -> tuple[list[int], list[int]]:
    """The ``(rows, cols)`` of a maximum-weight assignment of a finite (P, G)
    matrix's rows to its columns, ``min(P, G)`` pairs in ascending row order,
    exactly as SciPy's ``linear_sum_assignment(weights, maximize=True)``.

    Costs are the negated weights as float64. A tall matrix is solved
    transposed. Each row in turn grows one shortest augmenting path (Crouse
    2016, Algorithm 1), with the duals ``u``, ``v`` updated and the path
    flipped as SciPy's ``rectangular_lsap.cpp`` does, operation for
    operation, so ties resolve the same way.
    """
    nr, nc = weights.shape
    if nr == 0 or nc == 0:
        return [], []
    transpose = nc < nr
    if transpose:
        weights, nr, nc = weights.T, nc, nr
    cost = (-np.asarray(weights, dtype=np.float64)).tolist()
    u, v = [0.0] * nr, [0.0] * nc
    path, row4col, col4row = [-1] * nc, [-1] * nc, [-1] * nr
    for cur in range(nr):
        # Dijkstra from row ``cur`` over reduced costs, until a free column.
        # The columns are scanned from the last one down (so a constant
        # matrix gives the identity), and a settled column is swap-removed.
        remaining = list(range(nc - 1, -1, -1))
        shortest = [math.inf] * nc
        rows_seen, cols_seen = [cur], []
        min_val, i = 0.0, cur
        while True:
            index, lowest = -1, math.inf
            row, u_i = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # On a tie, a column that ends the path wins.
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
            rows_seen.append(i)
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for c in cols_seen:
            v[c] -= min_val - shortest[c]
        while True:  # flip the path, from its free column back to ``cur``
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:  # back to the input's rows, in ascending order
        order = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[t] for t in order], order
    return list(range(nr)), col4row


def _mapping_arrays(mapping: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The mapping's clusters and labels as index arrays, in mapping order."""
    return (np.fromiter(mapping.keys(), np.int64, len(mapping)),
            np.fromiter(mapping.values(), np.int64, len(mapping)))


def _mapped_pairs(ov: np.ndarray, mapping: dict[int, int]) -> tuple[np.ndarray, ...]:
    """The mapping's clusters and labels, and the overlap of each pair."""
    rows, cols = _mapping_arrays(mapping)
    return rows, cols, ov[rows, cols]


def mof(ov: np.ndarray, mapping: dict[int, int]) -> float:
    """Fraction of frames whose mapped cluster equals the ground truth."""
    _, _, inter = _mapped_pairs(ov, mapping)
    return int(inter.sum()) / int(ov.sum())


def iou(ov: np.ndarray, mapping: dict[int, int]) -> float:
    """Mean Jaccard index over ground-truth labels.

    Matched pairs contribute |intersection| / |union|; ground-truth labels
    without a matched cluster contribute 0. The mean is over the gt labels
    present in the video. Under a pooled mapping the matrix is padded to the
    mapping's shape (``evaluate_pair``): a mapped cluster absent from the
    video adds no frames, and a label whose mapped cluster is absent scores 0.
    """
    rows, cols, inter = _mapped_pairs(ov, mapping)
    gt_sizes = ov.sum(axis=0)
    union = ov.sum(axis=1)[rows] + gt_sizes[cols] - inter
    ratios = inter[union > 0] / union[union > 0]
    # Summed one ratio after another in mapping order, as cumsum does;
    # np.sum adds pairwise past 8 terms, which can move the last bit.
    total = np.cumsum(ratios)[-1] if ratios.size else 0.0
    # Average over labels present in this video (the interned table may be
    # shared across videos and carry labels this video never uses).
    return total / np.count_nonzero(gt_sizes)


def f1(ov: np.ndarray, mapping: dict[int, int], average: str = "micro") -> float:
    """Harmonic mean of matched-label precision and recall.

    micro: precision pools intersections over the frames of matched clusters;
    recall pools over all ground-truth frames (unmatched gt labels contribute
    their frame counts to the denominator). macro: mean over the gt labels
    present in the video of the per-label F1, unmatched labels scoring 0.
    On a matrix padded to a pooled mapping's shape, a mapped cluster absent
    from the video adds no frames to precision's denominator, and a label
    whose mapped cluster is absent scores 0.
    """
    rows, cols, inter = _mapped_pairs(ov, mapping)
    pred_sizes = ov.sum(axis=1)[rows]
    gt_sizes = ov.sum(axis=0)
    if average == "micro":
        hits, pred_total = int(inter.sum()), int(pred_sizes.sum())
        precision = hits / pred_total if pred_total else 0.0
        recall = hits / int(gt_sizes.sum())
        if precision + recall == 0.0:
            return 0.0
        return 2.0 * precision * recall / (precision + recall)
    if average == "macro":
        hit = inter > 0  # a pair with overlap has frames on both sides; any other scores 0
        p, r = inter[hit] / pred_sizes[hit], inter[hit] / gt_sizes[cols[hit]]
        label_f1 = np.zeros(gt_sizes.size)
        label_f1[cols[hit]] = 2.0 * p * r / (p + r)
        return float(np.mean(label_f1[gt_sizes > 0]))
    raise InvalidValueError(f"unknown F1 average {average!r}")


def midpoint_hit(pred_runs: tuple[np.ndarray, ...], gt_runs: tuple[np.ndarray, ...],
                 mapping: dict[int, int]) -> tuple[float, float]:
    """Midpoint-hit precision and recall over two run tables.

    A predicted run hits if its floor midpoint ``(start + end) // 2`` lies
    inside a ground-truth run of the mapped label; each ground-truth run can
    be claimed at most once. The ground-truth runs are disjoint, so at most
    one holds a given midpoint, and the hits are the distinct runs hit.
    """
    pred_labels, pred_starts, pred_ends = pred_runs
    gt_labels, gt_starts, gt_ends = gt_runs
    rows, cols = _mapping_arrays(mapping)
    target = np.full(max([int(pred_labels.max()), *mapping]) + 1, -1, dtype=np.int64)
    target[rows] = cols  # -1 marks an unmapped cluster, which hits nothing
    mids = (pred_starts + pred_ends) // 2
    run = np.searchsorted(gt_starts, mids, side="right") - 1
    # run == -1 (a midpoint before the first run) reads the last run, then is masked out.
    hit = (run >= 0) & (mids <= gt_ends[run]) & (gt_labels[run] == target[pred_labels])
    hits = np.unique(run[hit]).size
    return hits / pred_labels.size, hits / gt_labels.size


def purity(ov: np.ndarray) -> float:
    """Size-weighted majority-label purity (no matching involved)."""
    return float(ov.max(axis=1).sum() / ov.sum())


def background_keep_indices(gt: GroundTruth, tau: float, seed: int) -> np.ndarray:
    """Original indices surviving removal of floor(tau * #background) frames.

    Removed background frames are chosen uniformly at random under ``seed``;
    survivors keep their original order. A no-op when the video has no
    background frames.
    """
    if not 0.0 <= tau <= 1.0:
        raise InvalidValueError("tau must lie in [0, 1]")
    if seed < 0:
        raise InvalidValueError(f"seed must be >= 0, got {seed}")
    bg = gt.background_id
    if bg is None:
        return np.arange(gt.n)
    bg_positions = np.flatnonzero(gt.labels == bg)
    n_remove = int(np.floor(tau * bg_positions.size))
    rng = np.random.default_rng(seed)
    removed = rng.choice(bg_positions, size=n_remove, replace=False)
    mask = np.ones(gt.n, dtype=bool)
    mask[removed] = False
    return np.flatnonzero(mask)


def filter_background(seq: FeatureSequence, gt: GroundTruth, tau: float,
                      seed: int) -> tuple[FeatureSequence, GroundTruth, np.ndarray]:
    """Remove a ratio ``tau`` of the background frames from a video.

    Returns the filtered sequence and ground truth plus the original-index
    map for the survivors. Deterministic for a fixed seed.
    """
    keep = background_keep_indices(gt, tau, seed)
    filtered_seq = FeatureSequence(seq.frames[keep], seq.video_id)
    filtered_gt = GroundTruth(gt.labels[keep], gt.label_names, gt.background_label)
    return filtered_seq, filtered_gt, keep


def evaluate_pair(pred: Partition, gt: GroundTruth,
                  mapping: dict[int, int] | None = None,
                  f1_average: str = "micro") -> EvalReport:
    """All metrics for one video; computes the per-video matching if none given.

    The overlap matrix is built once and every metric is read from it. A
    given mapping (say, pooled over an activity by ``match_across_videos``)
    may name clusters or labels this video lacks; the matrix is padded with
    empty rows and columns to cover them.
    """
    num_pred, num_gt = pred.num_clusters, gt.num_labels
    if mapping:
        num_pred = max(num_pred, max(mapping) + 1)
        num_gt = max(num_gt, max(mapping.values()) + 1)
    ov = overlap_matrix(pred, gt, num_pred, num_gt)
    if mapping is None:
        mapping = hungarian_match(ov)
    mid_p, mid_r = midpoint_hit(
        segments_from_labels(pred.labels), segments_from_labels(gt.labels), mapping
    )
    return EvalReport(
        mof=mof(ov, mapping),
        iou=iou(ov, mapping),
        f1=f1(ov, mapping, f1_average),
        midpoint_precision=mid_p,
        midpoint_recall=mid_r,
        purity=purity(ov),
        mapping=dict(mapping),
        n_frames=pred.n,
    )


def match_across_videos(pairs: list[tuple[Partition, GroundTruth]]) -> dict[int, int]:
    """One Hungarian matching over the pooled overlaps of several videos.

    Cluster id j is treated as the same label in every video; ground truths
    must share one interned label table (load them with a common table).
    """
    if not pairs:
        raise InvalidValueError("no videos to match")
    num_pred = max(p.num_clusters for p, _ in pairs)
    num_gt = max(g.num_labels for _, g in pairs)
    pooled = np.zeros((num_pred, num_gt), dtype=np.int64)
    for p, g in pairs:
        pooled += overlap_matrix(p, g, num_pred=num_pred, num_gt=num_gt)
    return hungarian_match(pooled)


def aggregate(reports: list[EvalReport], mode: str = "video") -> EvalReport:
    """Combine per-video reports: unweighted mean or frame-count-weighted mean."""
    if not reports:
        raise InvalidValueError("nothing to aggregate")
    if mode == "video":
        weights = np.ones(len(reports))
    elif mode == "frame":
        weights = np.array([r.n_frames for r in reports], dtype=np.float64)
    else:
        raise InvalidValueError(f"unknown aggregation mode {mode!r}")
    weights = weights / weights.sum()

    def avg(name: str) -> float:
        return float(sum(w * getattr(r, name) for w, r in zip(weights, reports)))

    return EvalReport(
        **{name: avg(name) for name in EvalReport.SCORES},
        mapping={},
        n_frames=sum(r.n_frames for r in reports),
    )
