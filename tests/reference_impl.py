"""Reference implementations and oracles the production code is checked against.

``reference_links`` is the row-blocked 1-NN kernel with the temporal factor
built elementwise for every block; ``reference_summary`` sums each cluster
with one weighted ``bincount`` per feature column (``reference_group_sums``).
Both accumulate in the order in which the production code reads the frames,
so results compare with exact equality, not a tolerance.

``loop_mof``, ``loop_iou`` and ``loop_f1`` read the matched metrics one
mapped pair at a time, in mapping order, as the production code once did;
``loop_midpoint_hit`` scans every ground-truth run for each predicted run's
midpoint and claims runs greedily in temporal order.

The dense path (``feature_distances``, ``temporal_distances``,
``weighted_distances``, ``one_nn_graph``) builds the full weighted distance
matrix and its 1-NN graph. ``reference_segment`` states the whole pipeline
on it, as the paper and FINCH do: dense weights, components by BFS, means
recomputed from the frames for every partition, one merge at a time. ``brute_force_assignment`` and
``brute_force_components`` solve the matching and the component labeling by
exhaustive search, and ``first_neighbor_edges`` lists FINCH's full
first-neighbor relation.
"""

from collections import deque
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from twseg.errors import InvalidValueError, NonFiniteError
from twseg.graph import l2_normalize
from twseg.hierarchy import LevelSummary
from twseg.types import Partition, _freeze


@dataclass(frozen=True)
class WeightedDistances:
    """Symmetric matrix of temporally-weighted distances with unit diagonal.

    ``n_total`` is the original sequence length used as the temporal
    normalizer (kept fixed across hierarchy levels).
    """

    w: np.ndarray
    n_total: int

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidValueError(f"distance matrix must be square, got {w.shape}")
        if not np.isfinite(w).all():
            r, c = np.argwhere(~np.isfinite(w))[0]
            raise NonFiniteError(int(r), int(c))
        if not np.array_equal(w, w.T):
            raise ValueError("distance matrix must be exactly symmetric")
        if not np.all(np.diag(w) == 1.0):
            raise ValueError("diagonal entries must equal 1")
        object.__setattr__(self, "w", _freeze(w))

    @property
    def n(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class OneNnGraph:
    """Each node's nearest neighbor plus the symmetrized adjacency.

    ``edges`` holds directed entries; symmetrization guarantees that
    (i, j) in edges implies (j, i) in edges.
    """

    nn: np.ndarray
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "nn", _freeze(np.asarray(self.nn, dtype=np.int64)))

    @property
    def n(self) -> int:
        return self.nn.shape[0]


def feature_distances(vectors) -> np.ndarray:
    """Pairwise 1 - cosine distances with unit diagonal.

    Zero-norm vectors normalize to the zero vector and sit at distance 1
    from everything, so they attach to neighbors purely by time once the
    temporal factor is applied.
    """
    x = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if not np.isfinite(x).all():
        r, c = np.argwhere(~np.isfinite(x))[0]
        raise NonFiniteError(int(r), int(c))
    xn = l2_normalize(x)
    d = 1.0 - xn @ xn.T
    # Mirror the upper triangle so symmetry is exact, not up to GEMM rounding.
    d = np.triu(d, 1)
    d = d + d.T
    np.fill_diagonal(d, 1.0)
    return d


def temporal_distances(n: int, timestamps, n_total: int) -> np.ndarray:
    """Pairwise |t_i - t_j| / n_total with unit diagonal."""
    t = np.asarray(timestamps, dtype=np.float64).ravel()
    if t.shape[0] != n:
        raise InvalidValueError(f"expected {n} timestamps, got {t.shape[0]}")
    if n_total == 0:
        raise InvalidValueError("temporal normalizer n_total must be positive")
    if n_total < n:
        raise ValueError(f"n_total={n_total} smaller than node count {n}")
    d = np.abs(t[:, None] - t[None, :]) / float(n_total)
    np.fill_diagonal(d, 1.0)
    return d


def weighted_distances(gf: np.ndarray, gt: np.ndarray, n_total: int) -> WeightedDistances:
    """Elementwise product of feature and temporal distances."""
    gf = np.asarray(gf, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if gf.shape != gt.shape:
        raise InvalidValueError(f"shape mismatch: {gf.shape} vs {gt.shape}")
    w = gf * gt
    np.fill_diagonal(w, 1.0)
    return WeightedDistances(w, n_total)


def one_nn_graph(w: WeightedDistances) -> OneNnGraph:
    """Link each node to its closest other node, then symmetrize.

    Ties in the argmin break toward the lowest index. The diagonal is never
    a candidate.
    """
    n = w.n
    if n < 2:
        raise InvalidValueError("a 1-NN graph needs at least 2 nodes")
    masked = w.w.copy()
    np.fill_diagonal(masked, np.inf)
    nn = np.argmin(masked, axis=1)
    edges = set()
    for i, j in enumerate(nn):
        edges.add((i, int(j)))
        edges.add((int(j), i))
    return OneNnGraph(nn, frozenset(edges))


def reference_links(vectors, timestamps, n_total, *, block_rows, temporal=True):
    x = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    n = x.shape[0]
    xn = l2_normalize(x)
    xt = np.ascontiguousarray(xn.T)
    t = np.asarray(timestamps, dtype=np.float64).ravel()
    nn = np.empty(n, dtype=np.int64)
    link_w = np.empty(n, dtype=np.float64)
    for lo in range(0, n, block_rows):
        hi = min(lo + block_rows, n)
        w = 1.0 - np.dot(xn[lo:hi], xt)
        if temporal:
            w *= np.abs(t[lo:hi, None] - t[None, :]) / float(n_total)
        w[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        nn[lo:hi] = np.argmin(w, axis=1)
        link_w[lo:hi] = w[np.arange(hi - lo), nn[lo:hi]]
    return nn, link_w


def dense_links(vectors, timestamps, n_total, temporal) -> tuple[OneNnGraph, np.ndarray]:
    """The 1-NN graph of the dense weight matrix and each node's link weight."""
    gf = feature_distances(vectors)
    w = (weighted_distances(gf, temporal_distances(len(gf), timestamps, n_total), n_total)
         if temporal else WeightedDistances(gf, n_total))
    g = one_nn_graph(w)
    return g, w.w[np.arange(g.n), g.nn]


def reference_segment(frames, k, *, temporal=True):
    """TW-FINCH from the paper's equations, recomputing everything.

    Returns ``(levels, labels, fallback, merges)``: each hierarchy level's
    labels (finest first), the final labels, whether K was unreachable, and
    the refinement's ``(a, b, w)`` merges. Cluster ids number clusters in
    order of first frame. A level's clusters are the BFS components of the
    symmetrized 1-NN links over the previous level's cluster means; the
    build stops at one cluster, which is kept only as the first level.
    Refinement starts at the level with the fewest clusters >= K and merges
    the lowest-weight link (the lowest (low id, high id) pair on ties) until
    K remain, recomputing the means from the frames after every merge.
    """
    frames = np.asarray(frames, dtype=np.float32)
    n = frames.shape[0]
    times = np.arange(1, n + 1, dtype=np.float64)

    def links(labels):
        c = int(labels.max()) + 1
        sizes = np.bincount(labels, minlength=c)
        means = reference_group_sums(frames, labels, c) / sizes[:, None]
        mean_times = np.bincount(labels, weights=times, minlength=c) / sizes
        return dense_links(means, mean_times, n, temporal)

    def grouped(graph):
        return brute_force_components(graph.n, graph.edges).labels

    levels = [grouped(dense_links(frames, times, n, temporal)[0])]
    while levels[-1].max() >= 1:
        g = grouped(links(levels[-1])[0])
        if g.max() == 0:
            break
        levels.append(g[levels[-1]])
    counts = [int(labels.max()) + 1 for labels in levels]
    if counts[0] < k:
        return levels, levels[0], True, []
    labels = next(labels for labels, c in zip(levels[::-1], counts[::-1]) if c >= k)
    merges = []
    for c in range(int(labels.max()) + 1, k, -1):
        graph, link_w = links(labels)
        nn, wmin = graph.nn, link_w.min()
        a, b = min((min(i, int(nn[i])), max(i, int(nn[i])))
                   for i in np.flatnonzero(link_w == wmin))
        merges.append((a, b, float(wmin)))
        labels = np.where(labels == b, a, labels - (labels > b))
    return levels, labels, False, merges


def reference_group_sums(x, g, c) -> np.ndarray:
    """Per-group float64 column sums of ``x``, one ``bincount`` per column."""
    x = np.asarray(x, dtype=np.float64)
    sums = np.empty((c, x.shape[1]), dtype=np.float64)
    for j in range(x.shape[1]):
        sums[:, j] = np.bincount(g, weights=x[:, j], minlength=c)
    return sums


def reference_summary(seq, p) -> LevelSummary:
    c = p.num_clusters
    sizes = np.bincount(p.labels, minlength=c)
    time_sums = np.bincount(p.labels, weights=seq.timestamps, minlength=c)
    return LevelSummary(reference_group_sums(seq.frames, p.labels, c), time_sums, sizes)


def bitwise_equal(a, b) -> bool:
    """Same shape and dtype and the same bits in every element (so -0.0 != 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def summaries_equal(s, ref) -> bool:
    return (bitwise_equal(s.means, ref.means) and bitwise_equal(s.mean_times, ref.mean_times)
            and bitwise_equal(s.sizes, ref.sizes))


def brute_force_assignment(overlap: np.ndarray) -> dict[int, int]:
    """Exhaustive maximum-overlap one-to-one assignment (oracle).

    Enumerates all injective maps between the smaller and larger side; bails
    out above 8x8. Ties resolve to the first enumerated optimum.
    """
    p, g = overlap.shape
    if max(p, g) > 8:
        raise InvalidValueError("brute force capped at 8x8 matrices")
    counts = overlap.tolist()  # plain ints: the hot loop below is pure Python
    best_total = -1
    best: dict[int, int] = {}
    if p <= g:
        for cols in permutations(range(g), p):
            total = sum(counts[r][c] for r, c in enumerate(cols))
            if total > best_total:
                best_total = total
                best = {r: c for r, c in enumerate(cols)}
    else:
        for rows in permutations(range(p), g):
            total = sum(counts[r][c] for c, r in enumerate(rows))
            if total > best_total:
                best_total = total
                best = {r: c for c, r in enumerate(rows)}
    return best


def assignment_total(overlap: np.ndarray, mapping: dict[int, int]) -> int:
    return int(sum(overlap[r, c] for r, c in mapping.items()))


def loop_mof(ov: np.ndarray, mapping: dict[int, int]) -> float:
    hits = sum(int(ov[c, g]) for c, g in mapping.items())
    return hits / int(ov.sum())


def loop_iou(ov: np.ndarray, mapping: dict[int, int]) -> float:
    pred_sizes = ov.sum(axis=1)
    gt_sizes = ov.sum(axis=0)
    total = 0.0
    for c, g in mapping.items():
        inter = ov[c, g]
        union = pred_sizes[c] + gt_sizes[g] - inter
        if union > 0:
            total += inter / union
    return total / np.count_nonzero(gt_sizes)


def loop_f1(ov: np.ndarray, mapping: dict[int, int], average: str) -> float:
    pred_sizes = ov.sum(axis=1)
    gt_sizes = ov.sum(axis=0)
    if average == "micro":
        inter = sum(int(ov[c, g]) for c, g in mapping.items())
        pred_total = sum(int(pred_sizes[c]) for c in mapping)
        precision = inter / pred_total if pred_total else 0.0
        recall = inter / int(gt_sizes.sum())
        if precision + recall == 0.0:
            return 0.0
        return 2.0 * precision * recall / (precision + recall)
    by_gt = {g: c for c, g in mapping.items()}
    scores = []
    for g in np.flatnonzero(gt_sizes):
        c = by_gt.get(int(g))
        if c is None or ov[c, g] == 0 or pred_sizes[c] == 0 or gt_sizes[g] == 0:
            scores.append(0.0)
            continue
        p = ov[c, g] / pred_sizes[c]
        r = ov[c, g] / gt_sizes[g]
        scores.append(2.0 * p * r / (p + r))
    return float(np.mean(scores))


def loop_midpoint_hit(pred_runs, gt_runs, mapping: dict[int, int]) -> tuple[float, float]:
    """Midpoint-hit precision and recall from two ``(labels, starts, ends)``
    run tables, one predicted run at a time against every ground-truth run."""
    pred = list(zip(*(a.tolist() for a in pred_runs)))
    gt = list(zip(*(a.tolist() for a in gt_runs)))
    claimed = [False] * len(gt)
    hits = 0
    for label, start, end in pred:
        target = mapping.get(label)
        if target is None:
            continue
        m = (start + end) // 2
        for gi, (g_label, g_start, g_end) in enumerate(gt):
            if g_label == target and g_start <= m <= g_end:
                if not claimed[gi]:
                    claimed[gi] = True
                    hits += 1
                break  # at most one gt run contains the midpoint
    precision = hits / len(pred) if pred else 0.0
    recall = hits / len(gt) if gt else 0.0
    return precision, recall


def brute_force_components(n: int, edges) -> Partition:
    """Connected-component labels by repeated BFS (oracle)."""
    if n > 10_000:
        raise InvalidValueError("BFS oracle capped at 10000 nodes")
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        queue = deque([start])
        labels[start] = next_label
        while queue:
            node = queue.popleft()
            for nbr in adjacency[node]:
                if labels[nbr] == -1:
                    labels[nbr] = next_label
                    queue.append(nbr)
        next_label += 1
    return Partition(labels)


def first_neighbor_edges(nn: np.ndarray) -> frozenset[tuple[int, int]]:
    """The full original first-neighbor adjacency, shared-neighbor links included.

    Links (i, j) whenever j = nn(i), nn(j) = i, or nn(i) = nn(j). The tests
    use it to show that the shared-neighbor links never change the connected
    components.
    """
    edges = set()
    by_target: dict[int, list[int]] = {}
    for i in range(nn.shape[0]):
        j = int(nn[i])
        edges.add((i, j))
        edges.add((j, i))
        by_target.setdefault(j, []).append(i)
    for group in by_target.values():
        for a_pos, a in enumerate(group):
            for b in group[a_pos + 1:]:
                edges.add((a, b))
                edges.add((b, a))
    return frozenset(edges)
