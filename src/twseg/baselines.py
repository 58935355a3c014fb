"""Unsupervised comparison methods (equal split, kmeans, FINCH), and ``METHODS``,
the table of every compared method, with its one dispatcher."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalError, InvalidValueError
from .refine import SegmentationResult, segment
from .types import FeatureSequence, Partition, relabel_dense, validate_sequence


@dataclass(frozen=True)
class KmeansConfig:
    k: int
    max_iters: int = 100
    seed: int = 0
    restarts: int = 10

    def __post_init__(self):
        if self.k < 1 or self.max_iters < 1 or self.restarts < 1:
            raise InvalidValueError("k, max_iters and restarts must all be >= 1")
        if self.seed < 0:
            raise InvalidValueError(f"seed must be >= 0, got {self.seed}")


def equal_split(n: int, k: int) -> Partition:
    """Split n frames into k contiguous blocks, longer blocks first."""
    if k > n:
        raise InvalidValueError(f"cannot split {n} frames into {k} blocks")
    if k < 1:
        raise InvalidValueError("k must be >= 1")
    q, r = divmod(n, k)
    sizes = np.full(k, q, dtype=np.int64)
    sizes[:r] += 1
    return Partition(np.repeat(np.arange(k), sizes))


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[i] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centers[i]) ** 2, axis=1))
    return centers


def _assign(x: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Squared Euclidean via expansion; x term dropped for the argmin,
    # added back for the objective.
    cross = x @ centers.T
    c2 = np.sum(centers**2, axis=1)
    partial = c2[None, :] - 2.0 * cross
    labels = np.argmin(partial, axis=1)
    d2 = partial[np.arange(x.shape[0]), labels] + np.sum(x**2, axis=1)
    return labels, np.maximum(d2, 0.0)


def _lloyd(x: np.ndarray, k: int, max_iters: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    n = x.shape[0]
    centers = _kmeans_pp_init(x, k, rng)
    labels, d2 = _assign(x, centers)
    prev_obj = float(d2.sum())
    for _ in range(max_iters):
        for c in range(k):
            members = labels == c
            if members.any():
                centers[c] = x[members].mean(axis=0)
            else:
                centers[c] = x[np.argmax(d2)]  # re-seed to the farthest point
                d2[np.argmax(d2)] = 0.0
        new_labels, d2 = _assign(x, centers)
        obj = float(d2.sum())
        if obj > prev_obj * (1.0 + 1e-9) + 1e-12:
            raise InternalError(f"kmeans objective increased: {prev_obj} -> {obj}")
        converged = np.array_equal(new_labels, labels) and obj >= prev_obj - 1e-12
        labels, prev_obj = new_labels, obj
        if converged:
            break
    return labels, prev_obj


def kmeans(seq: FeatureSequence, cfg: KmeansConfig) -> Partition:
    """Best-of-restarts Lloyd iterations from kmeans++ seeds.

    Deterministic given ``cfg.seed``; restarts are ranked by within-cluster
    sum of squares with ties going to the earlier restart.
    """
    validate_sequence(seq)
    if cfg.k > seq.n:
        raise InvalidValueError(f"k={cfg.k} exceeds {seq.n} frames")
    x = seq.frames.astype(np.float64)
    best_labels, best_obj = None, np.inf
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        labels, obj = _lloyd(x, cfg.k, cfg.max_iters, rng)
        if obj < best_obj:
            best_labels, best_obj = labels, obj
    return relabel_dense(best_labels)


def finch(seq: FeatureSequence, k: int) -> SegmentationResult:
    """Hierarchical first-neighbor clustering without temporal weighting.

    The temporally-weighted pipeline with the time factor switched off. The
    original first-neighbor relation also links nodes that share a nearest
    neighbor, but such nodes are already connected through that neighbor, so
    the connected components, and with them every partition, are those of
    the plain 1-NN links.
    """
    return segment(seq, k, temporal=False)


# The compared methods: TW-FINCH first, then the baselines.
METHODS = ("twfinch", "finch", "kmeans", "equalsplit")


def segment_with(method: str, seq: FeatureSequence, k: int, *, seed: int = 0,
                 **kmeans_options) -> tuple[Partition, bool]:
    """Cluster ``seq`` into ``k`` segments with one of ``METHODS``.

    Returns the partition and the fallback flag, which only the hierarchical
    methods raise (see ``refine.segment``). ``seed`` and ``kmeans_options``
    (``KmeansConfig``'s ``max_iters`` and ``restarts``) apply to kmeans alone.
    """
    if method not in METHODS:
        raise InvalidValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "kmeans":
        return kmeans(seq, KmeansConfig(k=k, seed=seed, **kmeans_options)), False
    if method == "equalsplit":
        return equal_split(seq.n, k), False
    res = segment(seq, k, temporal=method == "twfinch")
    return res.partition, res.fallback
