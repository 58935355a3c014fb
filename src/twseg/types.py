"""Shared domain types: feature sequences, partitions, ground truth, reports.

All types are immutable after construction (backing arrays are marked
read-only), so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValueError, InvariantError, NonFiniteError


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FeatureSequence:
    """A nonempty, finite N x d matrix of per-frame features plus implicit
    timestamps 1..N.

    Features are stored as float32 and only as float32; all arithmetic
    downstream accumulates in float64, and each reader widens what it reads
    (the 1-NN kernel a block of rows at a time), so no float64 copy outlives
    the call that made it. Finiteness is checked after the cast, so a value
    that overflows float32 is rejected too. Timestamps are always the frame
    positions 1..N.
    """

    frames: np.ndarray
    video_id: str = ""

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an overflow is the finiteness check's to report
            frames = np.asarray(self.frames, dtype=np.float32)
        if frames.ndim != 2:
            raise InvalidValueError(f"expected a 2-D feature matrix, got ndim={frames.ndim}")
        if frames.size == 0:
            n, d = frames.shape
            raise InvalidValueError(f"{self.video_id or 'sequence'}: {n}x{d} matrix")
        finite = np.isfinite(frames)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise NonFiniteError(int(row), int(col))
        object.__setattr__(self, "frames", _freeze(frames))

    @property
    def n(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    @property
    def timestamps(self) -> np.ndarray:
        """1-based frame times, float64."""
        return np.arange(1, self.n + 1, dtype=np.float64)


@dataclass(frozen=True)
class Partition:
    """An assignment of each frame to a cluster.

    Labels are dense 0-based integers: exactly {0, ..., num_clusters-1} occur.
    """

    labels: np.ndarray
    num_clusters: int = field(init=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise InvalidValueError("partition labels must be a nonempty 1-D array")
        if labels.min() < 0:
            raise InvalidValueError("cluster ids must be non-negative")
        if labels.max() >= labels.size:  # before np.bincount sizes its array by it
            raise InvalidValueError("cluster ids must be dense (no gaps)")
        counts = np.bincount(labels)
        if not counts.all():
            raise InvalidValueError("cluster ids must be dense (no gaps)")
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "num_clusters", counts.size)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @classmethod
    def _unchecked(cls, labels: np.ndarray, num_clusters: int) -> Partition:
        """A partition the pipeline made itself, without the checks: ``labels``
        use exactly the ids below ``num_clusters``."""
        p = object.__new__(cls)
        object.__setattr__(p, "labels", _freeze(np.asarray(labels, dtype=np.int64)))
        object.__setattr__(p, "num_clusters", num_clusters)
        return p


def relabel_dense(raw) -> Partition:
    """Remap arbitrary cluster ids to dense 0-based ids in first-occurrence order."""
    raw = np.asarray(raw)
    if raw.size == 0:
        raise InvalidValueError("cannot relabel an empty assignment")
    _, first_idx, inverse = np.unique(raw, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return Partition(rank[inverse.ravel()])


@dataclass(frozen=True)
class PartitionHierarchy:
    """Nested partitions, finest first, with strictly decreasing cluster counts."""

    partitions: tuple[Partition, ...]

    def __post_init__(self):
        parts = tuple(self.partitions)
        if not parts:
            raise InvalidValueError("a hierarchy needs at least one partition")
        n = parts[0].n
        for fine, coarse in zip(parts, parts[1:]):
            if coarse.n != n:
                raise InvalidValueError("hierarchy levels cover different frame counts")
            if coarse.num_clusters >= fine.num_clusters:
                raise InvariantError("cluster counts must strictly decrease along the hierarchy")
            # Coarsening: every fine cluster maps to exactly one coarse cluster.
            mapping = np.full(fine.num_clusters, -1, dtype=np.int64)
            mapping[fine.labels] = coarse.labels
            if not np.array_equal(mapping[fine.labels], coarse.labels):
                raise InvariantError("each level must be a coarsening of the previous one")
        object.__setattr__(self, "partitions", parts)

    @classmethod
    def _unchecked(cls, levels: list) -> PartitionHierarchy:
        """The build's own hierarchy, without the checks. It keeps the build's
        level records as ``_levels``, not a field, for ``segment`` to take."""
        h = object.__new__(cls)
        object.__setattr__(h, "partitions", tuple(level.partition for level in levels))
        object.__setattr__(h, "_levels", levels)
        return h

    @property
    def cluster_counts(self) -> tuple[int, ...]:
        return tuple(p.num_clusters for p in self.partitions)

    @property
    def finest(self) -> Partition:
        return self.partitions[0]


@dataclass(frozen=True)
class GroundTruth:
    """Per-frame action labels, interned to integer ids.

    ``label_names[i]`` is the token for interned id ``i``; ``background_label``
    names the background token, which may or may not occur in this video.
    """

    labels: np.ndarray
    label_names: tuple[str, ...]
    background_label: str = "SIL"

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise InvalidValueError("ground truth must cover at least one frame")
        if labels.min() < 0 or labels.max() >= len(self.label_names):
            raise InvalidValueError("label id outside the label table")
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "label_names", tuple(self.label_names))

    @classmethod
    def from_tokens(cls, tokens, background_label: str = "SIL") -> "GroundTruth":
        """Intern string tokens to ids in first-occurrence order."""
        index: dict[str, int] = {}
        ids = [index.setdefault(tok, len(index)) for tok in tokens]
        return cls(np.array(ids, dtype=np.int64), tuple(index), background_label)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def num_labels(self) -> int:
        return len(self.label_names)

    @property
    def background_id(self) -> int | None:
        try:
            return self.label_names.index(self.background_label)
        except ValueError:
            return None

    def distinct_count(self, include_background: bool = True) -> int:
        """Number of distinct labels present in this video."""
        present = np.unique(self.labels)
        if not include_background and self.background_id is not None:
            present = present[present != self.background_id]
        return max(1, int(present.size))


@dataclass(frozen=True)
class EvalReport:
    """Matched-label metric bundle for one video (or an aggregate)."""

    # The scores, each in [0, 1], in report order (a class constant, not a field).
    SCORES = ("mof", "iou", "f1", "midpoint_precision", "midpoint_recall", "purity")
    mof: float
    iou: float
    f1: float
    midpoint_precision: float
    midpoint_recall: float
    purity: float
    mapping: dict[int, int]
    n_frames: int

    def __post_init__(self):
        for name in self.SCORES:
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InvariantError(f"{name}={v} outside [0, 1]")
        if len(set(self.mapping.values())) != len(self.mapping):
            raise InvariantError("mapping must be one-to-one")

    def as_dict(self, label_names: tuple[str, ...] | None = None) -> dict:
        mapping = {
            str(k): (label_names[v] if label_names else int(v))
            for k, v in sorted(self.mapping.items())
        }
        return {
            **{name: getattr(self, name) for name in self.SCORES},
            "mapping": mapping,
            "n_frames": self.n_frames,
        }
