"""Seeded synthetic planted-segment sequences with per-run ground truth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidValueError
from .types import FeatureSequence, GroundTruth

_MIN_RUN = 2


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for one planted-segment sequence.

    ``sep`` is the pairwise center separation in units of ``noise_sigma``.
    ``repeat_pattern`` plants runs that share visual classes (e.g.
    ("A", "B", "A")); its length must equal ``k``. Ground-truth labels are
    per-run instances, so a repeated class yields distinct gt labels for its
    runs while their features stay indistinguishable.
    """

    k: int = 4
    n: int = 800
    d: int = 64
    sep: float = 8.0
    noise_sigma: float = 1.0
    background_frac: float = 0.0
    repeat_pattern: tuple[str, ...] | None = None
    seed: int = 0
    background_label: str = "BG"
    length_alpha: float = 1.5  # Dirichlet concentration; higher = more even runs

    def __post_init__(self):
        if self.k < 1 or self.n < self.k or self.sep < 0:
            raise InvalidValueError("need k >= 1, n >= k, sep >= 0")
        if not (np.isfinite(self.sep) and np.isfinite(self.noise_sigma)
                and self.noise_sigma >= 0):
            raise InvalidValueError("sep and noise_sigma must be finite, noise_sigma >= 0")
        if self.length_alpha <= 0:
            raise InvalidValueError("length_alpha must be positive")
        if self.repeat_pattern is not None and len(self.repeat_pattern) != self.k:
            raise InvalidValueError(
                f"repeat_pattern has {len(self.repeat_pattern)} runs but k={self.k}"
            )
        if not 0.0 <= self.background_frac <= 1.0:
            raise InvalidValueError("background_frac must lie in [0, 1]")
        if self.seed < 0:
            raise InvalidValueError(f"seed must be >= 0, got {self.seed}")
        # Labels must read back from a label file as written.
        if not (self.background_label and _one_line(self.background_label)):
            raise InvalidValueError("background_label must be one nonempty line without "
                                    f"surrounding whitespace, got {self.background_label!r}")
        for cls in self.repeat_pattern or ():
            if not _one_line(cls):
                raise InvalidValueError(f"repeat_pattern class {cls!r} has surrounding "
                                        "whitespace or a line break")
        if self.background_label in [f"{cls}#{r}" for r, cls in enumerate(_run_classes(self))]:
            raise InvalidValueError(f"background_label {self.background_label!r} is the "
                                    "label of a planted run")


def _one_line(text: str) -> bool:
    """Whether the label reader, which splits lines and strips them, gives
    ``text`` back unchanged."""
    return text == text.strip() and len(text.splitlines()) <= 1


def _run_classes(spec: SynthSpec) -> list[str]:
    if spec.repeat_pattern is not None:
        return list(spec.repeat_pattern)
    return [f"act{i}" for i in range(spec.k)]


def _partition_lengths(total: int, parts: int, min_len: int,
                       rng: np.random.Generator, alpha: float) -> np.ndarray:
    """Random positive lengths summing to ``total``, each >= ``min_len``."""
    spare = total - parts * min_len
    props = rng.dirichlet(np.full(parts, alpha))
    extra = np.floor(props * spare).astype(np.int64)
    remainder = spare - extra.sum()
    extra[:remainder] += 1
    return extra + min_len


def generate(spec: SynthSpec) -> tuple[FeatureSequence, GroundTruth]:
    """Deterministic planted-segment sequence with per-run ground truth.

    Class centers sit on scaled basis vectors, pairwise ``sep * noise_sigma``
    apart; the optional background center is three separations away from the
    origin on its own axis. Background frames are spread over the k+1 gaps
    around the action runs.
    """
    rng = np.random.default_rng(spec.seed)
    classes = _run_classes(spec)
    class_names = list(dict.fromkeys(classes))
    n_classes = len(class_names) + (1 if spec.background_frac > 0 else 0)
    if spec.d < n_classes:
        raise InvalidValueError(f"need d >= {n_classes} for {n_classes} class centers")

    scale = spec.sep * spec.noise_sigma / np.sqrt(2.0)
    centers = {name: scale * np.eye(1, spec.d, i)[0] for i, name in enumerate(class_names)}

    n_bg = int(round(spec.background_frac * spec.n))
    n_act = spec.n - n_bg
    if n_act < spec.k * _MIN_RUN:
        raise InvalidValueError(
            f"{n_act} non-background frames cannot hold {spec.k} runs of >= {_MIN_RUN}"
        )
    run_lengths = _partition_lengths(n_act, spec.k, _MIN_RUN, rng, alpha=spec.length_alpha)
    gaps = rng.multinomial(n_bg, np.full(spec.k + 1, 1.0 / (spec.k + 1)))

    pieces: list[tuple[str, str, int]] = []  # (gt label, class name, length)
    bg_center_name = "__background__"
    if spec.background_frac > 0:
        centers[bg_center_name] = 3.0 * scale * np.eye(1, spec.d, len(class_names))[0]
    for r in range(spec.k):
        if gaps[r] > 0:
            pieces.append((spec.background_label, bg_center_name, int(gaps[r])))
        pieces.append((f"{classes[r]}#{r}", classes[r], int(run_lengths[r])))
    if gaps[spec.k] > 0:
        pieces.append((spec.background_label, bg_center_name, int(gaps[spec.k])))

    tokens: list[str] = []
    frames = np.empty((spec.n, spec.d), dtype=np.float64)
    pos = 0
    for gt_label, cls, length in pieces:
        frames[pos:pos + length] = centers[cls]
        tokens.extend([gt_label] * length)
        pos += length
    frames += rng.normal(0.0, spec.noise_sigma, size=frames.shape)

    seq = FeatureSequence(frames, video_id=f"synth-{spec.seed}")
    gt = GroundTruth.from_tokens(tokens, background_label=spec.background_label)
    return seq, gt
