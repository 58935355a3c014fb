"""File formats: feature matrices, label files, manifests, partitions.

Binary feature format (extension-agnostic; anything not ``.csv``):
    bytes 0-7   magic  b"TWSEGF01"
    bytes 8-11  u32 little-endian  N (frames)
    bytes 12-15 u32 little-endian  d (dims)
    then        N*d float32 little-endian, row-major

CSV feature format: one frame per line, d comma-separated reals.
Label files: one token per line, frame-aligned, surrounding whitespace trimmed.
Partition files: one integer cluster id per line.
Manifests: JSON, see ``load_manifest``.

Every file is written through ``write_file``.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, NonFiniteError, OutputError, ParseError
from .types import FeatureSequence, GroundTruth, Partition

MAGIC = b"TWSEGF01"
_HEADER = struct.Struct("<II")
# A .seg or .keep line: ASCII digits after an optional minus sign.
_INT = re.compile(r"-?[0-9]+")
_INT_CHARS = re.compile(r"[-0-9\n]*")


@dataclass(frozen=True)
class ManifestEntry:
    video_id: str
    activity: str
    feature_path: Path
    label_path: Path
    k_override: int | None = None


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]
    background_label: str = "SIL"
    # The label map's tokens: the label-id order every activity starts from.
    label_table: tuple[str, ...] | None = None
    k_counts_background: bool = True


def write_file(path, data: str | bytes) -> None:
    """Write text or bytes to ``path``, making its directory first; an
    OSError becomes an OutputError (exit 3)."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb" if isinstance(data, bytes) else "w") as f:
            f.write(data)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _is_csv(path: Path) -> bool:
    """A feature file named ``*.csv`` holds text; any other name, binary."""
    return path.suffix.lower() == ".csv"


def save_features(seq: FeatureSequence, path) -> None:
    """Write a feature matrix; ``.csv`` as text, anything else as binary."""
    path = Path(path)
    if _is_csv(path):
        lines = [",".join(repr(float(v)) for v in row) for row in seq.frames]
        write_file(path, "\n".join(lines) + "\n")
    else:
        payload = np.ascontiguousarray(seq.frames, dtype="<f4").tobytes()
        write_file(path, MAGIC + _HEADER.pack(seq.n, seq.dim) + payload)


def load_features(path) -> FeatureSequence:
    """Load a feature matrix; ``.csv`` parses as text, anything else as binary."""
    path = Path(path)
    try:
        return _load_csv(path) if _is_csv(path) else _load_binary(path)
    except NonFiniteError as exc:
        raise NonFiniteError(exc.row, exc.col, str(path)) from None


def _load_binary(path: Path) -> FeatureSequence:
    blob = path.read_bytes()
    if len(blob) < len(MAGIC):
        raise ParseError(f"{path}: {len(blob)} bytes is too short for a header")
    if blob[: len(MAGIC)] != MAGIC:
        raise ParseError(f"{path}: bad magic {blob[:len(MAGIC)]!r}")
    if len(blob) < len(MAGIC) + _HEADER.size:
        raise ParseError(f"{path}: header cut short")
    n, d = _HEADER.unpack_from(blob, len(MAGIC))
    expected = len(MAGIC) + _HEADER.size + 4 * n * d
    if len(blob) < expected:
        raise ParseError(f"{path}: expected {expected} bytes, found {len(blob)}")
    if len(blob) > expected:
        raise ParseError(f"{path}: {len(blob) - expected} trailing bytes after the payload")
    frames = np.frombuffer(blob, dtype="<f4", offset=len(MAGIC) + _HEADER.size)
    if n == 0 or d == 0:
        raise ParseError(f"{path}: declared shape {n}x{d}")
    return FeatureSequence(frames.reshape(n, d), video_id=path.stem)


def _load_csv(path: Path) -> FeatureSequence:
    rows: list[list[float]] = []
    for lineno, line in enumerate(_lines(path), start=1):
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ParseError(f"{exc} in {path}", line=lineno) from None
        if rows and len(row) != len(rows[0]):
            raise ParseError(f"expected {len(rows[0])} values in {path}, got {len(row)}",
                             line=lineno)
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no frames")
    return FeatureSequence(np.array(rows), video_id=path.stem)


def _read_text(path: Path) -> str:
    """The text of an input file; bytes that do not decode raise a
    ParseError naming the file."""
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _lines(path: Path) -> list[str]:
    """Stripped lines of a frame-aligned text file, trailing blank lines
    dropped; an inner blank line would shift later frames, so it raises."""
    lines = [line.strip() for line in _read_text(path).splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    if "" in lines:
        raise ParseError(f"blank line in {path}", line=lines.index("") + 1)
    return lines


def _ints(path: Path) -> np.ndarray:
    """One int64 per line, read by ``_lines``: ASCII digits after an optional
    minus sign, nothing else (no ``_``, ``+`` or other scripts' digits)."""
    lines = _lines(path)
    if _INT_CHARS.fullmatch("\n".join(lines)):  # the common case, without a Python loop
        try:
            return np.array(list(map(int, lines)), dtype=np.int64)
        except (ValueError, OverflowError):
            pass  # a stray '-', a value outside int64 or over 4300 digits
    values = []
    for lineno, tok in enumerate(lines, start=1):
        if not _INT.fullmatch(tok):
            raise ParseError(f"not an integer in {path}: {tok!r}", line=lineno)
        # An int64 has at most 19 digits once leading zeros go, and int()
        # refuses strings of over 4300 digits.
        negative, digits = tok[0] == "-", tok.lstrip("-").lstrip("0") or "0"
        if len(digits) > 19 or int(digits) > (2**63 if negative else 2**63 - 1):
            raise ParseError(f"integer outside int64 in {path}: {tok!r}", line=lineno)
        values.append(-int(digits) if negative else int(digits))
    return np.array(values, dtype=np.int64)


def load_labels(path, background_label: str = "SIL") -> GroundTruth:
    """One label token per line; interning preserves first-occurrence order."""
    path = Path(path)
    tokens = _lines(path)
    if not tokens:
        raise ParseError(f"{path}: no labels")
    return GroundTruth.from_tokens(tokens, background_label)


def _write_lines(path, values: np.ndarray) -> None:
    """One value per line."""
    write_file(path, "".join(f"{v}\n" for v in values.tolist()))


def save_labels(gt: GroundTruth, path) -> None:
    _write_lines(path, np.asarray(gt.label_names, dtype=object)[gt.labels])


def save_partition(p: Partition, path) -> None:
    _write_lines(path, p.labels)


def load_partition(path) -> Partition:
    path = Path(path)
    labels = _ints(path)
    if not labels.size:
        raise ParseError(f"{path}: empty partition file")
    try:
        return Partition(labels)
    except ValueError as exc:  # a negative id or a gap in the ids
        raise ParseError(f"{path}: {exc}") from None


def save_indices(indices: np.ndarray, path) -> None:
    _write_lines(path, np.asarray(indices, dtype=np.int64))


def load_indices(path) -> np.ndarray:
    return _ints(Path(path))


def load_manifest(path) -> DatasetManifest:
    """Parse and validate a dataset manifest.

    JSON schema::

        {
          "background_label": "SIL",            // optional, default "SIL"
          "label_map_path": "labels.map",       // optional, pins label id order
          "k_counts_background": true,          // optional, default true
          "entries": [
            {"video_id": "...", "activity": "...",
             "feature_path": "...", "label_path": "...",
             "k_override": 5}                   // k_override optional
          ]
        }

    Relative paths resolve against the manifest's directory. Validation
    errors name the offending entry.
    """
    path = Path(path)
    base = path.parent
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise InputError(f"{path}: manifest must be a JSON object with an 'entries' list")

    entries = []
    seen = set()
    for i, raw in enumerate(doc["entries"]):
        where = f"{path} entry {i}"
        if not isinstance(raw, dict):
            raise InputError(f"{where}: must be a JSON object, got {type(raw).__name__}")
        for key in ("video_id", "activity", "feature_path", "label_path"):
            if key not in raw:
                raise InputError(f"{where}: missing field {key!r}")
            _typed(where, key, raw[key], str, "a string")
        vid = raw["video_id"]
        # The id names the .seg and .keep files, so it must stay inside the output directory.
        if vid in ("", ".", "..") or any(c in vid for c in "/\\\0"):
            raise InputError(f"{where}: video_id must be a plain file name, got {vid!r}")
        if vid in seen:
            raise InputError(f"{where} ({vid}): duplicate video_id")
        seen.add(vid)
        feature_path = base / raw["feature_path"]
        label_path = base / raw["label_path"]
        if not feature_path.is_file():
            raise InputError(f"{where} ({vid}): missing feature file {feature_path}")
        if not label_path.is_file():
            raise InputError(f"{where} ({vid}): missing label file {label_path}")
        k_override = raw.get("k_override")
        if k_override is not None and (type(k_override) is not int or k_override < 1):
            raise InputError(f"{where} ({vid}): k_override must be an integer >= 1, "
                             f"got {k_override!r}")
        entries.append(ManifestEntry(
            video_id=vid,
            activity=raw["activity"],
            feature_path=feature_path,
            label_path=label_path,
            k_override=k_override,
        ))

    label_map = _typed(path, "label_map_path", doc.get("label_map_path"), (str, type(None)),
                       "a string")
    label_table = None
    if label_map is not None:
        label_map_path = base / label_map
        if not label_map_path.is_file():
            raise InputError(f"{path}: missing label map {label_map_path}")
        # Its nonblank lines, stripped; a token listed twice is an error.
        first_line: dict[str, int] = {}
        for lineno, line in enumerate(_read_text(label_map_path).splitlines(), start=1):
            tok = line.strip()
            if tok in first_line:
                raise ParseError(f"{label_map_path}: {tok!r} already listed on line "
                                 f"{first_line[tok]}", line=lineno)
            if tok:
                first_line[tok] = lineno
        label_table = tuple(first_line)

    return DatasetManifest(
        entries=tuple(entries),
        background_label=_typed(path, "background_label", doc.get("background_label", "SIL"),
                                str, "a string"),
        label_table=label_table,
        k_counts_background=_typed(path, "k_counts_background",
                                   doc.get("k_counts_background", True), bool,
                                   "true or false"),
    )


def _typed(where: str | Path, key: str, value, kind, expected: str):
    """``value`` when it is a ``kind``; otherwise an InputError naming
    ``where`` (the manifest, or one of its entries) and ``key``."""
    if not isinstance(value, kind):
        raise InputError(f"{where}: {key} must be {expected}, got {value!r}")
    return value


def load_ground_truths(manifest: DatasetManifest) -> dict[str, GroundTruth]:
    """Every entry's labels by video id, each file parsed once.

    The videos of one activity share one label table: the pinned label map
    if there is one, then each video's labels in first-occurrence order,
    videos in manifest order. So an id names the same label across the
    activity's videos, and a video's table may list labels it never uses
    (the metrics match over the labels present).
    """
    own, listed = {}, {}
    for entry in manifest.entries:
        gt = own[entry.video_id] = load_labels(entry.label_path, manifest.background_label)
        listed.setdefault(entry.activity, [*(manifest.label_table or ())]).extend(gt.label_names)
    ids = {activity: {name: i for i, name in enumerate(dict.fromkeys(names))}
           for activity, names in listed.items()}
    truths = {}
    for entry in manifest.entries:
        gt, table = own[entry.video_id], ids[entry.activity]
        remap = np.array([table[name] for name in gt.label_names], dtype=np.int64)
        truths[entry.video_id] = GroundTruth(remap[gt.labels], tuple(table),
                                             manifest.background_label)
    return truths


def compute_activity_k(manifest: DatasetManifest,
                       truths: dict[str, GroundTruth]) -> dict[str, int]:
    """Per activity: rounded (half-up) mean of distinct labels per video.

    ``truths`` are the entries' parsed labels (``load_ground_truths``).
    """
    counts: dict[str, list[int]] = {}
    for entry in manifest.entries:
        gt = truths[entry.video_id]
        counts.setdefault(entry.activity, []).append(
            gt.distinct_count(include_background=manifest.k_counts_background)
        )
    return {
        activity: max(1, int(math.floor(sum(vals) / len(vals) + 0.5)))
        for activity, vals in counts.items()
    }
