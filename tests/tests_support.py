"""Shared helpers for the test suite and the experiment scripts."""

import json

import numpy as np

from twseg import io
from twseg.synth import SynthSpec, generate


def suite_spec(seed: int, repeated: bool) -> SynthSpec:
    """One sequence of the standard suite: k = 4 + seed % 7 planted runs,
    N = 800, sep = 8 sigma, length_alpha = 8; the repeated-class half plants
    class c0 again as the last run."""
    k = 4 + seed % 7
    pattern = None
    if repeated:
        pattern = tuple(f"c{i}" for i in range(k - 1)) + ("c0",)
    return SynthSpec(k=k, n=800, sep=8.0, seed=seed,
                     repeat_pattern=pattern, length_alpha=8.0)


def make_manifest_dataset(tmp_path, videos=None, *, n=200, d=8, background_frac=0.25,
                          background_label="BG"):
    """Write a synthetic manifest dataset and return the manifest path;
    videos = [(video_id, activity, k, seed)]."""
    if videos is None:
        videos = [("v1", "cook", 4, 21), ("v2", "cook", 5, 22), ("v3", "tidy", 3, 23)]
    entries = []
    for vid, activity, k, seed in videos:
        seq, gt = generate(SynthSpec(
            k=k, n=n, d=d, seed=seed, background_frac=background_frac,
            background_label=background_label, length_alpha=8.0,
        ))
        io.save_features(seq, tmp_path / f"{vid}.bin")
        io.save_labels(gt, tmp_path / f"{vid}.txt")
        entries.append({"video_id": vid, "activity": activity,
                        "feature_path": f"{vid}.bin", "label_path": f"{vid}.txt"})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "entries": entries, "background_label": background_label,
    }))
    return manifest


def run_table(*runs):
    """A ``(labels, starts, ends)`` run table from (label, start, end) triples."""
    return tuple(np.array(column, dtype=np.int64) for column in zip(*runs))
