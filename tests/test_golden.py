"""Golden bytes: ``eval --json`` and ``plot`` output on a fixed hand-made dataset.

The dataset has 3 videos in 2 activities with hand-written ``.seg`` and
``.keep`` files, so nothing is clustered and the bytes depend on neither the
BLAS build nor the CPU. The sha256 constants pin the exact output; a change
that moves any metric, mapping or SVG coordinate shows up here.
"""

import hashlib
import json

import numpy as np
import pytest

from twseg import io
from twseg.cli import main
from twseg.types import FeatureSequence


def runs(*pairs):
    """Expand (value, length) pairs into one list."""
    return [value for value, length in pairs for _ in range(length)]


# video_id: (activity, frame labels, predicted cluster ids, kept frames or None)
VIDEOS = {
    "v1": ("cook",
           runs(("SIL", 3), ("pour", 6), ("stir", 8), ("SIL", 2), ("serve", 5)),
           runs((0, 4), (1, 5), (2, 3), (1, 2), (2, 4), (3, 6)),
           None),
    "v2": ("cook",
           runs(("SIL", 2), ("stir", 7), ("pour", 5), ("SIL", 4)),
           runs((0, 3), (1, 6), (2, 5), (0, 4)),
           None),
    # v3's prediction covers 20 of its 22 frames: two background frames are dropped.
    "v3": ("tidy",
           runs(("wipe", 5), ("SIL", 4), ("fold", 9), ("wipe", 4)),
           runs((0, 6), (1, 1), (2, 8), (3, 5)),
           [0, 1, 2, 3, 4, 6, 8] + list(range(9, 22))),
}
# A second track for the plot: fragmented, with a cluster no label matches.
ALT_V1 = runs((0, 2), (1, 3), (0, 2), (2, 9), (3, 3), (4, 5))

EVAL_DEFAULT_SHA256 = "2b1c63a400eeeb6864568a01c5dff901faa64b1619e6ad340202508adbf9873b"
EVAL_POOLED_SHA256 = "0c3640f3b116620fbb8d38f24ac107444d53c7acbd03461e6e7453a26c6ba2d4"
PLOT_SHA256 = "f2bf6709d2b6fa9a420235af9b92aff753e59ed0b102f1de167f7bba3f33f058"


@pytest.fixture
def dataset(tmp_path):
    entries = []
    pred_dir = tmp_path / "pred"
    for vid, (activity, tokens, pred, keep) in VIDEOS.items():
        # Eval never reads the features; the manifest only needs the files to exist.
        io.save_features(FeatureSequence(np.zeros((len(tokens), 2))), tmp_path / f"{vid}.bin")
        io.write_file(tmp_path / f"{vid}.txt", "".join(f"{t}\n" for t in tokens))
        io.write_file(pred_dir / f"{vid}.seg", "".join(f"{c}\n" for c in pred))
        if keep is not None:
            io.write_file(pred_dir / f"{vid}.keep", "".join(f"{i}\n" for i in keep))
        entries.append({"video_id": vid, "activity": activity,
                        "feature_path": f"{vid}.bin", "label_path": f"{vid}.txt"})
    io.write_file(tmp_path / "alt.seg", "".join(f"{c}\n" for c in ALT_V1))
    io.write_file(tmp_path / "manifest.json",
                  json.dumps({"entries": entries, "background_label": "SIL"}))
    return tmp_path


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("flags, expected", [
    ([], EVAL_DEFAULT_SHA256),
    (["--match-per-activity", "--aggregate", "frame", "--f1-average", "macro"],
     EVAL_POOLED_SHA256),
], ids=["defaults", "pooled-frame-macro"])
def test_eval_json_bytes(dataset, flags, expected):
    out = dataset / "report.json"
    assert main(["eval", "--manifest", str(dataset / "manifest.json"),
                 "--pred-dir", str(dataset / "pred"), "--json", str(out), *flags]) == 0
    assert sha256_of(out) == expected


def test_plot_svg_bytes(dataset):
    out = dataset / "v1.svg"
    assert main(["plot", "--labels", str(dataset / "v1.txt"),
                 "--pred", str(dataset / "pred" / "v1.seg"), "--pred", str(dataset / "alt.seg"),
                 "--names", "hand,alt", "--out", str(out)]) == 0
    assert sha256_of(out) == PLOT_SHA256
