import xml.etree.ElementTree as ET

import numpy as np

from twseg.plot import render_segmentation_svg
from twseg.types import GroundTruth, Partition


def test_bar_per_track_plus_ground_truth():
    gt = GroundTruth.from_tokens(["a", "a", "b", "b"], background_label="SIL")
    tracks = [
        ("one", Partition(np.array([0, 0, 1, 1]))),
        ("two", Partition(np.array([0, 1, 1, 1]))),
    ]
    svg = render_segmentation_svg(tracks, gt)
    assert svg.count('stroke="#333333"') == 3  # one outline per bar
    assert ">ground truth</text>" in svg and ">one</text>" in svg and ">two</text>" in svg


def test_background_rendered_white():
    gt = GroundTruth.from_tokens(["SIL", "a", "SIL"], background_label="SIL")
    svg = render_segmentation_svg([("m", Partition(np.array([0, 1, 0])))], gt)
    assert 'fill="#ffffff"' in svg


def test_matched_clusters_share_ground_truth_hue():
    gt = GroundTruth.from_tokens(["a", "a", "b", "b"], background_label="SIL")
    svg = render_segmentation_svg([("m", Partition(np.array([1, 1, 0, 0])))], gt)
    rects = [line for line in svg.splitlines() if line.startswith("<rect") and "none" not in line]
    fills = [line.split('fill="')[1].split('"')[0] for line in rects if 'height="36"' in line]
    # gt bar: [hue_a, hue_b]; method bar: cluster 1 -> a, cluster 0 -> b.
    assert fills[0] == fills[2] and fills[1] == fills[3]


def test_unmatched_cluster_gets_reserved_hue():
    gt = GroundTruth.from_tokens(["a", "a", "a", "a"], background_label="SIL")
    svg = render_segmentation_svg([("m", Partition(np.array([0, 0, 1, 1])))], gt)
    rects = [line for line in svg.splitlines() if line.startswith("<rect") and 'height="36"' in line
             and "none" not in line]
    fills = [line.split('fill="')[1].split('"')[0] for line in rects]
    gt_hue = fills[0]
    method_fills = fills[1:]
    assert gt_hue in method_fills
    assert any(f != gt_hue for f in method_fills)


def test_single_frame_full_width_rect():
    gt = GroundTruth.from_tokens(["a"], background_label="SIL")
    svg = render_segmentation_svg([("m", Partition(np.array([0])))], gt)
    assert 'width="960.00"' in svg


def test_deterministic_output():
    gt = GroundTruth.from_tokens(list("aabbcc"), background_label="SIL")
    tracks = [("m", Partition(np.array([0, 0, 1, 1, 2, 2])))]
    assert render_segmentation_svg(tracks, gt) == render_segmentation_svg(tracks, gt)


def test_names_are_escaped():
    gt = GroundTruth.from_tokens(["a", "a", "b"], background_label="SIL")
    svg = render_segmentation_svg([("x<y & z>", Partition(np.array([0, 0, 1])))], gt)
    root = ET.fromstring(svg.encode())
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == ["ground truth", "x<y & z>"]
