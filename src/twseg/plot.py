"""Static SVG color bars comparing segmentations against ground truth."""

from __future__ import annotations

import colorsys
import html

import numpy as np

from .evaluate import hungarian_match, overlap_matrix, segments_from_labels
from .types import GroundTruth, Partition

_BAR_WIDTH = 960
_BAR_HEIGHT = 36
_GAP = 14
_LABEL_WIDTH = 150
_BACKGROUND_FILL = "#ffffff"


def _hex(r: float, g: float, b: float) -> str:
    return "#{:02x}{:02x}{:02x}".format(int(round(r * 255)), int(round(g * 255)), int(round(b * 255)))


def gt_palette(gt: GroundTruth) -> dict[int, str]:
    """One saturated hue per ground-truth label; background renders white."""
    colors: dict[int, str] = {}
    ids = [i for i in range(gt.num_labels) if i != gt.background_id]
    for rank, label_id in enumerate(ids):
        hue = rank / max(1, len(ids))
        colors[label_id] = _hex(*colorsys.hls_to_rgb(hue, 0.52, 0.78))
    if gt.background_id is not None:
        colors[gt.background_id] = _BACKGROUND_FILL
    return colors


def fallback_palette(count: int) -> list[str]:
    """Desaturated reserved hues for predicted clusters without a match."""
    return [
        _hex(*colorsys.hls_to_rgb((i + 0.5) / max(1, count), 0.38, 0.22))
        for i in range(count)
    ]


def _bar(svg: list[str], y: int, labels: np.ndarray, fill_of) -> None:
    n = labels.shape[0]
    for label, start, end in zip(*(a.tolist() for a in segments_from_labels(labels))):
        x = _LABEL_WIDTH + start / n * _BAR_WIDTH
        width = (end - start + 1) / n * _BAR_WIDTH
        svg.append(
            f'<rect x="{x:.2f}" y="{y}" width="{width:.2f}" height="{_BAR_HEIGHT}" '
            f'fill="{fill_of(label)}"/>'
        )
    svg.append(
        f'<rect x="{_LABEL_WIDTH}" y="{y}" width="{_BAR_WIDTH}" height="{_BAR_HEIGHT}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )


def render_segmentation_svg(tracks: list[tuple[str, Partition]], gt: GroundTruth) -> str:
    """One color bar per method plus the ground-truth bar, hues matched.

    Each track is Hungarian-matched against the ground truth so matched
    segments share the ground-truth hue; unmatched predicted clusters draw
    from a reserved desaturated palette.
    """
    colors = gt_palette(gt)
    rows: list[tuple[str, np.ndarray, dict[int, str]]] = [
        ("ground truth", gt.labels, colors)
    ]
    for name, pred in tracks:
        mapping = hungarian_match(overlap_matrix(pred, gt))
        unmatched = [c for c in range(pred.num_clusters) if c not in mapping]
        reserve = fallback_palette(len(unmatched))
        track_colors = {c: colors[g] for c, g in mapping.items()}
        track_colors.update({c: reserve[i] for i, c in enumerate(unmatched)})
        rows.append((name, pred.labels, track_colors))

    height = len(rows) * (_BAR_HEIGHT + _GAP) + _GAP
    svg = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_LABEL_WIDTH + _BAR_WIDTH + 20}" '
        f'height="{height}" viewBox="0 0 {_LABEL_WIDTH + _BAR_WIDTH + 20} {height}">',
        f'<rect width="100%" height="100%" fill="{_BACKGROUND_FILL}"/>',
    ]
    y = _GAP
    for name, labels, track_colors in rows:
        svg.append(
            f'<text x="{_LABEL_WIDTH - 10}" y="{y + _BAR_HEIGHT / 2:.1f}" '
            f'text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="13">{html.escape(name, quote=False)}</text>'
        )
        _bar(svg, y, labels, track_colors.__getitem__)
        y += _BAR_HEIGHT + _GAP
    svg.append("</svg>")
    return "\n".join(svg) + "\n"
