"""Per-layer metrics of one traced pass, computed from its spans.

Times are summed over the pass in milliseconds; ``self_ms`` is a span's
duration minus the part its child spans cover. Counts marked computed come
from array shapes and results, not from timing, so they repeat exactly for a
given seed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import POOL_TASK, Span, children_of, self_times

NN = "graph.nearest_neighbor_links"
BUILD = "hierarchy.build_hierarchy"
REFINE = "refine.refine_to_k"
SEGMENT = "refine.segment"
SEGMENT_LAYERS = ("graph", "hierarchy", "refine")

# name -> (unit, computed count?)
PER_LAYER = {
    "graph.nn_links.level1_ms": ("ms", False),
    "graph.nn_links.upper_ms": ("ms", False),
    "graph.nn_links.refine_ms": ("ms", False),
    "graph.nn_links.calls": ("count", False),
    "graph.nn_links.pairs": ("count", True),
    "graph.nn_links.gflop": ("gflop", True),
    "graph.nn_links.gflops": ("gflop/s", False),
    "graph.components.ms": ("ms", False),
    "graph.components.calls": ("count", False),
    "hierarchy.build.ms": ("ms", False),
    "hierarchy.build.self_ms": ("ms", False),
    "hierarchy.summarize.ms": ("ms", False),
    "hierarchy.summarize.calls": ("count", False),
    "hierarchy.summarize.frame_dims": ("count", True),
    "hierarchy.levels": ("count", False),
    "hierarchy.level1_clusters": ("count", False),
    "refine.refine_to_k.ms": ("ms", False),
    "refine.refine_to_k.self_ms": ("ms", False),
    "refine.merges": ("count", True),
    "refine.fallbacks": ("count", False),
    "evaluate.evaluate_pair.ms": ("ms", False),
    "evaluate.overlap_matrix.ms": ("ms", False),
    "evaluate.hungarian_match.ms": ("ms", False),
    "evaluate.overlap_matrix.calls": ("count", True),
    "io.load_features.ms": ("ms", False),
    "io.load_labels.ms": ("ms", False),
    "io.save_partition.ms": ("ms", False),
    "io.load_partition.ms": ("ms", False),
    "io.load_manifest.ms": ("ms", False),
    "io.load_features.bytes": ("bytes", False),
    "io.load_labels.calls": ("count", True),
    "cli.segment.self_ms": ("ms", False),
    "cli.eval.self_ms": ("ms", False),
    "cli.pool.busy_frac": ("ratio", False),
    "trace.overhead_frac": ("ratio", False),
}

COUNTS = [name for name, (unit, _) in PER_LAYER.items()
          if unit in ("count", "gflop", "bytes")]


def pass_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Every per-layer metric but ``trace.overhead_frac`` for one pass."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    own = self_times(spans)
    kids = children_of(spans)
    parent_name = {s.id: s.name for s in spans}

    def ms(name: str) -> float:
        return 1000.0 * sum(s.duration for s in by_name[name])

    def self_ms(name: str) -> float:
        return 1000.0 * sum(own[s.id] for s in by_name[name])

    def total(name: str, attr: str) -> int:
        return sum(s.attrs[attr] for s in by_name[name])

    level1 = set()
    for b in by_name[BUILD]:
        first = min((c for c in kids.get(b.id, []) if c.name == NN),
                    key=lambda c: c.start, default=None)
        if first is not None:
            level1.add(first.id)
    nn = by_name[NN]
    nn_s = sum(s.duration for s in nn)
    gflop = sum(2 * s.attrs["rows"] * s.attrs["cols"] * s.attrs["d"] for s in nn) / 1e9

    def nn_ms(keep) -> float:
        return 1000.0 * sum(s.duration for s in nn if keep(s))

    seg_wall = sum(s.duration for s in by_name["cli.cmd_segment"])
    busy = sum(s.duration for s in by_name[POOL_TASK])
    return {
        "graph.nn_links.level1_ms": nn_ms(lambda s: s.id in level1),
        "graph.nn_links.upper_ms": nn_ms(
            lambda s: s.id not in level1 and parent_name.get(s.parent) == BUILD),
        "graph.nn_links.refine_ms": nn_ms(lambda s: parent_name.get(s.parent) == REFINE),
        "graph.nn_links.calls": len(nn),
        "graph.nn_links.pairs": sum(s.attrs["rows"] * s.attrs["cols"] for s in nn),
        "graph.nn_links.gflop": gflop,
        "graph.nn_links.gflops": gflop / nn_s if nn_s > 0 else 0.0,
        "graph.components.ms": ms("graph.components_of_links"),
        "graph.components.calls": len(by_name["graph.components_of_links"]),
        "hierarchy.build.ms": ms(BUILD),
        "hierarchy.build.self_ms": self_ms(BUILD),
        "hierarchy.summarize.ms": ms("hierarchy.summarize"),
        "hierarchy.summarize.calls": len(by_name["hierarchy.summarize"]),
        "hierarchy.summarize.frame_dims": total("hierarchy.summarize", "frame_dims"),
        "hierarchy.levels": total(BUILD, "levels"),
        "hierarchy.level1_clusters": total(BUILD, "level1_clusters"),
        "refine.refine_to_k.ms": ms(REFINE),
        "refine.refine_to_k.self_ms": self_ms(REFINE),
        "refine.merges": total(REFINE, "merges"),
        "refine.fallbacks": total(SEGMENT, "fallback"),
        "evaluate.evaluate_pair.ms": ms("evaluate.evaluate_pair"),
        "evaluate.overlap_matrix.ms": ms("evaluate.overlap_matrix"),
        "evaluate.hungarian_match.ms": ms("evaluate.hungarian_match"),
        "evaluate.overlap_matrix.calls": len(by_name["evaluate.overlap_matrix"]),
        "io.load_features.ms": ms("io.load_features"),
        "io.load_labels.ms": ms("io.load_labels"),
        "io.save_partition.ms": ms("io.save_partition"),
        "io.load_partition.ms": ms("io.load_partition"),
        "io.load_manifest.ms": ms("io.load_manifest"),
        "io.load_features.bytes": total("io.load_features", "bytes"),
        "io.load_labels.calls": len(by_name["io.load_labels"]),
        "cli.segment.self_ms": self_ms("cli.cmd_segment"),
        "cli.eval.self_ms": self_ms("cli.cmd_eval"),
        "cli.pool.busy_frac": busy / (workers * seg_wall) if seg_wall > 0 else 0.0,
    }


def segment_self_cover(spans: list[Span]) -> float:
    """Summed self time of the graph, hierarchy and refine spans inside the
    ``segment`` calls, over their summed wall time; 1.0 when those layers
    account for all of it."""
    kids = children_of(spans)
    own = self_times(spans)
    segs = [s for s in spans if s.name == SEGMENT]
    wall = sum(s.duration for s in segs)
    covered_self = 0.0
    todo = list(segs)
    while todo:
        s = todo.pop()
        if s.name.split(".", 1)[0] in SEGMENT_LAYERS:
            covered_self += own[s.id]
        todo.extend(kids.get(s.id, []))
    return covered_self / wall if wall > 0 else 0.0


def per_layer(spans: list[Span], workers: int, overhead: float):
    """Median of each per-layer metric over the ``bench.pass`` spans, plus
    the metrics and the segment self-time cover of every pass."""
    passes = [s for s in spans if s.name == "bench.pass"]
    per_pass = []
    covers = []
    for p in passes:
        # Passes run one after another, so a pass owns what lies inside it.
        mine = [s for s in spans if p.start <= s.start and s.end <= p.end]
        per_pass.append(pass_metrics(mine, workers))
        covers.append(segment_self_cover(mine))
    # Counts are equal in every pass (the run checks it); times take the median.
    metrics = {name: per_pass[0][name] if name in COUNTS
               else statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics["trace.overhead_frac"] = overhead
    return metrics, per_pass, covers
