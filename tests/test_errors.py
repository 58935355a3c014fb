"""Every argument or invariant check raises a package error of the right
kind: the input kind (exit 2) for a value the caller supplied, the internal
kind (exit 4) for one the package computed. Each still subclasses
ValueError. File content that cannot be read raises a ParseError, an input
error that names the file."""

import numpy as np
import pytest

from twseg import baselines, evaluate, graph, hierarchy, io, refine
from twseg.errors import InputError, InternalError, ParseError
from twseg.synth import SynthSpec, generate
from twseg.types import (
    EvalReport,
    FeatureSequence,
    GroundTruth,
    Partition,
    PartitionHierarchy,
    relabel_dense,
)


def report(mof=1.0, mapping=None):
    return EvalReport(mof, 1.0, 1.0, 1.0, 1.0, 1.0, mapping or {0: 0}, 2)


SITES = {
    "partition-negative": (InputError, "non-negative", lambda: Partition([0, -1])),
    "partition-gap": (InputError, "dense", lambda: Partition([0, 2])),
    "hierarchy-counts": (InternalError, "strictly decrease",
                         lambda: PartitionHierarchy((Partition([0, 1]), Partition([0, 1])))),
    "hierarchy-coarsening": (InternalError, "coarsening", lambda: PartitionHierarchy(
        (Partition([0, 0, 1, 2]), Partition([0, 1, 1, 1])))),
    "gt-label-id": (InputError, "label table", lambda: GroundTruth([0, 3], ("a",))),
    "report-score": (InternalError, r"outside \[0, 1\]", lambda: report(mof=1.5)),
    "report-mapping": (InternalError, "one-to-one", lambda: report(mapping={0: 0, 1: 0})),
    "f1-average": (InputError, "F1 average",
                   lambda: evaluate.f1(np.array([[2]]), {0: 0}, "weighted")),
    "tau": (InputError, "tau", lambda: evaluate.background_keep_indices(
        GroundTruth([0, 1], ("a", "SIL")), 1.5, 0)),
    "keep-seed": (InputError, "seed", lambda: evaluate.background_keep_indices(
        GroundTruth([0, 1], ("a", "SIL")), 0.5, -1)),
    "aggregate-mode": (InputError, "aggregation mode",
                       lambda: evaluate.aggregate([report()], "median")),
    "select-level-k": (InputError, "k must be", lambda: refine.select_level(
        PartitionHierarchy((Partition([0, 1]),)), 0)),
    "refine-k": (InputError, "k must be", lambda: refine.refine_to_k(
        FeatureSequence(np.eye(2)), Partition([0, 1]), 0)),
    "kmeans-k": (InputError, "k must be",
                 lambda: baselines.kmeans(FeatureSequence(np.eye(2)), 0)),
    "kmeans-seed": (InputError, "seed must be >= 0, got -1",
                    lambda: baselines.kmeans(FeatureSequence(np.eye(2)), 2, seed=-1)),
    "equal-split-k": (InputError, "k must be", lambda: baselines.equal_split(3, 0)),
    "links-timestamps": (InputError, "6 timestamps for 5 nodes", lambda: graph.nearest_neighbor_links(
        np.eye(5), np.arange(1.0, 7.0), 5)),
    "method": (InputError, "unknown method", lambda: baselines.segment_with(
        "TWFINCH", FeatureSequence(np.eye(2)), 1)),
    "equal-split-too-many": (InputError, "cannot split 3 frames into 5 blocks",
                             lambda: baselines.equal_split(3, 5)),
    "kmeans-too-many": (InputError, "k=3 exceeds 2 frames",
                        lambda: baselines.kmeans(FeatureSequence(np.eye(2)), 3)),
    "refine-too-many": (InputError, "k=3 exceeds the 2 available clusters",
                        lambda: refine.refine_to_k(FeatureSequence(np.eye(2)),
                                                   Partition([0, 1]), 3)),
    "hierarchy-one-frame": (InputError, "needs at least 2 frames",
                            lambda: hierarchy.build_hierarchy(FeatureSequence(np.ones((1, 3))))),
    "compose-grouping": (InputError, "grouping of 3 labels for 2 clusters",
                         lambda: hierarchy.compose(Partition([0, 1]), Partition([0, 1, 2]))),
    "links-one-node": (InputError, "needs at least 2 nodes", lambda: graph.nearest_neighbor_links(
        np.ones((1, 3)), np.ones(1), 1)),
    "links-normalizer": (InputError, "n_total must be positive",
                         lambda: graph.nearest_neighbor_links(np.eye(2), np.arange(1.0, 3.0), 0)),
    "partition-empty": (InputError, "nonempty 1-D array", lambda: Partition([])),
    "relabel-empty": (InputError, "cannot relabel an empty assignment", lambda: relabel_dense([])),
    "sequence-ndim": (InputError, "expected a 2-D feature matrix, got ndim=1",
                      lambda: FeatureSequence(np.zeros(3))),
    "sequence-empty": (InputError, "0x2 matrix", lambda: FeatureSequence(np.empty((0, 2)))),
    "sequence-nonfinite": (InputError, "non-finite value at row 0, col 1",
                           lambda: FeatureSequence([[0.0, np.nan]])),
    "hierarchy-empty": (InputError, "at least one partition", lambda: PartitionHierarchy(())),
    "hierarchy-lengths": (InputError, "different frame counts", lambda: PartitionHierarchy(
        (Partition([0, 1]), Partition([0])))),
    "gt-empty": (InputError, "at least one frame", lambda: GroundTruth([], ("a",))),
    "overlap-lengths": (InputError, "1 predicted frames vs 2 ground-truth frames",
                        lambda: evaluate.overlap_matrix(Partition([0]),
                                                        GroundTruth([0, 0], ("a",)))),
    "match-empty": (InputError, "no videos to match", lambda: evaluate.match_across_videos([])),
    "aggregate-empty": (InputError, "nothing to aggregate", lambda: evaluate.aggregate([])),
    "synth-k": (InputError, r"need k >= 1, n >= k, sep >= 0", lambda: SynthSpec(k=0)),
    "synth-noise": (InputError, "sep and noise_sigma must be finite",
                    lambda: SynthSpec(noise_sigma=-1.0)),
    "synth-alpha": (InputError, "length_alpha must be positive",
                    lambda: SynthSpec(length_alpha=0.0)),
    "synth-pattern": (InputError, "repeat_pattern has 1 runs but k=4",
                      lambda: SynthSpec(repeat_pattern=("A",))),
    "synth-background": (InputError, r"background_frac must lie in \[0, 1\]",
                         lambda: SynthSpec(background_frac=1.5)),
    "synth-seed": (InputError, "seed must be >= 0, got -1", lambda: SynthSpec(seed=-1)),
    "synth-background-label": (InputError, "background_label must be one nonempty line",
                               lambda: SynthSpec(background_label="")),
    "synth-pattern-class": (InputError, "has surrounding whitespace or a line break",
                            lambda: SynthSpec(k=1, repeat_pattern=(" A",))),
    "synth-background-run": (InputError, "'act1#1' is the label of a planted run",
                             lambda: SynthSpec(k=2, background_label="act1#1")),
    "synth-dims": (InputError, "need d >= 5 for 5 class centers",
                   lambda: generate(SynthSpec(k=5, n=50, d=3))),
    "synth-run-room": (InputError, "non-background frames cannot hold 4 runs",
                       lambda: generate(SynthSpec(n=10, background_frac=0.5))),
}


@pytest.mark.parametrize("site", SITES)
def test_checks_raise_classified_value_errors(site):
    kind, message, call = SITES[site]
    with pytest.raises(kind, match=message) as err:
        call()
    assert isinstance(err.value, ValueError)


HEADER = io.MAGIC + io._HEADER.pack(2, 2)

# One bytes payload per way a feature file cannot be read, with its message.
PARSE_SITES = {
    "binary-short": ("v.bin", b"TWSEG", "5 bytes is too short for a header"),
    "binary-magic": ("v.bin", b"XXXXXXXX" + bytes(8), "bad magic"),
    "binary-header": ("v.bin", io.MAGIC + bytes(2), "header cut short"),
    "binary-payload": ("v.bin", HEADER + bytes(4), "expected 32 bytes, found 20"),
    "binary-shape": ("v.bin", io.MAGIC + io._HEADER.pack(0, 3), "declared shape 0x3"),
    "csv-no-frames": ("v.csv", b"\n\n", "no frames"),
}


@pytest.mark.parametrize("site", PARSE_SITES)
def test_unreadable_feature_files_raise_parse_errors(tmp_path, site):
    name, blob, message = PARSE_SITES[site]
    path = tmp_path / name
    path.write_bytes(blob)
    with pytest.raises(ParseError, match=message) as err:
        io.load_features(path)
    assert str(path) in str(err.value)
