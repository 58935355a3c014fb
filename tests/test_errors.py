"""Every argument or invariant check raises a package error of the right
kind: the input kind (exit 2) for a value the caller supplied, the internal
kind (exit 4) for one the package computed. Each still subclasses
ValueError."""

import numpy as np
import pytest

from twseg import baselines, evaluate, graph, refine
from twseg.errors import InputError, InternalError
from twseg.types import (
    EvalReport,
    FeatureSequence,
    GroundTruth,
    Partition,
    PartitionHierarchy,
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
    "kmeans-config": (InputError, "max_iters", lambda: baselines.KmeansConfig(k=0)),
    "kmeans-seed": (InputError, "seed", lambda: baselines.KmeansConfig(k=2, seed=-1)),
    "equal-split-k": (InputError, "k must be", lambda: baselines.equal_split(3, 0)),
    "links-timestamps": (InputError, "6 timestamps for 5 nodes", lambda: graph.nearest_neighbor_links(
        np.eye(5), np.arange(1.0, 7.0), 5)),
    "method": (InputError, "unknown method", lambda: baselines.segment_with(
        "TWFINCH", FeatureSequence(np.eye(2)), 1)),
}


@pytest.mark.parametrize("site", SITES)
def test_checks_raise_classified_value_errors(site):
    kind, message, call = SITES[site]
    with pytest.raises(kind, match=message) as err:
        call()
    assert isinstance(err.value, ValueError)
