#!/usr/bin/env python3
"""Print one sha256 over everything TW-FINCH decides on a seeded suite.

The suite has 150 synthetic sequences: the standard suite's 50 with distinct
planted classes and 50 where one class repeats (``suite_spec``), and 50 of
varied length (100-3000 frames), width (d = 12, 32, 64 or 256) and background
share. Each is segmented with the time weighting on and off. The digest
covers, for every run, every hierarchy level's labels, the final partition,
the fallback flag and each merge of the refinement trace (cluster ids and the
weight's exact bits). Two builds that print the same digest made the same
decisions everywhere.

    python3 scripts/partition_digest.py
"""

import hashlib
import struct
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import twseg  # noqa: E402
from twseg.synth import SynthSpec, generate  # noqa: E402

from tests_support import suite_spec  # noqa: E402

SEEDS = range(50)


def suite() -> list[tuple[SynthSpec, int]]:
    """(spec, requested K) for each of the 150 sequences."""
    out = []
    for seed in SEEDS:
        for repeated in (False, True):
            spec = suite_spec(seed, repeated)
            out.append((spec, spec.k))
        rng = np.random.default_rng([seed, 150])
        k = int(rng.integers(2, 10))
        spec = SynthSpec(k=k, n=int(rng.integers(100, 3001)),
                         d=int(rng.choice([12, 32, 64, 256])),
                         background_frac=float(rng.choice([0.0, 0.3])),
                         seed=1000 + seed)
        # Every fifth asks for more clusters than most hierarchies offer.
        out.append((spec, 40 * k if seed % 5 == 4 else k))
    return out


def digest(cases: list[tuple[SynthSpec, int]]) -> tuple[str, str]:
    """A counts line and the sha256 hex digest over ``cases``."""
    sha = hashlib.sha256()
    runs = levels = merges = fallbacks = 0
    for spec, k in cases:
        seq, _ = generate(spec)
        for temporal in (True, False):
            res = twseg.segment(seq, k, temporal=temporal)
            for p in res.hierarchy.partitions:
                sha.update(p.labels.astype("<i8").tobytes())
            sha.update(res.partition.labels.astype("<i8").tobytes())
            sha.update(struct.pack("<?", res.fallback))
            for a, b, w in res.trace.merges if res.trace else ():
                sha.update(struct.pack("<qqd", a, b, w))
            runs += 1
            levels += len(res.hierarchy.partitions)
            merges += len(res.trace.merges) if res.trace else 0
            fallbacks += res.fallback
    return (f"{runs} runs, {levels} hierarchy levels, {merges} merges, {fallbacks} fallbacks",
            sha.hexdigest())


def main() -> int:
    print(*digest(suite()), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
