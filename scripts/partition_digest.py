#!/usr/bin/env python3
"""Print a sha256 over everything TW-FINCH decides on two seeded suites.

The first suite has 150 synthetic sequences: the standard suite's 50 with
distinct planted classes and 50 where one class repeats (``suite_spec``), and
50 of varied length (100-3000 frames), width (d = 12, 32, 64 or 256) and
background share. The second, ``duplicate_suite``, is made of exact repeated
rows (see there). Each sequence is segmented with the time weighting on and
off. A digest covers, for every run, every hierarchy level's labels, the
final partition, the fallback flag and each merge of the refinement trace
(cluster ids and the weight's exact bits). A decision digest covers the same
but the weights. Two builds that print the same digests made the same
decisions with the same weights everywhere; two that print the same decision
digests made the same decisions. Each suite prints a counts line, its digest
and its decision digest, the first suite's three lines first.

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
from twseg.types import FeatureSequence  # noqa: E402

from tests_support import suite_spec  # noqa: E402

SEEDS = range(50)
DUPLICATE_SEEDS = range(10)


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


def duplicate_suite() -> list[tuple[FeatureSequence, int]]:
    """(sequence, requested K) for 40 sequences of exact repeated rows.

    Real features repeat rows exactly: frozen frames, frame-rate conversion,
    padding. Per seed there are two sequences, each followed by its time
    reversal:
    - A-B-A, three runs of two constant rows (d = 16; seed 0 has runs of
      50 + 50 + 50 rows), asked for 3 clusters;
    - a standard-suite sequence with every frame held for 2-4 frames and one
      constant row padded at both ends, asked for its planted K plus one.
    """
    out = []
    for seed in DUPLICATE_SEEDS:
        rng = np.random.default_rng([seed, 2])
        a, b = rng.standard_normal((2, 16))
        lengths = (50, 50, 50) if seed == 0 else rng.integers(10, 80, size=3)
        aba = np.repeat([a, b, a], lengths, axis=0)
        spec = suite_spec(seed, repeated=seed % 2 == 1)
        held = np.repeat(generate(spec)[0].frames, rng.integers(2, 5, size=spec.n), axis=0)
        pad = np.repeat(rng.standard_normal((1, spec.d)), rng.integers(5, 40), axis=0)
        padded = np.concatenate([pad, held, pad])
        for frames, k in ((aba, 3), (padded, spec.k + 1)):
            out += [(FeatureSequence(frames), k), (FeatureSequence(frames[::-1]), k)]
    return out


def digest(cases) -> tuple[str, str, str]:
    """A counts line, the sha256 hex digest and the decision digest (the same
    without the merge weights) over ``(sequence, K)`` cases."""
    sha, decisions = hashlib.sha256(), hashlib.sha256()
    runs = levels = merges = fallbacks = 0
    for seq, k in cases:
        for temporal in (True, False):
            res = twseg.segment(seq, k, temporal=temporal)
            for p in res.hierarchy.partitions:
                sha.update(p.labels.astype("<i8").tobytes())
                decisions.update(p.labels.astype("<i8").tobytes())
            sha.update(res.partition.labels.astype("<i8").tobytes())
            decisions.update(res.partition.labels.astype("<i8").tobytes())
            sha.update(struct.pack("<?", res.fallback))
            decisions.update(struct.pack("<?", res.fallback))
            for a, b, w in res.trace.merges if res.trace else ():
                sha.update(struct.pack("<qqd", a, b, w))
                decisions.update(struct.pack("<qq", a, b))
            runs += 1
            levels += len(res.hierarchy.partitions)
            merges += len(res.trace.merges) if res.trace else 0
            fallbacks += res.fallback
    return (f"{runs} runs, {levels} hierarchy levels, {merges} merges, {fallbacks} fallbacks",
            sha.hexdigest(), decisions.hexdigest())


def main() -> int:
    print(*digest((generate(spec)[0], k) for spec, k in suite()), sep="\n")
    print(*digest(duplicate_suite()), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
