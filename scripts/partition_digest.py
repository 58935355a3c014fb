#!/usr/bin/env python3
"""Print one sha256 over everything TW-FINCH decides on a seeded suite.

The suite has 150 synthetic sequences: 50 with distinct planted classes, 50
where one class repeats, and 50 of varied length (100-3000 frames), width
(d = 12, 32, 64 or 256) and background share. Each is segmented with the time
weighting on and off. The digest covers, for every run, every hierarchy
level's labels, the final partition, the fallback flag and each merge of the
refinement trace (cluster ids and the weight's exact bits). Two builds that
print the same digest made the same decisions everywhere.

    python3 scripts/partition_digest.py
"""

import hashlib
import struct
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import twseg  # noqa: E402
from twseg.synth import SynthSpec, generate  # noqa: E402

SEEDS = range(50)


def suite() -> list[tuple[SynthSpec, int]]:
    """(spec, requested K) for each of the 150 sequences."""
    out = []
    for seed in SEEDS:
        k = 4 + seed % 7
        out.append((SynthSpec(k=k, n=800, sep=8.0, seed=seed, length_alpha=8.0), k))
        pattern = tuple(f"c{i}" for i in range(k - 1)) + ("c0",)
        out.append((SynthSpec(k=k, n=800, sep=8.0, seed=seed, repeat_pattern=pattern,
                              length_alpha=8.0), k))
        rng = np.random.default_rng([seed, 150])
        k = int(rng.integers(2, 10))
        spec = SynthSpec(k=k, n=int(rng.integers(100, 3001)),
                         d=int(rng.choice([12, 32, 64, 256])),
                         background_frac=float(rng.choice([0.0, 0.3])),
                         seed=1000 + seed)
        # Every fifth asks for more clusters than most hierarchies offer.
        out.append((spec, 40 * k if seed % 5 == 4 else k))
    return out


def main() -> int:
    digest = hashlib.sha256()
    runs = levels = merges = fallbacks = 0
    for spec, k in suite():
        seq, _ = generate(spec)
        for temporal in (True, False):
            res = twseg.segment(seq, k, temporal=temporal)
            for p in res.hierarchy.partitions:
                digest.update(p.labels.astype("<i8").tobytes())
            digest.update(res.partition.labels.astype("<i8").tobytes())
            digest.update(struct.pack("<?", res.fallback))
            for a, b, w in res.trace.merges if res.trace else ():
                digest.update(struct.pack("<qqd", a, b, w))
            runs += 1
            levels += len(res.hierarchy.partitions)
            merges += len(res.trace.merges) if res.trace else 0
            fallbacks += res.fallback
    print(f"{runs} runs, {levels} hierarchy levels, {merges} merges, {fallbacks} fallbacks")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
