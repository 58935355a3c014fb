#!/usr/bin/env python3
"""Compare all four methods on the seeded synthetic suite.

Prints a MoF/IoU table over the plain half (distinct visual classes) and the
repeated-class half (one class occurs twice, where purely visual clustering
merges the repeats).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from twseg.baselines import METHODS, segment_with  # noqa: E402
from twseg.evaluate import evaluate_pair  # noqa: E402
from twseg.synth import generate  # noqa: E402

from tests_support import suite_spec  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=50)
    args = parser.parse_args()

    methods = METHODS[::-1]  # the baselines first, TW-FINCH last
    for half, repeated in (("plain", False), ("repeated-class", True)):
        scores = {m: {"mof": [], "iou": []} for m in methods}
        for seed in range(args.seeds):
            spec = suite_spec(seed, repeated)
            seq, gt = generate(spec)
            for m in methods:
                rep = evaluate_pair(segment_with(m, seq, spec.k, seed=seed)[0], gt)
                scores[m]["mof"].append(rep.mof)
                scores[m]["iou"].append(rep.iou)
        print(f"\n{half} half ({args.seeds} seeds, k = 4 + seed % 7, N = 800):")
        print(f"  {'method':<12} {'MoF':>8} {'IoU':>8}")
        for m in methods:
            print(f"  {m:<12} {np.mean(scores[m]['mof']):8.4f} "
                  f"{np.mean(scores[m]['iou']):8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
