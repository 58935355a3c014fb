#!/usr/bin/env python3
"""Build a small synthetic manifest dataset on disk for CLI experiments."""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from tests_support import make_manifest_dataset  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", help="directory to create the dataset in")
    parser.add_argument("--videos-per-activity", type=int, default=3)
    parser.add_argument("--activities", type=int, default=2)
    parser.add_argument("--frames", type=int, default=600)
    parser.add_argument("--dims", type=int, default=64)
    parser.add_argument("--background-frac", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    videos = []
    for a in range(args.activities):
        k = 4 + a  # a different action count per activity
        for v in range(args.videos_per_activity):
            videos.append((f"act{a}_vid{v}", f"act{a}", k, args.seed + len(videos)))
    manifest = make_manifest_dataset(out, videos, n=args.frames, d=args.dims,
                                     background_frac=args.background_frac,
                                     background_label="SIL")
    print(f"wrote {len(videos)} videos and {manifest}")
    print(f"try: twseg segment --manifest {manifest} --output-dir {out / 'pred'}")
    print(f"     twseg eval --manifest {manifest} --pred-dir {out / 'pred'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
