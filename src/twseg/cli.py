"""Command-line interface: segment, eval, bench, plot, synth."""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import baselines, bench, io, plot
from .errors import InputError, OutputError, TwsegError
from .evaluate import (
    aggregate,
    background_keep_indices,
    evaluate_pair,
    filter_background,
    match_across_videos,
)
from .synth import SynthSpec, generate
from .types import GroundTruth, relabel_dense

EXIT_OK, EXIT_INPUT, EXIT_OUTPUT, EXIT_INTERNAL = 0, 2, 3, 4


def _dump_json(path: Path, doc) -> None:
    io.write_file(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- segment

def _segment_named(segment_one, name, seq, k):
    """``segment_one(seq, k)``; an input it rejects (a single frame, K past
    the frame count) raises an error that names the file or video."""
    try:
        return segment_one(seq, k)
    except InputError as exc:
        raise InputError(f"{name}: {exc}") from None


def cmd_segment(args) -> int:
    out_dir = Path(args.output_dir)
    segment_one = partial(baselines.segment_with, args.method, seed=args.seed)
    if args.features is not None:  # an empty path is still this mode
        if args.k is None:
            raise InputError("--features mode requires an explicit --k; "
                             "the ground-truth K policies need --manifest")
        if args.tau is not None:
            raise InputError("--tau needs ground-truth labels; use --manifest")
        seq = io.load_features(args.features)
        p, fallback = _segment_named(segment_one, args.features, seq, args.k)
        results = [(seq.video_id, args.k, p, fallback, None)]
    else:
        manifest = io.load_manifest(args.manifest)
        # Activity-average K is the default policy for manifest-driven runs.
        use_activity_avg = args.k is None and not args.k_per_video_gt
        truths = io.load_ground_truths(manifest)
        activity_k = io.compute_activity_k(manifest, truths) if use_activity_avg else {}

        def run(entry):
            seq = io.load_features(entry.feature_path)
            gt = truths[entry.video_id]
            if seq.n != gt.n:
                raise InputError(
                    f"{entry.video_id}: {seq.n} frames but {gt.n} labels"
                )
            keep = None
            if args.tau is not None:
                seq, gt, keep = filter_background(seq, gt, args.tau, args.seed)
            if entry.k_override is not None:
                k = entry.k_override
            elif args.k is not None:
                k = args.k
            elif args.k_per_video_gt:
                k = gt.distinct_count(include_background=manifest.k_counts_background)
            else:
                k = activity_k[entry.activity]
            p, fallback = _segment_named(segment_one, entry.video_id, seq, k)
            return entry.video_id, k, p, fallback, keep

        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(run, manifest.entries))

    records = []
    for video_id, k, p, fallback, keep in results:
        out = out_dir / f"{video_id}.seg"
        io.save_partition(p, out)
        if keep is not None:
            io.save_indices(keep, out_dir / f"{video_id}.keep")
        records.append(_segment_record(video_id, k, p, fallback, out))

    summary = {
        "method": args.method,
        "tau": args.tau,
        "seed": args.seed,
        "videos": records,
    }
    _dump_json(out_dir / "run_summary.json", summary)
    for rec in records:
        flag = " (fallback: k unreachable)" if rec["fallback"] else ""
        print(f"{rec['video_id']}: {rec['num_clusters']} clusters -> "
              f"{out_dir / rec['path']}{flag}")
    return EXIT_OK


def _segment_record(video_id, k, p, fallback, out) -> dict:
    return {
        "video_id": video_id,
        "k": int(k),
        "num_clusters": p.num_clusters,
        "n_frames": p.n,
        "fallback": bool(fallback),
        "path": out.name,  # relative to the summary's directory
    }


# ------------------------------------------------------------------- eval

def _load_eval_item(video_id: str, activity: str, gt: GroundTruth, pred_path: Path,
                    tau: float | None, seed: int):
    """One video's prediction and the ground truth it is scored against.

    A ``.keep`` file next to the ``.seg`` (written by ``segment --tau``) lists
    the frames the prediction covers and takes precedence. Otherwise ``tau``
    subsamples a full-length prediction with the ground truth's own
    background filter.
    """
    if not pred_path.is_file():
        raise InputError(f"{video_id}: missing prediction {pred_path}")
    pred = io.load_partition(pred_path)
    keep = None
    keep_path = pred_path.with_suffix(".keep")
    if keep_path.is_file():  # predictions were made on pre-filtered frames
        keep = io.load_indices(keep_path)
        if keep.size == 0:
            raise InputError(f"{keep_path}: lists no frame")
        if keep[0] < 0 or keep[-1] >= gt.n or np.any(np.diff(keep) <= 0):
            raise InputError(
                f"{keep_path}: frame indices must be strictly increasing and lie in [0, {gt.n})"
            )
    elif tau is not None and pred.n == gt.n:
        keep = background_keep_indices(gt, tau, seed)
        pred = relabel_dense(pred.labels[keep])
    if keep is not None:
        gt = GroundTruth(gt.labels[keep], gt.label_names, gt.background_label)
    if pred.n != gt.n:
        raise InputError(f"{video_id}: {pred.n} predictions vs {gt.n} labels")
    return video_id, activity, pred, gt


def cmd_eval(args) -> int:
    # A flag of the other mode would be ignored, so it is rejected instead.
    if args.pred is not None:
        if args.pred_dir is not None:
            raise InputError("--pred-dir applies to --manifest mode; --pred names the file")
        if not args.labels:
            raise InputError("--pred mode requires --labels")
        background = "SIL" if args.background_label is None else args.background_label
        gt = io.load_labels(args.labels, background)
        pred_path = Path(args.pred)
        items = [_load_eval_item(pred_path.stem, "all", gt, pred_path, args.tau, args.seed)]
    else:
        if args.labels is not None:
            raise InputError("--labels applies to --pred mode; the manifest names the label files")
        if args.background_label is not None:
            raise InputError("--background-label applies to --pred mode; the manifest sets it")
        manifest = io.load_manifest(args.manifest)
        truths = io.load_ground_truths(manifest)
        pred_dir = Path(args.pred_dir or ".")
        items = [
            _load_eval_item(entry.video_id, entry.activity, truths[entry.video_id],
                            pred_dir / f"{entry.video_id}.seg", args.tau, args.seed)
            for entry in manifest.entries
        ]

    mappings: dict[str, dict[int, int]] = {}
    if args.match_per_activity:
        by_activity: dict[str, list] = {}
        for _, activity, pred, gt in items:
            by_activity.setdefault(activity, []).append((pred, gt))
        mappings = {a: match_across_videos(pairs) for a, pairs in by_activity.items()}
    reports = [
        (video_id, gt, evaluate_pair(pred, gt, mappings.get(activity), args.f1_average))
        for video_id, activity, pred, gt in items
    ]

    agg = aggregate([r for _, _, r in reports], args.aggregate)
    for video_id, gt, rep in reports:
        print(_report_line(f"video {video_id}", rep))
    print(_report_line(f"aggregate ({args.aggregate})", agg))

    if args.json is not None:  # an empty path is still a path to write
        doc = {
            "config": {
                "aggregate": args.aggregate,
                "f1_average": args.f1_average,
                "match_per_activity": bool(args.match_per_activity),
                "seed": args.seed,
                "tau": args.tau,
            },
            "videos": [
                {"video_id": vid, **rep.as_dict(gt.label_names)}
                for vid, gt, rep in reports
            ],
            "aggregate": agg.as_dict(),
        }
        _dump_json(Path(args.json), doc)
    return EXIT_OK


def _report_line(prefix: str, rep) -> str:
    return (
        f"{prefix}: mof {rep.mof:.4f} iou {rep.iou:.4f} f1 {rep.f1:.4f} "
        f"midpoint_p {rep.midpoint_precision:.4f} midpoint_r {rep.midpoint_recall:.4f} "
        f"purity {rep.purity:.4f}"
    )


# ------------------------------------------------------------------ bench

def cmd_bench(args) -> int:
    result = bench.run_scaling_benchmark(
        sizes=args.sizes, dims=args.dims, k=args.k, repeats=args.repeats, seed=args.seed
    )
    for n, seconds in result.rows():
        print(f"n={n:>6d}  {seconds * 1000:10.1f} ms")
    print(f"log-log slope: {result.slope:.3f}")
    if args.json is not None:  # an empty path is still a path to write
        _dump_json(Path(args.json), {
            "dims": result.dims,
            "k": result.k,
            "sizes": list(result.sizes),
            "seconds": list(result.seconds),
            "slope": result.slope,
        })
    return EXIT_OK


# ------------------------------------------------------------------- plot

def cmd_plot(args) -> int:
    names = args.names.split(",") if args.names else []
    if len(names) > len(args.pred):  # an extra name would be dropped, so it is rejected
        raise InputError(f"--names lists {len(names)} names for {len(args.pred)} --pred files")
    full_gt = io.load_labels(args.labels, args.background_label)
    items = [_load_eval_item(p, "all", full_gt, Path(p), tau=None, seed=0) for p in args.pred]
    gt = items[0][3]  # every track is matched against the one ground-truth bar drawn
    tracks = []
    for i, (pred_path, _, pred, pred_gt) in enumerate(items):
        if not np.array_equal(pred_gt.labels, gt.labels):
            raise InputError(f"{pred_path}: covers other frames than {args.pred[0]}")
        name = names[i] if i < len(names) else ""
        tracks.append((name or Path(pred_path).stem, pred))
    io.write_file(args.out, plot.render_segmentation_svg(tracks, gt))
    print(f"wrote {args.out}")
    return EXIT_OK


# ------------------------------------------------------------------ synth

def cmd_synth(args) -> int:
    pattern = tuple(args.repeat_pattern.split()) if args.repeat_pattern else None
    k = args.k if args.k is not None else (len(pattern) if pattern else 4)
    spec = SynthSpec(
        k=k, n=args.n, d=args.dims, sep=args.sep, noise_sigma=args.noise_sigma,
        background_frac=args.background_frac, repeat_pattern=pattern, seed=args.seed,
        background_label=args.background_label,
    )
    seq, gt = generate(spec)
    io.save_features(seq, args.out_features)
    io.save_labels(gt, args.out_labels)
    print(f"wrote {seq.n} frames x {seq.dim} dims to {args.out_features}, "
          f"{gt.num_labels} labels to {args.out_labels}")
    return EXIT_OK


# ----------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """Turns every parse failure into an InputError: one stderr line, exit 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _checked(convert, ok, expected: str):
    """An argparse ``type=`` that converts a flag's text and range-checks it."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value
    return parse


_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_ratio = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
# A slope needs two distinct lengths; a 1-NN graph needs two frames.
_sizes = _checked(lambda text: tuple(int(s) for s in text.split(",")),
                  lambda v: len(set(v)) >= 2 and min(v) >= 2,
                  "at least two distinct comma-separated integers, each >= 2")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twseg",
        description="Training-free temporal action segmentation and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="cluster frames into K segments")
    src = seg.add_mutually_exclusive_group(required=True)
    src.add_argument("--features", help="single feature file (binary or .csv)")
    src.add_argument("--manifest", help="dataset manifest JSON")
    kpol = seg.add_mutually_exclusive_group()
    kpol.add_argument("--k", type=_count,
                      help="fixed cluster count (manifest runs default to the rounded "
                           "mean action count of the video's activity)")
    kpol.add_argument("--k-per-video-gt", action="store_true",
                      help="K = distinct ground-truth labels per video")
    seg.add_argument("--method", choices=baselines.METHODS, default="twfinch")
    seg.add_argument("--output-dir", default=".")
    seg.add_argument("--tau", type=_ratio, default=None,
                     help="fraction of background frames to remove before clustering")
    seg.add_argument("--seed", type=_seed, default=0)
    seg.add_argument("--workers", type=_count, default=1, help="parallel videos")
    seg.set_defaults(func=cmd_segment)

    ev = sub.add_parser("eval", help="score predictions against ground truth")
    esrc = ev.add_mutually_exclusive_group(required=True)
    esrc.add_argument("--manifest", help="dataset manifest JSON (with --pred-dir)")
    esrc.add_argument("--pred", help="single partition file (with --labels)")
    ev.add_argument("--pred-dir", help="directory of <video_id>.seg files, for --manifest "
                    "mode (default: .)")
    ev.add_argument("--labels", help="ground-truth label file, for --pred mode")
    ev.add_argument("--background-label", help="background token of --labels, for --pred "
                    "mode (default: SIL; the manifest sets its own)")
    ev.add_argument("--tau", type=_ratio, default=None)
    ev.add_argument("--seed", type=_seed, default=0)
    ev.add_argument("--match-per-activity", action="store_true",
                    help="pool overlaps across each activity before matching")
    ev.add_argument("--aggregate", choices=("video", "frame"), default="video")
    ev.add_argument("--f1-average", choices=("micro", "macro"), default="micro")
    ev.add_argument("--json", help="also write a JSON report here")
    ev.set_defaults(func=cmd_eval)

    be = sub.add_parser("bench", help="time the pipeline across sequence lengths")
    be.add_argument("--sizes", type=_sizes, default=bench.DEFAULT_SIZES)
    be.add_argument("--dims", type=int, default=64)
    be.add_argument("--k", type=_count, default=2)
    be.add_argument("--repeats", type=_count, default=3)
    be.add_argument("--seed", type=_seed, default=0)
    be.add_argument("--json", help="write timings as JSON here")
    be.set_defaults(func=cmd_bench)

    pl = sub.add_parser("plot", help="render segmentation color bars as SVG")
    pl.add_argument("--labels", required=True, help="ground-truth label file")
    pl.add_argument("--pred", action="append", required=True,
                    help="partition file (repeat for several methods)")
    pl.add_argument("--names", help="comma-separated display names for --pred files, at "
                    "most one each (a missing or empty name is the file's stem)")
    pl.add_argument("--background-label", default="SIL")
    pl.add_argument("--out", required=True, help="output SVG path")
    pl.set_defaults(func=cmd_plot)

    sy = sub.add_parser("synth", help="generate a synthetic feature/label pair")
    sy.add_argument("--k", type=_count, default=None,
                    help="planted run count (default 4, or the repeat-pattern length)")
    sy.add_argument("--n", type=int, default=800)
    sy.add_argument("--dims", type=int, default=64)
    sy.add_argument("--sep", type=float, default=8.0)
    sy.add_argument("--noise-sigma", type=float, default=1.0)
    sy.add_argument("--background-frac", type=float, default=0.0)
    sy.add_argument("--repeat-pattern", help='space-separated classes, e.g. "A B A"')
    sy.add_argument("--seed", type=_seed, default=0)
    sy.add_argument("--background-label", default="BG")
    sy.add_argument("--out-features", required=True,
                    help="feature file: text if named *.csv, binary otherwise")
    sy.add_argument("--out-labels", required=True)
    sy.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TwsegError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
