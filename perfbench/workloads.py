"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Every workload runs TW-FINCH on synthetic videos from ``twseg.synth`` whose
shapes follow the paper's datasets. A pass is everything a user does once:
load the features and labels, segment, write the partitions and score them
against the planted ground truth. The library workloads call
``twseg.segment`` and ``twseg.evaluate_pair``/``aggregate``; the CLI workload
runs ``twseg segment`` and ``twseg eval`` in-process through ``cli.main``.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

import twseg
from twseg import cli, io
from twseg.synth import SynthSpec, generate

END_TO_END = {  # name -> unit, printed by every untraced run
    "frames_per_s": "1/s",
    "mof": "ratio",
    "iou": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
BACKGROUND = "SIL"
# Dirichlet concentration of the planted run lengths: runs of comparable
# length, as in the CLI tests' dataset. At the synth default (1.5) a few very
# short runs decide MoF/IoU, which then spread by 7-13% across seeds on four
# long videos.
RUN_ALPHA = 8.0
CLI_WORKERS = 2
MIN_PASSES = 3


@dataclass(frozen=True)
class Video:
    video_id: str
    activity: str
    spec: SynthSpec
    k: int | None  # K passed to ``segment``; None lets the CLI pick it

    @property
    def n(self) -> int:
        return self.spec.n


def _seeds(seed: int, stream: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def long_d64(seed: int) -> list[Video]:
    sizes = (6000, 7000, 8000, 9000)
    return [
        Video(f"long{i}", "long",
              SynthSpec(k=5, n=n, d=64, background_frac=0.1, seed=s,
                        background_label=BACKGROUND, length_alpha=RUN_ALPHA), k=5)
        for i, (n, s) in enumerate(zip(sizes, _seeds(seed, 1, len(sizes))))
    ]


def manifest_short(seed: int, count: int = 120) -> list[Video]:
    rng = np.random.default_rng([seed, 2])
    sizes = rng.integers(300, 1500, size=count)
    videos = []
    for i, (n, s) in enumerate(zip(sizes, _seeds(seed, 3, count))):
        act = i % 6  # six activities, planted K = 4..9
        videos.append(Video(
            f"short{i:03d}", f"activity{act}",
            SynthSpec(k=4 + act, n=int(n), d=64, background_frac=0.3, seed=s,
                      background_label=BACKGROUND, length_alpha=RUN_ALPHA), None))
    return videos


def wide_d2048(seed: int) -> list[Video]:
    rng = np.random.default_rng([seed, 4])
    sizes = rng.integers(800, 1400, size=6)
    return [
        Video(f"wide{i}", "wide",
              SynthSpec(k=9, n=int(n), d=2048, background_frac=0.6, seed=s,
                        background_label=BACKGROUND, length_alpha=RUN_ALPHA), k=9)
        for i, (n, s) in enumerate(zip(sizes, _seeds(seed, 5, len(sizes))))
    ]


@dataclass
class VideoResult:
    k: int
    clusters: int
    fallback: bool
    seg_sha: str
    labels_sha: str  # of the in-memory labels; the CLI has none to offer
    mof: float
    iou: float
    roundtrip: bool = True  # the written .seg agrees with the reported labels
    error: str | None = None

    def outputs(self) -> tuple:
        return (self.k, self.clusters, self.fallback, self.seg_sha,
                self.labels_sha, self.mof, self.iou)


@dataclass
class PassResult:
    videos: dict[str, VideoResult]
    mof: float
    iou: float
    error: str | None = None  # a failure that spoils every video of the pass


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """Inputs in ``workdir``; ``run_pass`` is the timed part, ``collect``
    turns its raw outputs into a ``PassResult`` for checking."""

    def __init__(self, videos: list[Video], workdir: Path):
        self.videos = videos
        self.workdir = Path(workdir)
        self.manifest_path = self.workdir / "manifest.json"
        self.out_dir = self.workdir / "out"
        self.expected_k = {v.video_id: v.k for v in videos}

    @property
    def frames(self) -> int:
        return sum(v.n for v in self.videos)

    def prepare(self) -> None:
        """Generate every video and write features, labels and a manifest."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        vdir = self.workdir / "videos"
        vdir.mkdir(parents=True)
        self.out_dir.mkdir()
        entries = []
        distinct: dict[str, list[int]] = {}
        for v in self.videos:
            seq, gt = generate(v.spec)
            io.save_features(seq, vdir / f"{v.video_id}.twf")
            (vdir / f"{v.video_id}.labels").write_text(
                "".join(f"{gt.label_names[i]}\n" for i in gt.labels))
            entry = {"video_id": v.video_id, "activity": v.activity,
                     "feature_path": f"videos/{v.video_id}.twf",
                     "label_path": f"videos/{v.video_id}.labels"}
            if v.k is not None:
                entry["k_override"] = v.k
            entries.append(entry)
            distinct.setdefault(v.activity, []).append(gt.distinct_count())
        self.manifest_path.write_text(json.dumps(
            {"background_label": BACKGROUND, "entries": entries}))
        # The CLI's default K is the rounded (half-up) activity mean of the
        # distinct labels per video, background included.
        for v in self.videos:
            if v.k is None:
                vals = distinct[v.activity]
                self.expected_k[v.video_id] = max(1, math.floor(sum(vals) / len(vals) + 0.5))

    def run_pass(self):
        raise NotImplementedError

    def collect(self, raw) -> PassResult:
        raise NotImplementedError


class LibraryWorkload(Workload):
    def run_pass(self):
        raw = {}
        manifest = io.load_manifest(self.manifest_path)
        for entry in manifest.entries:
            vid = entry.video_id
            try:
                seq = io.load_features(entry.feature_path)
                gt = io.load_labels(entry.label_path, manifest.background_label)
                res = twseg.segment(seq, entry.k_override)
                out = self.out_dir / f"{vid}.seg"
                io.save_partition(res.partition, out)
                pred = io.load_partition(out)
                report = twseg.evaluate_pair(pred, gt)
                raw[vid] = (res, pred, report)
            except Exception:  # a failed video is counted, the pass goes on
                raw[vid] = traceback.format_exc()
        reports = [r[2] for r in raw.values() if not isinstance(r, str)]
        agg = twseg.aggregate(reports) if reports else None
        return raw, agg

    def collect(self, raw) -> PassResult:
        per_video, agg = raw
        videos = {}
        for v in self.videos:
            got = per_video.get(v.video_id, "not run")
            if isinstance(got, str):
                videos[v.video_id] = VideoResult(v.k, 0, False, "", "", 0.0, 0.0,
                                                 error=got)
                continue
            res, pred, report = got
            seg = (self.out_dir / f"{v.video_id}.seg").read_bytes()
            videos[v.video_id] = VideoResult(
                k=res.requested_k, clusters=res.k, fallback=res.fallback,
                seg_sha=_sha(seg), labels_sha=_sha(res.partition.labels.tobytes()),
                mof=report.mof, iou=report.iou,
                roundtrip=bool(np.array_equal(pred.labels, res.partition.labels)))
        if agg is None:
            return PassResult(videos, 0.0, 0.0, error="no video segmented")
        return PassResult(videos, agg.mof, agg.iou)


class CliWorkload(Workload):
    def run_pass(self):
        eval_json = self.workdir / "eval.json"
        eval_json.unlink(missing_ok=True)
        try:
            with redirect_stdout(StringIO()):
                seg_code = cli.main(["segment", "--manifest", str(self.manifest_path),
                                     "--output-dir", str(self.out_dir),
                                     "--workers", str(CLI_WORKERS)])
                eval_code = cli.main(["eval", "--manifest", str(self.manifest_path),
                                      "--pred-dir", str(self.out_dir),
                                      "--json", str(eval_json)])
        except Exception:  # counted as a failed pass, like a non-zero exit
            return traceback.format_exc()
        return seg_code, eval_code

    def collect(self, raw) -> PassResult:
        if isinstance(raw, str):
            return PassResult({}, 0.0, 0.0, error=raw.strip().splitlines()[-1])
        seg_code, eval_code = raw
        if seg_code != 0 or eval_code != 0:
            return PassResult({}, 0.0, 0.0,
                              error=f"segment exit {seg_code}, eval exit {eval_code}")
        summary = json.loads((self.out_dir / "run_summary.json").read_text())
        report = json.loads((self.workdir / "eval.json").read_text())
        scores = {r["video_id"]: r for r in report["videos"]}
        videos = {}
        for rec in summary["videos"]:
            vid = rec["video_id"]
            seg = (self.out_dir / rec["path"]).read_bytes()
            ids = seg.split()
            score = scores.get(vid, {"mof": 0.0, "iou": 0.0})
            videos[vid] = VideoResult(
                k=rec["k"], clusters=rec["num_clusters"], fallback=rec["fallback"],
                seg_sha=_sha(seg), labels_sha="", mof=score["mof"], iou=score["iou"],
                roundtrip=len(ids) == rec["n_frames"] and len(set(ids)) == rec["num_clusters"],
                error=None if vid in scores else "not scored")
        agg = report["aggregate"]
        return PassResult(videos, agg["mof"], agg["iou"])


WORKLOADS = {
    "long-d64": (LibraryWorkload, long_d64),
    "manifest-short": (CliWorkload, manifest_short),
    "wide-d2048": (LibraryWorkload, wide_d2048),
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    cls, videos = WORKLOADS[name]
    return cls(videos(seed), workdir)


def failures(w: Workload, result: PassResult,
             reference: PassResult | None) -> dict[str, str]:
    """Video id -> reason, for every video whose output fails a check.

    Checks: each partition has exactly its K clusters or is flagged as a
    fallback, K is the one the workload asked for, the written ``.seg``
    agrees with the labels the run reports, and, against the reference pass,
    ``.seg`` bytes, labels and scores are identical.
    """
    if result.error is not None:
        return {v.video_id: result.error for v in w.videos}
    bad = {}
    for v in w.videos:
        got = result.videos.get(v.video_id)
        if got is None:
            bad[v.video_id] = "missing from the output"
        elif got.error is not None:
            bad[v.video_id] = got.error.strip().splitlines()[-1]
        elif got.k != w.expected_k[v.video_id]:
            bad[v.video_id] = f"K={got.k}, expected {w.expected_k[v.video_id]}"
        elif got.clusters != got.k and not got.fallback:
            bad[v.video_id] = f"{got.clusters} clusters for K={got.k} without fallback"
        elif not got.roundtrip:
            bad[v.video_id] = ".seg disagrees with the reported labels"
        elif reference is not None:
            ref = reference.videos.get(v.video_id)
            if ref is None or got.outputs() != ref.outputs():
                bad[v.video_id] = "output differs from the reference pass"
    if reference is not None and (result.mof, result.iou) != (reference.mof, reference.iou):
        bad.update({v.video_id: "aggregate score differs from the reference pass"
                    for v in w.videos})
    return bad


class Runner:
    """Runs and checks the passes of one workload, counting failed videos."""

    def __init__(self, workload: Workload):
        self.w = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, result) -> None:
        bad = failures(self.w, result, self.reference)
        self.attempted += len(self.w.videos)
        self.failed += len(bad)
        for vid, why in sorted(bad.items())[:5]:
            self.problems.append(f"{vid}: {why}")
        if self.reference is None:
            self.reference = result

    def setup_round(self) -> float:
        start = time.perf_counter()
        self.w.prepare()
        raw = self.w.run_pass()
        elapsed = time.perf_counter() - start
        self.check(self.w.collect(raw))
        return elapsed

    def _pass(self, tracer=None) -> float:
        with tracer.span("bench.pass") if tracer else nullcontext():
            start = time.perf_counter()
            raw = self.w.run_pass()
            elapsed = time.perf_counter() - start
        self.check(self.w.collect(raw))
        return self.w.frames / elapsed

    def timed_passes(self, seconds: float) -> list[float]:
        """Frames per second of each pass, passes repeated for ``seconds``."""
        rates = []
        begin = time.perf_counter()
        while len(rates) < MIN_PASSES or time.perf_counter() - begin < seconds:
            rates.append(self._pass())
        return rates

    def traced_passes(self, seconds: float, tracer) -> tuple[list[float], list[float]]:
        """Frames per second of untraced and of traced passes, alternating
        for ``seconds`` so that drift in machine speed hits both alike. Each
        traced pass is recorded as a ``bench.pass`` span."""
        plain: list[float] = []
        traced: list[float] = []
        begin = time.perf_counter()
        while len(traced) < MIN_PASSES or time.perf_counter() - begin < seconds:
            if len(plain) == len(traced):
                plain.append(self._pass())
                continue
            tracer.install()
            try:
                traced.append(self._pass(tracer))
            finally:
                tracer.uninstall()
        return plain, traced
