import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import twseg
from twseg import io
from twseg.baselines import METHODS
from twseg.cli import main
from twseg.synth import SynthSpec, generate
from twseg.types import FeatureSequence

from tests_support import make_manifest_dataset


# The CLI tests' datasets: 160 frames, no background unless asked, SIL.
make_dataset = partial(make_manifest_dataset, n=160, background_frac=0.0,
                       background_label="SIL")


class TestSegmentCommand:
    def test_single_feature_file(self, tmp_path, capsys):
        seq, _ = generate(SynthSpec(k=4, n=120, d=8, seed=0))
        io.save_features(seq, tmp_path / "v.bin")
        out = tmp_path / "out"
        code = main(["segment", "--features", str(tmp_path / "v.bin"),
                     "--k", "4", "--method", "twfinch", "--output-dir", str(out)])
        assert code == 0
        p = io.load_partition(out / "v.seg")
        assert p.num_clusters == 4
        assert (out / "run_summary.json").is_file()

    def test_manifest_defaults_to_activity_average(self, tmp_path):
        manifest = make_dataset(tmp_path, [("v1", "cook", 4, 0), ("v2", "cook", 4, 1)])
        out = tmp_path / "out"
        code = main(["segment", "--manifest", str(manifest), "--output-dir", str(out)])
        assert code == 0
        assert (out / "v1.seg").is_file() and (out / "v2.seg").is_file()

    def test_manifest_with_activity_average_k(self, tmp_path):
        manifest = make_dataset(tmp_path, [
            ("v1", "cook", 4, 0), ("v2", "cook", 4, 1),
        ])
        out = tmp_path / "out"
        code = main(["segment", "--manifest", str(manifest), "--output-dir", str(out)])
        assert code == 0
        assert (out / "v1.seg").is_file() and (out / "v2.seg").is_file()

    def test_manifest_parses_each_label_file_once(self, tmp_path, monkeypatch):
        manifest = make_dataset(tmp_path, [("v1", "cook", 4, 0), ("v2", "cook", 4, 1)])
        parsed = []
        real = io.load_labels
        monkeypatch.setattr(io, "load_labels",
                            lambda path, *a: parsed.append(path.name) or real(path, *a))
        code = main(["segment", "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert sorted(parsed) == ["v1.txt", "v2.txt"]

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["segment", "--features", str(tmp_path / "missing.bin"), "--k", "3"])
        assert code == 2
        assert "missing.bin" in capsys.readouterr().err

    def test_csv_value_past_float32_one_stderr_line_exit_2(self, tmp_path, capsys):
        # Warnings as errors: numpy's overflow warning would print on stderr too.
        path = tmp_path / "big.csv"
        path.write_text("1,2\n3,1e39\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["segment", "--features", str(path), "--k", "1",
                         "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {path}: non-finite value at row 1, col 1"]

    @pytest.mark.parametrize("source", ["features", "manifest"])
    def test_rejected_sequence_names_its_input_exit_2(self, tmp_path, capsys, source):
        # One frame, or K past the frame count: the segmenter's own checks.
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 5)])
        if source == "features":
            io.save_features(FeatureSequence(np.ones((1, 8))), tmp_path / "one.bin")
            argv, name = ["--features", str(tmp_path / "one.bin"), "--k", "1"], "one.bin"
        else:
            argv, name = ["--manifest", str(manifest), "--k", "500", "--method", "kmeans"], "v1"
        code = main(["segment", *argv, "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and name in err[0]

    def test_missing_k_policy_exit_2(self, tmp_path):
        seq, _ = generate(SynthSpec(k=2, n=40, d=8, seed=0))
        io.save_features(seq, tmp_path / "v.bin")
        assert main(["segment", "--features", str(tmp_path / "v.bin")]) == 2

    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_run(self, tmp_path, method):
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 2)])
        out = tmp_path / method
        code = main(["segment", "--manifest", str(manifest), "--k", "3",
                     "--method", method, "--output-dir", str(out)])
        assert code == 0
        assert io.load_partition(out / "v1.seg").num_clusters == 3


class TestArgumentChecks:
    """Out-of-range flag values exit 2 with one line naming the flag."""

    @pytest.mark.parametrize("flag, argv", [
        ("--k", ["segment", "--features", "{features}", "--k", "0"]),
        ("--k", ["segment", "--features", "{features}", "--k", "-2"]),
        ("--tau", ["segment", "--manifest", "{manifest}", "--tau", "-0.5"]),
        ("--tau", ["eval", "--manifest", "{manifest}", "--pred-dir", "{out}", "--tau", "1.5"]),
        ("--workers", ["segment", "--manifest", "{manifest}", "--workers", "0"]),
        ("--repeats", ["bench", "--sizes", "200,400", "--repeats", "0"]),
        ("--sizes", ["bench", "--sizes", "200"]),
        ("--sizes", ["bench", "--sizes", "200,200"]),
        ("--sizes", ["bench", "--sizes", "1,200"]),
        ("--sizes", ["bench", "--sizes", "200,abc"]),
        ("--k", ["segment", "--features", "{features}", "--k", "abc"]),
        ("--workers", ["segment", "--manifest", "{manifest}", "--workers", "1.5"]),
        ("--k-per-video-gt", ["segment", "--manifest", "{manifest}", "--k", "3",
                              "--k-per-video-gt"]),
        ("--bogus", ["segment", "--features", "{features}", "--k", "3", "--bogus"]),
        # A flag of eval's other input mode would be ignored, so it is rejected.
        ("--labels", ["eval", "--manifest", "{manifest}", "--pred-dir", "{out}",
                      "--labels", "nonexistent.txt"]),
        ("--background-label", ["eval", "--manifest", "{manifest}", "--pred-dir", "{out}",
                                "--background-label", "SIL"]),
        ("--pred-dir", ["eval", "--pred", "{out}/v1.seg", "--labels", "{labels}",
                        "--pred-dir", "{out}"]),
        # A name past the last --pred file would be dropped, so it is rejected.
        ("--names", ["plot", "--labels", "{labels}", "--pred", "{out}/v1.seg",
                     "--names", "a,b,c", "--out", "{out}/fig.svg"]),
    ], ids=["segment-k-zero", "segment-k-negative", "segment-tau", "eval-tau",
            "segment-workers", "bench-repeats", "bench-one-size", "bench-repeated-size",
            "bench-size-one", "bench-size-not-int", "segment-k-not-int",
            "segment-workers-not-int", "segment-two-k-policies", "segment-unknown-flag",
            "eval-manifest-labels", "eval-manifest-background-label", "eval-pred-pred-dir",
            "plot-extra-names"])
    def test_bad_value_exit_2(self, tmp_path, capsys, flag, argv):
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 15)])
        out = tmp_path / "out"
        paths = {"features": tmp_path / "v1.bin", "manifest": manifest, "out": out,
                 "labels": tmp_path / "v1.txt"}
        argv = [a.format(**paths) for a in argv]
        if argv[0] == "segment":
            argv += ["--output-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and flag in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["segment", "--manifest", "{manifest}", "--method", "kmeans", "--k", "3"],
        ["segment", "--manifest", "{manifest}", "--tau", "1.0"],
        ["eval", "--manifest", "{manifest}", "--pred-dir", "{out}", "--tau", "1.0"],
        ["bench", "--sizes", "20,40", "--repeats", "1"],
        ["synth", "--n", "40", "--out-features", "{out}/v.bin", "--out-labels", "{out}/v.txt"],
    ], ids=["segment-kmeans", "segment-tau", "eval-tau", "bench", "synth"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, argv):
        # A dataset with background frames, so --tau draws with the seed.
        manifest = make_manifest_dataset(tmp_path, [("v1", "cook", 3, 15)], n=160,
                                         background_label="SIL")
        out = tmp_path / "out"
        argv = [a.format(manifest=manifest, out=out) for a in argv] + ["--seed", "-1"]
        if argv[0] == "segment":
            argv += ["--output-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--seed" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["segment", "--features", "", "--k", "3"],
        ["eval", "--pred", "", "--labels", "{labels}"],
    ], ids=["segment-features", "eval-pred"])
    def test_empty_input_path_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        # An empty path names the working directory, which is no file; it
        # must not fall through to the manifest mode, which has no manifest.
        make_dataset(tmp_path, [("v1", "cook", 3, 15)])
        monkeypatch.chdir(tmp_path)
        assert main([a.format(labels=tmp_path / "v1.txt") for a in argv]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


class TestConsole:
    """``python -m twseg`` as a user runs it, in a fresh interpreter."""

    def run(self, *argv):
        env = {**os.environ, "PYTHONPATH": str(Path(twseg.__file__).parents[1])}
        return subprocess.run([sys.executable, "-m", "twseg", *argv],
                              capture_output=True, text=True, env=env)

    def test_parse_error_exit_2_with_one_line(self, tmp_path):
        proc = self.run("segment", "--features", str(tmp_path / "x.bin"), "--k", "abc")
        assert proc.returncode == 2
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and "--k" in err[0]

    def test_help_exit_0(self):
        proc = self.run("segment", "--help")
        assert proc.returncode == 0
        assert "--workers" in proc.stdout

    def test_import_leaves_out_scipy(self):
        # numpy is the only runtime dependency; SciPy would add about 20 MB
        # of resident memory to every process.
        env = {**os.environ, "PYTHONPATH": str(Path(twseg.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, twseg.cli; print(*sorted(sys.modules))"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert "twseg.evaluate" in loaded and "twseg.hierarchy" in loaded
        assert not [m for m in loaded if m.split(".")[0] == "scipy"]

    def test_runs_where_scipy_cannot_be_imported(self, tmp_path):
        # A finder ahead of every other makes any scipy import fail, as in an
        # environment with numpy alone; synth, segment and eval still run.
        script = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"no module named {name!r}")

sys.meta_path.insert(0, NoScipy())
from twseg.cli import main

for argv in (["synth", "--k", "3", "--n", "120", "--dims", "8",
              "--out-features", "s.bin", "--out-labels", "s.txt"],
             ["segment", "--features", "s.bin", "--k", "3", "--output-dir", "out"],
             ["eval", "--pred", "out/s.seg", "--labels", "s.txt", "--background-label", "BG",
              "--json", "eval.json"]):
    code = main(argv)
    if code:
        sys.exit(f"{argv[0]} exited {code}")
sys.exit(sorted(m for m in sys.modules if m.split(".")[0] == "scipy") or None)
"""
        env = {**os.environ, "PYTHONPATH": str(Path(twseg.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        for name in ("s.bin", "s.txt", "out/s.seg", "out/run_summary.json", "eval.json"):
            assert (tmp_path / name).stat().st_size > 0, name
        assert json.loads((tmp_path / "eval.json").read_text())["aggregate"]["mof"] > 0.5


class TestEvalCommand:
    def test_perfect_predictions(self, tmp_path, capsys):
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 4)])
        gt = io.load_labels(tmp_path / "v1.txt")
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        from twseg.types import relabel_dense

        io.save_partition(relabel_dense(gt.labels), pred_dir / "v1.seg")
        report = tmp_path / "report.json"
        code = main(["eval", "--manifest", str(manifest), "--pred-dir", str(pred_dir),
                     "--json", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mof 1.0000" in out
        doc = json.loads(report.read_text())
        assert doc["aggregate"]["mof"] == 1.0
        assert doc["videos"][0]["video_id"] == "v1"

    def test_single_pair_mode(self, tmp_path, capsys):
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 5)])
        gt = io.load_labels(tmp_path / "v1.txt")
        from twseg.types import relabel_dense

        io.save_partition(relabel_dense(gt.labels), tmp_path / "p.seg")
        code = main(["eval", "--pred", str(tmp_path / "p.seg"),
                     "--labels", str(tmp_path / "v1.txt")])
        assert code == 0
        assert "mof 1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["99999999999999999999", "1000000000000", "1_0", "\u0663"],
                             ids=["huge", "id-past-n", "underscore", "non-ascii-digit"])
    def test_bad_seg_line_exit_2(self, tmp_path, capsys, bad):
        make_dataset(tmp_path, [("v1", "cook", 3, 5)])
        gt = io.load_labels(tmp_path / "v1.txt")
        lines = [str(v) for v in gt.labels[:-1]] + [bad]
        (tmp_path / "p.seg").write_text("".join(f"{v}\n" for v in lines))
        code = main(["eval", "--pred", str(tmp_path / "p.seg"),
                     "--labels", str(tmp_path / "v1.txt")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "p.seg" in err[0]

    def test_length_mismatch_names_video_exit_2(self, tmp_path, capsys):
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 6)])
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        (pred_dir / "v1.seg").write_text("0\n0\n1\n")
        code = main(["eval", "--manifest", str(manifest), "--pred-dir", str(pred_dir)])
        assert code == 2
        assert "v1" in capsys.readouterr().err

    def test_tau_background_filtering_deterministic(self, tmp_path, capsys):
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 7)], background_frac=0.4)
        out = tmp_path / "out"
        code = main(["segment", "--manifest", str(manifest), "--k-per-video-gt",
                     "--tau", "0.75", "--seed", "0", "--output-dir", str(out)])
        assert code == 0
        assert (out / "v1.keep").is_file()
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        for r in (r1, r2):
            assert main(["eval", "--manifest", str(manifest), "--pred-dir", str(out),
                         "--tau", "0.75", "--seed", "0", "--json", str(r)]) == 0
        assert r1.read_text() == r2.read_text()

    @pytest.mark.parametrize("edit", [
        lambda keep: keep[:-1] + ["500"],          # past the video's last frame
        lambda keep: keep[:-1] + [keep[-2]],       # repeated index
        lambda keep: keep[:2] + [""] + keep[2:],   # blank line inside the file
        lambda keep: [],                           # no frame at all
        lambda keep: keep[:-1] + ["99999999999999999999"],  # outside int64
        lambda keep: keep[:-1] + ["1_0"],          # underscore
        lambda keep: keep[:-1] + ["\u0663"],       # non-ASCII digit
    ], ids=["out-of-range", "not-increasing", "inner-blank-line", "empty", "huge",
            "underscore", "non-ascii-digit"])
    def test_bad_keep_file_exit_2(self, tmp_path, capsys, edit):
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 7)], background_frac=0.4)
        out = tmp_path / "out"
        assert main(["segment", "--manifest", str(manifest), "--k", "3",
                     "--tau", "0.5", "--output-dir", str(out)]) == 0
        keep_path = out / "v1.keep"
        keep = keep_path.read_text().split()
        keep_path.write_text("".join(f"{v}\n" for v in edit(keep)))
        capsys.readouterr()
        assert main(["eval", "--manifest", str(manifest), "--pred-dir", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "v1.keep" in err[0]

    def test_match_per_activity_flag(self, tmp_path):
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 8), ("v2", "cook", 3, 9)])
        out = tmp_path / "out"
        main(["segment", "--manifest", str(manifest), "--k", "3", "--output-dir", str(out)])
        report = tmp_path / "r.json"
        code = main(["eval", "--manifest", str(manifest), "--pred-dir", str(out),
                     "--match-per-activity", "--aggregate", "frame", "--json", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["config"]["match_per_activity"] is True


    def test_match_per_activity_with_unequal_k(self, tmp_path):
        # v1 and v2 share an activity but have 5 and 6 distinct labels.
        manifest = make_manifest_dataset(tmp_path)
        out = tmp_path / "out"
        assert main(["segment", "--manifest", str(manifest), "--k-per-video-gt",
                     "--output-dir", str(out)]) == 0
        report = tmp_path / "r.json"
        assert main(["eval", "--manifest", str(manifest), "--pred-dir", str(out),
                     "--match-per-activity", "--json", str(report)]) == 0
        videos = json.loads(report.read_text())["videos"]
        assert [v["video_id"] for v in videos] == ["v1", "v2", "v3"]
        # One pooled mapping per activity, reported for each of its videos.
        assert videos[0]["mapping"] == videos[1]["mapping"]
        assert len(videos[1]["mapping"]) == 6

    def test_manifest_order_leaves_each_record_unchanged(self, tmp_path):
        # k=6 leaves spare clusters; reversed, v1 is read after v2 and its
        # activity table carries a label v1 never uses.
        manifest = make_manifest_dataset(tmp_path)
        out = tmp_path / "out"
        assert main(["segment", "--manifest", str(manifest), "--k", "6",
                     "--output-dir", str(out)]) == 0
        doc = json.loads(manifest.read_text())
        doc["entries"].reverse()
        reversed_manifest = tmp_path / "reversed.json"
        reversed_manifest.write_text(json.dumps(doc))
        records = []
        for m in (manifest, reversed_manifest):
            report = tmp_path / f"{m.stem}-report.json"
            assert main(["eval", "--manifest", str(m), "--pred-dir", str(out),
                         "--json", str(report)]) == 0
            records.append({v["video_id"]: v for v in json.loads(report.read_text())["videos"]})
        assert records[0] == records[1]

    @pytest.mark.parametrize("segment_flags, eval_flags", [
        ([], []),
        (["--tau", "0.5"], []),
        ([], ["--tau", "0.5"]),
    ], ids=["full-length", "segment-tau", "eval-tau"])
    def test_pred_mode_record_equals_manifest_record(self, tmp_path, segment_flags,
                                                     eval_flags):
        manifest = make_manifest_dataset(tmp_path)
        out = tmp_path / "out"
        assert main(["segment", "--manifest", str(manifest), "--k-per-video-gt",
                     "--seed", "3", *segment_flags, "--output-dir", str(out)]) == 0
        report = tmp_path / "manifest-report.json"
        assert main(["eval", "--manifest", str(manifest), "--pred-dir", str(out),
                     "--seed", "3", *eval_flags, "--json", str(report)]) == 0
        for record in json.loads(report.read_text())["videos"]:
            vid = record["video_id"]
            single = tmp_path / f"{vid}-report.json"
            assert main(["eval", "--pred", str(out / f"{vid}.seg"),
                         "--labels", str(tmp_path / f"{vid}.txt"), "--background-label", "BG",
                         "--seed", "3", *eval_flags, "--json", str(single)]) == 0
            assert json.loads(single.read_text())["videos"] == [record]


class TestMalformedPartition:
    @pytest.mark.parametrize("text", ["0\n2\n2\n0\n", "0\n-1\n1\n0\n"],
                             ids=["gap", "negative"])
    @pytest.mark.parametrize("command", ["eval", "plot"])
    def test_exit_2_naming_the_file(self, tmp_path, capsys, command, text):
        (tmp_path / "v.txt").write_text("a\na\nb\nb\n")
        (tmp_path / "bad.seg").write_text(text)
        argv = {
            "eval": ["eval", "--pred", str(tmp_path / "bad.seg"),
                     "--labels", str(tmp_path / "v.txt")],
            "plot": ["plot", "--labels", str(tmp_path / "v.txt"),
                     "--pred", str(tmp_path / "bad.seg"), "--out", str(tmp_path / "f.svg")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "bad.seg" in err[0]


class TestMalformedInput:
    """A manifest field of the wrong type, or a text input that does not
    decode, exits 2 with one stderr line naming the manifest or the file."""

    @pytest.mark.parametrize("key, value", [
        ("video_id", ["v1"]), ("activity", ["cook"]), ("feature_path", 1),
        ("label_map_path", 1), ("background_label", 3), ("k_counts_background", "no"),
    ], ids=repr)
    def test_manifest_field_type_exit_2(self, tmp_path, capsys, key, value):
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 17)])
        doc = json.loads(manifest.read_text())
        (doc["entries"][0] if key in doc["entries"][0] else doc)[key] = value
        manifest.write_text(json.dumps(doc))
        assert main(["segment", "--manifest", str(manifest), "--k", "3",
                     "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "manifest.json" in err[0] and key in err[0]

    def test_empty_label_map_path_exit_2(self, tmp_path, capsys):
        # "" names the manifest's directory, which is no file: the run must
        # not go on as if no map were given.
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 17)])
        doc = json.loads(manifest.read_text())
        doc["label_map_path"] = ""
        manifest.write_text(json.dumps(doc))
        assert main(["segment", "--manifest", str(manifest), "--k", "3",
                     "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "missing label map" in err[0]
        assert not (tmp_path / "out").exists()

    def test_video_id_with_a_path_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        manifest = make_dataset(data, [("v1", "cook", 3, 17)])
        doc = json.loads(manifest.read_text())
        doc["entries"][0]["video_id"] = "../escaped"
        manifest.write_text(json.dumps(doc))
        before = sorted(tmp_path.rglob("*"))
        assert main(["segment", "--manifest", str(manifest), "--k", "3",
                     "--output-dir", str(data / "out")]) == 2
        assert sorted(tmp_path.rglob("*")) == before
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "'../escaped'" in err[0] and "entry 0" in err[0]

    @pytest.mark.parametrize("command, bad", [
        ("segment", "v1.txt"), ("segment", "manifest.json"), ("eval", "p.seg"),
    ], ids=["label-file", "manifest", "pred-file"])
    def test_undecodable_text_exit_2(self, tmp_path, capsys, command, bad):
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 17)])
        (tmp_path / "p.seg").write_text("0\n" * 160)
        (tmp_path / bad).write_bytes(b"\xff" + (tmp_path / bad).read_bytes())
        argv = {
            "segment": ["segment", "--manifest", str(manifest), "--k", "3",
                        "--output-dir", str(tmp_path / "out")],
            "eval": ["eval", "--pred", str(tmp_path / "p.seg"),
                     "--labels", str(tmp_path / "v1.txt")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and bad in err[0]


class TestWriteGuard:
    @pytest.mark.parametrize("command", ["segment", "synth"])
    def test_unwritable_output_exit_3(self, tmp_path, capsys, command):
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 16)])
        blocker = tmp_path / "blocker"
        blocker.write_text("a plain file, not a directory")
        argv = {
            "segment": ["segment", "--manifest", str(manifest), "--k", "3",
                        "--output-dir", str(blocker / "out")],
            "synth": ["synth", "--n", "90", "--out-features", str(tmp_path / "s.bin"),
                      "--out-labels", str(blocker / "s.txt")],
        }[command]
        assert main(argv) == 3
        assert "blocker" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "bench"])
    def test_empty_json_path_exit_3(self, tmp_path, monkeypatch, capsys, command):
        # An empty path names the working directory, which is no file to write.
        make_dataset(tmp_path, [("v1", "cook", 3, 16)])
        monkeypatch.chdir(tmp_path)
        assert main(["segment", "--features", "v1.bin", "--k", "3", "--output-dir", "out"]) == 0
        argv = {
            "eval": ["eval", "--pred", "out/v1.seg", "--labels", "v1.txt"],
            "bench": ["bench", "--sizes", "20,60", "--dims", "4", "--repeats", "1"],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--json", ""]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write")


class TestPlotCommand:
    def test_svg_written(self, tmp_path):
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 10)])
        out = tmp_path / "out"
        main(["segment", "--manifest", str(manifest), "--k", "3", "--output-dir", str(out)])
        svg = tmp_path / "fig.svg"
        code = main(["plot", "--labels", str(tmp_path / "v1.txt"),
                     "--pred", str(out / "v1.seg"), "--names", "twfinch",
                     "--out", str(svg)])
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<?xml") and "<svg" in text

    def test_keep_file_honoured(self, tmp_path):
        manifest = make_manifest_dataset(tmp_path)
        out = tmp_path / "out"
        assert main(["segment", "--manifest", str(manifest), "--k-per-video-gt",
                     "--tau", "0.5", "--output-dir", str(out)]) == 0
        svg = tmp_path / "fig.svg"
        assert main(["plot", "--labels", str(tmp_path / "v1.txt"), "--background-label", "BG",
                     "--pred", str(out / "v1.seg"), "--out", str(svg)]) == 0
        assert svg.read_text().startswith("<?xml")

    def test_preds_covering_other_frames_exit_2(self, tmp_path, capsys):
        manifest = make_manifest_dataset(tmp_path)
        for name, flags in (("full", []), ("kept", ["--tau", "0.5"])):
            assert main(["segment", "--manifest", str(manifest), "--k-per-video-gt",
                         *flags, "--output-dir", str(tmp_path / name)]) == 0
        capsys.readouterr()
        assert main(["plot", "--labels", str(tmp_path / "v1.txt"), "--background-label", "BG",
                     "--pred", str(tmp_path / "full" / "v1.seg"),
                     "--pred", str(tmp_path / "kept" / "v1.seg"),
                     "--out", str(tmp_path / "fig.svg")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(tmp_path / "kept" / "v1.seg") in err[0]
        assert not (tmp_path / "fig.svg").exists()

    def test_unwritable_output_exit_3(self, tmp_path):
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 11)])
        out = tmp_path / "out"
        main(["segment", "--manifest", str(manifest), "--k", "3", "--output-dir", str(out)])
        blocker = tmp_path / "blocker"
        blocker.write_text("a plain file, not a directory")
        code = main(["plot", "--labels", str(tmp_path / "v1.txt"),
                     "--pred", str(out / "v1.seg"),
                     "--out", str(blocker / "fig.svg")])
        assert code == 3

    def test_names_with_markup_characters_give_valid_svg(self, tmp_path):
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 11)])
        assert main(["segment", "--manifest", str(manifest), "--k", "3",
                     "--output-dir", str(tmp_path / "out")]) == 0
        pred = tmp_path / "a&b.seg"
        pred.write_bytes((tmp_path / "out" / "v1.seg").read_bytes())
        svg = tmp_path / "fig.svg"
        assert main(["plot", "--labels", str(tmp_path / "v1.txt"), "--pred", str(pred),
                     "--pred", str(pred), "--names", "x<y", "--out", str(svg)]) == 0
        texts = [t.text for t in ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert texts == ["ground truth", "x<y", "a&b"]  # the second name is the file's stem

    def test_empty_name_falls_back_to_the_stem(self, tmp_path):
        manifest = make_dataset(tmp_path, [("v1", "cook", 3, 11)])
        assert main(["segment", "--manifest", str(manifest), "--k", "3",
                     "--output-dir", str(tmp_path / "out")]) == 0
        pred = tmp_path / "out" / "v1.seg"
        svg = tmp_path / "fig.svg"
        assert main(["plot", "--labels", str(tmp_path / "v1.txt"), "--pred", str(pred),
                     "--pred", str(pred), "--names", ",x", "--out", str(svg)]) == 0
        texts = [t.text for t in ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert texts == ["ground truth", "v1", "x"]


class TestSynthCommand:
    def test_emits_loadable_files(self, tmp_path):
        code = main(["synth", "--k", "3", "--n", "90", "--dims", "6", "--seed", "1",
                     "--out-features", str(tmp_path / "s.bin"),
                     "--out-labels", str(tmp_path / "s.txt")])
        assert code == 0
        seq = io.load_features(tmp_path / "s.bin")
        gt = io.load_labels(tmp_path / "s.txt", "BG")
        assert seq.n == 90 and gt.n == 90

    def test_csv_format(self, tmp_path):
        code = main(["synth", "--k", "2", "--n", "30", "--dims", "4",
                     "--out-features", str(tmp_path / "s.csv"),
                     "--out-labels", str(tmp_path / "s.txt")])
        assert code == 0
        assert io.load_features(tmp_path / "s.csv").n == 30

    def test_csv_output_segments(self, tmp_path):
        assert main(["synth", "--k", "3", "--n", "60", "--dims", "4",
                     "--out-features", str(tmp_path / "s.csv"),
                     "--out-labels", str(tmp_path / "s.txt")]) == 0
        assert main(["segment", "--features", str(tmp_path / "s.csv"), "--k", "3",
                     "--output-dir", str(tmp_path / "out")]) == 0
        assert io.load_partition(tmp_path / "out" / "s.seg").num_clusters == 3

    @pytest.mark.parametrize("label", ["", " BG"])
    def test_label_that_does_not_read_back_exit_2(self, tmp_path, capsys, label):
        code = main(["synth", "--n", "30", "--dims", "4", "--background-frac", "0.2",
                     "--background-label", label,
                     "--out-features", str(tmp_path / "s.bin"),
                     "--out-labels", str(tmp_path / "s.txt")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "background_label" in err[0]
        assert not list(tmp_path.iterdir())

    def test_label_of_a_planted_run_exit_2(self, tmp_path, capsys):
        code = main(["synth", "--k", "2", "--n", "40", "--dims", "4", "--background-frac", "0.3",
                     "--background-label", "act1#1",
                     "--out-features", str(tmp_path / "s.bin"),
                     "--out-labels", str(tmp_path / "s.txt")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "label of a planted run" in err[0]
        assert not list(tmp_path.iterdir())


class TestBenchCommand:
    def test_smoke_small_sizes(self, tmp_path, capsys):
        code = main(["bench", "--sizes", "60,120", "--dims", "6", "--k", "3",
                     "--repeats", "1", "--json", str(tmp_path / "b.json")])
        assert code == 0
        doc = json.loads((tmp_path / "b.json").read_text())
        assert doc["sizes"] == [60, 120]
        assert "slope" in doc


class TestDeterminism:
    def test_runs_and_worker_counts_byte_identical(self, tmp_path):
        manifest = make_dataset(tmp_path, [
            ("v1", "cook", 3, 12), ("v2", "cook", 4, 13), ("v3", "tidy", 3, 14),
        ])
        outputs = {}
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "8")):
            out = tmp_path / tag
            code = main(["segment", "--manifest", str(manifest), "--k-per-video-gt",
                         "--workers", workers, "--output-dir", str(out)])
            assert code == 0
            outputs[tag] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix == ".seg"
            }
        assert outputs["a"] == outputs["b"] == outputs["c"]
