import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twseg import io
from twseg.cli import main
from twseg.errors import (
    InputError,
    NonFiniteError,
    OutputError,
    ParseError,
)
from twseg.types import FeatureSequence, GroundTruth, Partition

from reference_impl import growing_label_tables


class TestBinaryFeatures:
    def test_round_trip(self, tmp_path):
        seq = FeatureSequence(np.arange(6, dtype=np.float32).reshape(3, 2), "v")
        path = tmp_path / "v.bin"
        io.save_features(seq, path)
        loaded = io.load_features(path)
        assert loaded.n == 3 and loaded.dim == 2
        assert np.array_equal(loaded.frames, seq.frames)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"XXXXXXXX" + b"\0" * 16)
        with pytest.raises(ParseError, match="bad magic"):
            io.load_features(path)

    def test_truncated_payload(self, tmp_path):
        seq = FeatureSequence(np.ones((4, 3), dtype=np.float32))
        path = tmp_path / "v.bin"
        io.save_features(seq, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(ParseError, match="bytes, found"):
            io.load_features(path)

    def test_nan_payload_rejected(self, tmp_path):
        frames = np.ones((2, 2), dtype=np.float32)
        frames[0, 1] = np.nan
        path = tmp_path / "v.bin"
        path.write_bytes(io.MAGIC + np.array([2, 2], dtype="<u4").tobytes() + frames.tobytes())
        with pytest.raises(NonFiniteError, match="row 0, col 1") as err:
            io.load_features(path)
        assert str(err.value).startswith(f"{path}: ")

    @given(n=st.integers(min_value=1, max_value=12), d=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random(self, tmp_path_factory, n, d, seed):
        rng = np.random.default_rng(seed)
        seq = FeatureSequence(rng.normal(size=(n, d)).astype(np.float32))
        path = tmp_path_factory.mktemp("feat") / "x.bin"
        io.save_features(seq, path)
        assert np.array_equal(io.load_features(path).frames, seq.frames)


class TestCsvFeatures:
    def test_simple(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1,0\n0,1\n")
        seq = io.load_features(path)
        assert seq.n == 2 and seq.dim == 2
        assert np.array_equal(seq.frames, np.array([[1, 0], [0, 1]], dtype=np.float32))

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1,0\n1,oops\n")
        with pytest.raises(ParseError) as err:
            io.load_features(path)
        assert err.value.line == 2

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1,0\n1\n")
        with pytest.raises(ParseError):
            io.load_features(path)

    @pytest.mark.parametrize("text, problem", [
        ("1,0\n1,x\n", "could not convert string to float: 'x'"),
        ("1,0\n1,0,2\n", "expected 2 values"),
    ], ids=["not-a-number", "ragged"])
    def test_errors_name_the_file(self, tmp_path, text, problem):
        path = tmp_path / "v.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            io.load_features(path)
        assert err.value.line == 2
        assert problem in str(err.value) and str(path) in str(err.value)

    def test_agrees_with_binary(self, tmp_path):
        rng = np.random.default_rng(5)
        seq = FeatureSequence(rng.normal(size=(7, 3)).astype(np.float32))
        io.save_features(seq, tmp_path / "a.bin")
        io.save_features(seq, tmp_path / "a.csv")
        a = io.load_features(tmp_path / "a.bin")
        b = io.load_features(tmp_path / "a.csv")
        assert np.array_equal(a.frames, b.frames)

    def test_nan_csv_token_names_the_file(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1,2\n3,nan\n")
        with pytest.raises(NonFiniteError, match="row 1, col 1") as err:
            io.load_features(path)
        assert str(err.value).startswith(f"{path}: ")


class TestLabels:
    def test_simple(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("SIL\npour\npour\nSIL\n")
        gt = io.load_labels(path, "SIL")
        assert gt.n == 4
        assert gt.label_names == ("SIL", "pour")
        assert gt.background_id == 0

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("")
        with pytest.raises(ParseError):
            io.load_labels(path)

    def test_trailing_whitespace_trimmed(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("walk  \n walk\n")
        gt = io.load_labels(path)
        assert gt.label_names == ("walk",)
        assert gt.n == 2


class TestPartitionFiles:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "p.seg"
        io.save_partition(Partition(np.array([0, 0, 1])), path)
        assert path.read_text() == "0\n0\n1\n"

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "p.seg"
        path.write_text("0\nx\n")
        with pytest.raises(ParseError):
            io.load_partition(path)

    @pytest.mark.parametrize("text, problem", [
        ("0\n2\n2\n0\n", "dense"),
        ("0\n-1\n1\n", "non-negative"),
        ("0\n1000000000000\n", "dense"),  # rejected before a count array of that size
    ], ids=["gap", "negative", "id-past-n"])
    def test_bad_cluster_ids_name_the_file(self, tmp_path, text, problem):
        path = tmp_path / "p.seg"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            io.load_partition(path)
        assert "p.seg" in str(err.value) and problem in str(err.value)

    @given(raw=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, tmp_path_factory, raw):
        from twseg.types import relabel_dense

        p = relabel_dense(raw)
        path = tmp_path_factory.mktemp("part") / "p.seg"
        io.save_partition(p, path)
        assert np.array_equal(io.load_partition(path).labels, p.labels)


class TestIntegerLines:
    """``.seg`` and ``.keep`` lines hold ASCII digits after an optional minus
    sign, within int64."""

    @pytest.mark.parametrize("tok, problem", [
        ("1_0", "not an integer"),
        ("\u0663", "not an integer"),  # ARABIC-INDIC DIGIT THREE
        ("+1", "not an integer"),
        ("1-2", "not an integer"),
        ("99999999999999999999", "outside int64"),
        ("9223372036854775808", "outside int64"),
        ("-9223372036854775809", "outside int64"),
        ("9" * 5000, "outside int64"),
    ], ids=["underscore", "non-ascii-digit", "plus", "inner-minus", "huge", "int64-max-plus-1",
            "int64-min-minus-1", "5000-digits"])
    def test_bad_line_names_file_and_line(self, tmp_path, tok, problem):
        path = tmp_path / "v.keep"
        path.write_text(f"0\n{tok}\n2\n")
        with pytest.raises(ParseError) as err:
            io.load_indices(path)
        assert err.value.line == 2 and "v.keep" in str(err.value) and problem in str(err.value)

    def test_int64_bounds_and_leading_zeros_accepted(self, tmp_path):
        path = tmp_path / "v.keep"
        path.write_text("-9223372036854775808\n9223372036854775807\n-0\n" + "0" * 5000 + "7\n")
        assert io.load_indices(path).tolist() == [-2**63, 2**63 - 1, 0, 7]


LINE_FILES = {
    "labels": ("l.txt", ["a", "a", "b", "b"], io.load_labels),
    "partition": ("p.seg", ["0", "0", "1", "1"], io.load_partition),
    "indices": ("v.keep", ["0", "2", "5", "7"], io.load_indices),
    "csv": ("f.csv", ["1,0", "0,1", "1,1", "0,0"], io.load_features),
}


class TestLineFiles:
    """Every frame-aligned text file follows one rule for blank lines."""

    @pytest.mark.parametrize("kind", LINE_FILES)
    def test_inner_blank_line_names_its_line(self, tmp_path, kind):
        name, lines, load = LINE_FILES[kind]
        path = tmp_path / name
        path.write_text("\n".join(lines[:2] + ["  "] + lines[2:]) + "\n")
        with pytest.raises(ParseError) as err:
            load(path)
        assert err.value.line == 3 and name in str(err.value)

    @pytest.mark.parametrize("kind", LINE_FILES)
    def test_undecodable_bytes_name_the_file(self, tmp_path, kind):
        name, lines, load = LINE_FILES[kind]
        path = tmp_path / name
        path.write_bytes("\n".join(lines).encode() + b"\n\xff\xfe\n")
        with pytest.raises(ParseError) as err:
            load(path)
        assert name in str(err.value)

    @pytest.mark.parametrize("kind", LINE_FILES)
    def test_trailing_blank_lines_ignored(self, tmp_path, kind):
        name, lines, load = LINE_FILES[kind]
        plain, padded = tmp_path / f"a-{name}", tmp_path / f"b-{name}"
        plain.write_text("\n".join(lines) + "\n")
        padded.write_text("\n".join(lines) + "\n\n \n")
        a, b = load(plain), load(padded)
        if kind == "csv":
            a, b = a.frames, b.frames
        elif kind != "indices":
            a, b = a.labels, b.labels
        assert np.array_equal(a, b) and len(a) == 4


# Each writer, given a directory, writes one file into it.
SAVES = {
    "features": lambda d: io.save_features(FeatureSequence(np.eye(2)), d / "f.bin"),
    "features-csv": lambda d: io.save_features(FeatureSequence(np.eye(2)), d / "f.csv"),
    "labels": lambda d: io.save_labels(GroundTruth.from_tokens(["a", "b"], "SIL"), d / "l.txt"),
    "partition": lambda d: io.save_partition(Partition([0, 1]), d / "p.seg"),
    "indices": lambda d: io.save_indices(np.array([0, 3]), d / "v.keep"),
    "text": lambda d: io.write_file(d / "r.json", "{}\n"),
}


class TestWrites:
    """Every save goes through io.write_file."""

    @pytest.mark.parametrize("kind", SAVES)
    def test_makes_the_directory(self, tmp_path, kind):
        SAVES[kind](tmp_path / "a" / "b")
        assert len(list((tmp_path / "a" / "b").iterdir())) == 1

    @pytest.mark.parametrize("kind", SAVES)
    def test_under_a_plain_file_raises_output_error(self, tmp_path, kind):
        blocker = tmp_path / "blocker"
        blocker.write_text("a plain file, not a directory")
        with pytest.raises(OutputError, match="blocker"):
            SAVES[kind](blocker / "out")

    def test_line_writers_exact_bytes(self, tmp_path):
        io.save_labels(GroundTruth.from_tokens(["SIL", "pour", "pour"], "SIL"), tmp_path / "l.txt")
        io.save_indices(np.array([0, 2, 15]), tmp_path / "v.keep")
        assert (tmp_path / "l.txt").read_text() == "SIL\npour\npour\n"
        assert (tmp_path / "v.keep").read_text() == "0\n2\n15\n"


def write_video(tmp_path, vid, tokens, n_dims=3, seed=0):
    rng = np.random.default_rng(seed)
    seq = FeatureSequence(rng.normal(size=(len(tokens), n_dims)).astype(np.float32), vid)
    io.save_features(seq, tmp_path / f"{vid}.bin")
    (tmp_path / f"{vid}.txt").write_text("".join(f"{t}\n" for t in tokens))


def write_manifest(tmp_path, entries, **extra):
    doc = {"entries": entries, **extra}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


class TestManifest:
    def test_load_and_order(self, tmp_path):
        write_video(tmp_path, "v1", ["a", "b"])
        write_video(tmp_path, "v2", ["a"])
        path = write_manifest(tmp_path, [
            {"video_id": "v1", "activity": "x", "feature_path": "v1.bin", "label_path": "v1.txt"},
            {"video_id": "v2", "activity": "x", "feature_path": "v2.bin", "label_path": "v2.txt"},
        ])
        m = io.load_manifest(path)
        assert [e.video_id for e in m.entries] == ["v1", "v2"]
        assert m.background_label == "SIL"

    def test_missing_file_names_entry(self, tmp_path):
        write_video(tmp_path, "v1", ["a"])
        path = write_manifest(tmp_path, [
            {"video_id": "v1", "activity": "x", "feature_path": "nope.bin", "label_path": "v1.txt"},
        ])
        with pytest.raises(InputError) as err:
            io.load_manifest(path)
        assert "v1" in str(err.value) and "nope.bin" in str(err.value)

    @pytest.mark.parametrize("label_map", ["", "nope.map"], ids=repr)
    def test_missing_label_map_names_manifest(self, tmp_path, label_map):
        write_video(tmp_path, "v1", ["a"])
        path = write_manifest(tmp_path, [
            {"video_id": "v1", "activity": "x", "feature_path": "v1.bin", "label_path": "v1.txt"},
        ], label_map_path=label_map)
        with pytest.raises(InputError, match="missing label map") as err:
            io.load_manifest(path)
        assert str(path) in str(err.value)

    def test_duplicate_video_id_rejected(self, tmp_path):
        write_video(tmp_path, "v1", ["a"])
        path = write_manifest(tmp_path, [
            {"video_id": "v1", "activity": "x", "feature_path": "v1.bin", "label_path": "v1.txt"},
            {"video_id": "v1", "activity": "x", "feature_path": "v1.bin", "label_path": "v1.txt"},
        ])
        with pytest.raises(InputError):
            io.load_manifest(path)

    @pytest.mark.parametrize("vid", ["", ".", "..", "../escaped", "sub/v1", "sub\\v1", "v\0"],
                             ids=repr)
    def test_video_id_must_be_a_plain_file_name(self, tmp_path, vid):
        write_video(tmp_path, "v1", ["a"])
        path = write_manifest(tmp_path, [
            {"video_id": vid, "activity": "x", "feature_path": "v1.bin", "label_path": "v1.txt"},
        ])
        with pytest.raises(InputError) as err:
            io.load_manifest(path)
        assert "entry 0" in str(err.value) and "video_id" in str(err.value)

    @pytest.mark.parametrize("entries", [{"a": 1}, 1, None], ids=repr)
    def test_entries_not_a_list_names_manifest(self, tmp_path, entries):
        path = write_manifest(tmp_path, entries)
        with pytest.raises(InputError) as err:
            io.load_manifest(path)
        assert str(path) in str(err.value) and "'entries' list" in str(err.value)

    @pytest.mark.parametrize("entry", [1, "v1", ["v1"]], ids=repr)
    def test_entry_not_an_object_names_entry(self, tmp_path, entry):
        path = write_manifest(tmp_path, [entry])
        with pytest.raises(InputError) as err:
            io.load_manifest(path)
        assert "entry 0" in str(err.value) and "JSON object" in str(err.value)

    @pytest.mark.parametrize("k", [0, -3, "3", 2.0, True], ids=repr)
    def test_bad_k_override_names_entry(self, tmp_path, k):
        write_video(tmp_path, "v1", ["a"])
        path = write_manifest(tmp_path, [
            {"video_id": "v1", "activity": "x", "feature_path": "v1.bin",
             "label_path": "v1.txt", "k_override": k},
        ])
        with pytest.raises(InputError) as err:
            io.load_manifest(path)
        assert "v1" in str(err.value) and "k_override" in str(err.value)


    @pytest.mark.parametrize("field, value", [
        ("video_id", ["v1"]), ("activity", ["x"]), ("video_id", 1),
        ("feature_path", 3), ("label_path", 3),
    ], ids=repr)
    def test_bad_field_type_names_entry(self, tmp_path, field, value):
        write_video(tmp_path, "v1", ["a"])
        entry = {"video_id": "v1", "activity": "x", "feature_path": "v1.bin",
                 "label_path": "v1.txt", field: value}
        path = write_manifest(tmp_path, [entry])
        with pytest.raises(InputError) as err:
            io.load_manifest(path)
        assert "entry 0" in str(err.value) and field in str(err.value)

    @pytest.mark.parametrize("option, value", [
        ("background_label", 3), ("background_label", None),
        ("k_counts_background", "no"), ("k_counts_background", 1), ("label_map_path", 5),
    ], ids=repr)
    def test_bad_option_type_names_manifest(self, tmp_path, option, value):
        write_video(tmp_path, "v1", ["a"])
        path = write_manifest(tmp_path, [
            {"video_id": "v1", "activity": "x", "feature_path": "v1.bin",
             "label_path": "v1.txt"},
        ], **{option: value})
        with pytest.raises(InputError) as err:
            io.load_manifest(path)
        assert str(path) in str(err.value) and option in str(err.value)

    @pytest.mark.parametrize("name", ["manifest.json", "labels.map"])
    def test_undecodable_bytes_name_the_file(self, tmp_path, name):
        write_video(tmp_path, "v1", ["a"])
        path = write_manifest(tmp_path, [
            {"video_id": "v1", "activity": "x", "feature_path": "v1.bin",
             "label_path": "v1.txt"},
        ], label_map_path="labels.map")
        (tmp_path / "labels.map").write_text("a\n")
        (tmp_path / name).write_bytes((tmp_path / name).read_bytes() + b"\xff")
        with pytest.raises(ParseError) as err:
            io.load_ground_truths(io.load_manifest(path))
        assert name in str(err.value)


class TestLoadGroundTruths:
    def test_activity_shares_one_growing_table(self, tmp_path):
        write_video(tmp_path, "v1", ["a", "b"])
        write_video(tmp_path, "v2", ["c", "a"])
        write_video(tmp_path, "v3", ["c", "d"])
        entries = [
            {"video_id": v, "activity": act, "feature_path": f"{v}.bin",
             "label_path": f"{v}.txt"}
            for v, act in (("v1", "x"), ("v2", "x"), ("v3", "y"))
        ]
        truths = io.load_ground_truths(io.load_manifest(write_manifest(tmp_path, entries)))
        assert truths["v1"].label_names == truths["v2"].label_names == ("a", "b", "c")
        assert truths["v2"].labels.tolist() == [2, 0]
        assert truths["v3"].label_names == ("c", "d")

    def test_pinned_map_seeds_every_activity(self, tmp_path):
        write_video(tmp_path, "v1", ["b", "e"])
        write_video(tmp_path, "v2", ["a", "e"])
        (tmp_path / "labels.map").write_text("a\n\nb\n")
        entries = [
            {"video_id": v, "activity": act, "feature_path": f"{v}.bin",
             "label_path": f"{v}.txt"}
            for v, act in (("v1", "x"), ("v2", "y"))
        ]
        manifest = io.load_manifest(write_manifest(tmp_path, entries,
                                                   label_map_path="labels.map"))
        truths = io.load_ground_truths(manifest)
        assert truths["v1"].label_names == truths["v2"].label_names == ("a", "b", "e")
        assert truths["v1"].labels.tolist() == [1, 2]

    # "a\x00" and "a" are two labels; numpy's fixed-width strings would merge them.
    TOKENS = st.sampled_from(["a", "a\x00", "b", "SIL", "é"])

    @given(videos=st.lists(st.tuples(st.sampled_from("xyz"),
                                      st.lists(TOKENS, min_size=1, max_size=8)),
                           min_size=1, max_size=6),
           pinned=st.none() | st.lists(TOKENS, unique=True, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_tables_and_ids_match_the_growing_table_oracle(self, tmp_path_factory, videos,
                                                           pinned):
        tmp_path = tmp_path_factory.mktemp("truths")
        entries, named = [], []
        for i, (activity, tokens) in enumerate(videos):
            vid = f"v{i}"
            (tmp_path / f"{vid}.bin").write_bytes(b"")  # present; not read here
            (tmp_path / f"{vid}.txt").write_text("".join(f"{t}\n" for t in tokens))
            entries.append({"video_id": vid, "activity": activity,
                            "feature_path": f"{vid}.bin", "label_path": f"{vid}.txt"})
            named.append((vid, activity, tokens))
        extra = {}
        if pinned is not None:
            (tmp_path / "labels.map").write_text("".join(f"{t}\n\n" for t in pinned))
            extra["label_map_path"] = "labels.map"
        truths = io.load_ground_truths(io.load_manifest(write_manifest(tmp_path, entries,
                                                                       **extra)))
        expected = growing_label_tables(named, pinned)
        assert {vid: (gt.label_names, gt.labels.tolist())
                for vid, gt in truths.items()} == expected

    def test_repeated_map_token_names_file_and_line(self, tmp_path, capsys):
        write_video(tmp_path, "v1", ["SIL", "pour", "SIL"])
        (tmp_path / "labels.map").write_text("SIL\n\npour\n SIL\n")
        path = write_manifest(tmp_path, [
            {"video_id": "v1", "activity": "x", "feature_path": "v1.bin",
             "label_path": "v1.txt"},
        ], label_map_path="labels.map")
        with pytest.raises(ParseError, match=r"line 4: .*labels\.map: 'SIL' already listed"):
            io.load_ground_truths(io.load_manifest(path))
        assert main(["segment", "--manifest", str(path), "--k", "2",
                     "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "labels.map" in err[0] and "line 4" in err[0]
        assert not (tmp_path / "out").exists()


class TestComputeActivityK:
    def _manifest(self, tmp_path, label_sets, **extra):
        entries = []
        for i, tokens in enumerate(label_sets):
            vid = f"v{i}"
            write_video(tmp_path, vid, tokens, seed=i)
            entries.append({"video_id": vid, "activity": "cook",
                            "feature_path": f"{vid}.bin", "label_path": f"{vid}.txt"})
        return io.load_manifest(write_manifest(tmp_path, entries, **extra))

    def test_mean_of_distinct_counts(self, tmp_path):
        # Videos with 4, 6, 8 distinct labels -> k = 6.
        sets = [
            [f"a{i}" for i in range(4)],
            [f"b{i}" for i in range(6)],
            [f"c{i}" for i in range(8)],
        ]
        m = self._manifest(tmp_path, sets)
        assert io.compute_activity_k(m, io.load_ground_truths(m)) == {"cook": 6}

    def test_single_video_activity(self, tmp_path):
        m = self._manifest(tmp_path, [["a", "b", "c"]])
        assert io.compute_activity_k(m, io.load_ground_truths(m)) == {"cook": 3}

    def test_half_up_rounding(self, tmp_path):
        sets = [[f"a{i}" for i in range(5)], [f"b{i}" for i in range(6)]]
        m = self._manifest(tmp_path, sets)
        assert io.compute_activity_k(m, io.load_ground_truths(m)) == {"cook": 6}

    def test_background_excluded_by_flag(self, tmp_path):
        sets = [["SIL", "a", "b"], ["SIL", "a", "b"]]
        m = self._manifest(tmp_path, sets, k_counts_background=False)
        assert io.compute_activity_k(m, io.load_ground_truths(m)) == {"cook": 2}
