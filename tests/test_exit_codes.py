"""The exit-code contract by property: one valid dataset, one mutation of one
input file, then ``main``. Whatever the mutation, the CLI exits 0, 2 (bad
input) or 3 (unwritable output), never 1 (a traceback) or 4 (an internal
check), and a failure prints exactly one stderr line, which names the file.
A mismatch found across files names the video instead, whose id is the
file's stem here."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twseg import io
from twseg.cli import main

from tests_support import make_manifest_dataset

N_FRAMES = 60

# A whole line's replacement: out of int64, negative, underscored, a
# non-ASCII digit, NaN, a float, blank, or an id past the frame count (which
# Partition rejects before it counts ids, so no huge array is asked for).
BAD_TOKENS = ["99999999999999999999", "-1", "1_0", "٣", "nan", "1e3", "", "1000000000000"]

text_mutation = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 7)),
    st.tuples(st.just("blank"), st.integers(0, 10**6)),
    st.tuples(st.just("repeat"), st.integers(0, 10**6)),
    st.tuples(st.just("token"), st.integers(0, 10**6), st.sampled_from(BAD_TOKENS)),
    st.tuples(st.just("bom")),
    st.tuples(st.just("crlf")),
)
binary_mutation = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 7)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=8)),
)
# A manifest field set to a value of another type, a field dropped, or a
# key listed twice (the last one wins in JSON).
JSON_VALUES = [None, True, 3, -1, 2.5, "", "x", [], ["v1"], {}]
json_mutation = st.one_of(
    text_mutation,
    st.tuples(st.just("field"), st.sampled_from(
        ["entries", "background_label", "k_counts_background", "video_id", "activity",
         "feature_path", "label_path", "label_map_path", "k"]), st.sampled_from(JSON_VALUES)),
    st.tuples(st.just("drop"), st.sampled_from(
        ["entries", "video_id", "activity", "feature_path", "label_path"])),
    st.tuples(st.just("duplicate"), st.sampled_from(["video_id", "feature_path"])),
)

PROPERTY = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def mutate(data: bytes, mutation) -> bytes:
    kind, *arg = mutation
    if kind == "truncate":
        return data[:arg[0] % max(len(data), 1)]
    if kind == "flip":
        i = arg[0] % len(data)
        return data[:i] + bytes([data[i] ^ (1 << arg[1])]) + data[i + 1:]
    if kind == "append":
        return data + arg[0]
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    lines = data.split(b"\n")
    i = arg[0] % len(lines)
    if kind == "blank":
        return b"\n".join(lines[:i] + [b""] + lines[i:])
    if kind == "repeat":
        return b"\n".join(lines[:i] + [lines[i]] + lines[i:])
    if kind == "token":
        return b"\n".join(lines[:i] + [arg[1].encode()] + lines[i + 1:])
    raise AssertionError(kind)


def mutate_manifest(data: bytes, mutation) -> bytes:
    kind, *arg = mutation
    if kind not in ("field", "drop", "duplicate"):
        return mutate(data, mutation)
    doc = json.loads(data)
    entry = doc["entries"][0]
    if kind == "duplicate":  # a second copy of the key, with another value
        text = json.dumps(doc)
        key = json.dumps(arg[0])
        return text.replace(f"{key}: ", f"{key}: \"other\", {key}: ", 1).encode()
    target = entry if arg[0] in entry or arg[0] == "k" else doc
    if kind == "drop":
        target.pop(arg[0], None)
    else:
        target[arg[0]] = arg[1]
    return json.dumps(doc).encode()


def dataset(tmp_path):
    """One video of N_FRAMES frames with background, its manifest, a
    label map, a segmentation with .seg and .keep files under ``out``."""
    manifest = make_manifest_dataset(tmp_path, [("v1", "cook", 3, 5)], n=N_FRAMES, d=4,
                                     background_frac=0.3, background_label="SIL")
    tokens = (tmp_path / "v1.txt").read_text().split()
    (tmp_path / "labels.map").write_text("".join(f"{t}\n" for t in dict.fromkeys(tokens)))
    doc = json.loads(manifest.read_text())
    doc["label_map_path"] = "labels.map"
    manifest.write_text(json.dumps(doc))
    io.save_features(io.load_features(tmp_path / "v1.bin"), tmp_path / "v1.csv")
    assert main(["segment", "--manifest", str(manifest), "--k", "3", "--tau", "0.5",
                 "--output-dir", str(tmp_path / "out")]) == 0
    return manifest


def assert_contract(argv, path, capsys):
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert code in (0, 2, 3), err
    if code:
        assert len(err) == 1, err
        assert path.name in err[0] or path.stem in err[0], err


def run_mutated(tmp_path_factory, capsys, name, mutation, command, *, mutator=mutate):
    tmp_path = tmp_path_factory.mktemp("contract")
    manifest = dataset(tmp_path)
    path = tmp_path / name
    path.write_bytes(mutator(path.read_bytes(), mutation))
    out = str(tmp_path / "again")
    argv = {
        "features": ["segment", "--features", str(path), "--k", "3", "--output-dir", out],
        "manifest": ["segment", "--manifest", str(manifest), "--k", "3", "--tau", "0.5",
                     "--output-dir", out],
        "pair": ["eval", "--pred", str(tmp_path / "out" / "v1.seg"),
                 "--labels", str(tmp_path / "v1.txt")],
        "eval": ["eval", "--manifest", str(manifest), "--pred-dir", str(tmp_path / "out"),
                 "--tau", "0.5"],
    }[command]
    assert_contract(argv, path, capsys)


@PROPERTY
@given(binary_mutation)
def test_binary_features(tmp_path_factory, capsys, mutation):
    run_mutated(tmp_path_factory, capsys, "v1.bin", mutation, "features")


@PROPERTY
@given(text_mutation)
def test_csv_features(tmp_path_factory, capsys, mutation):
    run_mutated(tmp_path_factory, capsys, "v1.csv", mutation, "features")


@PROPERTY
@given(text_mutation)
def test_labels(tmp_path_factory, capsys, mutation):
    run_mutated(tmp_path_factory, capsys, "v1.txt", mutation, "pair")


@PROPERTY
@given(text_mutation)
def test_seg(tmp_path_factory, capsys, mutation):
    run_mutated(tmp_path_factory, capsys, "out/v1.seg", mutation, "pair")


@PROPERTY
@given(text_mutation)
def test_keep(tmp_path_factory, capsys, mutation):
    run_mutated(tmp_path_factory, capsys, "out/v1.keep", mutation, "eval")


@PROPERTY
@given(json_mutation)
def test_manifest(tmp_path_factory, capsys, mutation):
    run_mutated(tmp_path_factory, capsys, "manifest.json", mutation, "manifest",
                mutator=mutate_manifest)


@PROPERTY
@given(text_mutation)
def test_label_map(tmp_path_factory, capsys, mutation):
    run_mutated(tmp_path_factory, capsys, "labels.map", mutation, "eval")


def test_mutations_change_the_bytes():
    data = b"0\n1\n2\n"
    assert mutate(data, ("truncate", 4)) == b"0\n1\n"
    assert mutate(data, ("flip", 2, 0)) == b"0\n0\n2\n"
    assert mutate(data, ("blank", 1)) == b"0\n\n1\n2\n"
    assert mutate(data, ("repeat", 1)) == b"0\n1\n1\n2\n"
    assert mutate(data, ("token", 2, "1_0")) == b"0\n1\n1_0\n"
    assert mutate(data, ("crlf",)) == b"0\r\n1\r\n2\r\n"
    doc = {"entries": [{"video_id": "v1"}]}
    twice = mutate_manifest(json.dumps(doc).encode(), ("duplicate", "video_id"))
    assert twice == b'{"entries": [{"video_id": "other", "video_id": "v1"}]}'
    assert json.loads(twice)["entries"][0]["video_id"] == "v1"
