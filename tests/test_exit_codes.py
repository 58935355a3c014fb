"""The exit-code contract by property: one valid dataset, one mutation of one
input file, then ``main``. Whatever the mutation, the CLI exits 0, 2 (bad
input) or 3 (unwritable output), never 1 (a traceback) or 4 (an internal
check), and a failure prints exactly one stderr line, which names the file.
A mismatch found across files names the video instead, whose id is the
file's stem here. A warning would print on stderr too, so none may be raised."""

import json
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
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
# A CSV feature file's first cell replaced: past float32's range, or not finite.
csv_mutation = st.one_of(
    text_mutation,
    st.tuples(st.just("cell"), st.integers(0, 10**6),
              st.sampled_from(["1e39", "-1e39", "nan", "inf"])),
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
    if kind == "cell":
        cells = lines[i].split(b",")
        return b"\n".join(lines[:i] + [b",".join([arg[1].encode(), *cells[1:]])] + lines[i + 1:])
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert not caught, [str(w.message) for w in caught]
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
@given(csv_mutation)
@example(("cell", 1, "1e39"))
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
    assert mutate(b"1,2\n3,4\n", ("cell", 1, "1e39")) == b"1,2\n1e39,4\n"
    doc = {"entries": [{"video_id": "v1"}]}
    twice = mutate_manifest(json.dumps(doc).encode(), ("duplicate", "video_id"))
    assert twice == b'{"entries": [{"video_id": "other", "video_id": "v1"}]}'
    assert json.loads(twice)["entries"][0]["video_id"] == "v1"


# ------------------------------------------------------------------ flags
# The same contract over flags: one flag of one valid command line gets a
# bad value. No value is a large count, so no example starts many threads
# (--workers stays at most 2) or runs long (--sizes and --n stay at 60).
# MISSING names a file that does not exist; UNWRITABLE, one whose parent
# is a regular file.
MISSING, UNWRITABLE = "<missing>", "<unwritable>"
BAD_FLAG_VALUES = ["-1", "0", "nan", "inf", "-inf", "", "abc", "2.5", MISSING, UNWRITABLE]


def command_lines(tmp_path, manifest):
    """One valid command line per subcommand and input mode, on ``dataset``."""
    out, seg, labels = tmp_path / "out", str(tmp_path / "out" / "v1.seg"), str(tmp_path / "v1.txt")
    return {
        "segment-features": [
            "segment", "--features", str(tmp_path / "v1.bin"), "--k", "3",
            "--method", "kmeans", "--seed", "0", "--output-dir", str(tmp_path / "seg")],
        "segment-manifest": [
            "segment", "--manifest", str(manifest), "--k", "3", "--tau", "0.5",
            "--workers", "2", "--output-dir", str(tmp_path / "seg")],
        "eval-pair": [
            "eval", "--pred", seg, "--labels", labels, "--background-label", "SIL",
            "--seed", "0", "--aggregate", "frame", "--f1-average", "macro",
            "--json", str(tmp_path / "eval.json")],
        "eval-manifest": [
            "eval", "--manifest", str(manifest), "--pred-dir", str(out), "--tau", "0.5",
            "--json", str(tmp_path / "eval.json")],
        "bench": [
            "bench", "--sizes", "20,60", "--dims", "4", "--k", "2", "--repeats", "1",
            "--seed", "0", "--json", str(tmp_path / "bench.json")],
        "plot": [
            "plot", "--labels", labels, "--pred", seg, "--names", "tw",
            "--background-label", "SIL", "--out", str(tmp_path / "plot.svg")],
        "synth": [
            "synth", "--k", "3", "--n", "60", "--dims", "4", "--sep", "8",
            "--noise-sigma", "1", "--background-frac", "0.2", "--repeat-pattern", "A B A",
            "--seed", "0", "--background-label", "BG",
            "--out-features", str(tmp_path / "s.bin"), "--out-labels", str(tmp_path / "s.txt")],
    }


FLAG_SITES = [(name, i) for name, argv in command_lines(Path("."), Path("m.json")).items()
              for i, token in enumerate(argv) if token.startswith("--")]


def test_every_command_line_is_valid(tmp_path, monkeypatch, capsys):
    manifest = dataset(tmp_path)
    monkeypatch.chdir(tmp_path)
    for name, argv in command_lines(tmp_path, manifest).items():
        assert main(argv) == 0, (name, capsys.readouterr().err)


@PROPERTY
@given(st.sampled_from(FLAG_SITES), st.sampled_from(BAD_FLAG_VALUES))
def test_flags(tmp_path_factory, monkeypatch, capsys, site, value):
    tmp_path = tmp_path_factory.mktemp("flags")
    manifest = dataset(tmp_path)
    (tmp_path / "a-file").write_text("")
    name, i = site
    argv = command_lines(tmp_path, manifest)[name]
    argv[i + 1] = {MISSING: str(tmp_path / "missing" / "x.txt"),
                   UNWRITABLE: str(tmp_path / "a-file" / "x.txt")}.get(value, value)
    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.chdir(tmp_path)  # a relative path lands in this example's directory
        code = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert code in (0, 2, 3), (argv, err)
    assert len(err) == (1 if code else 0), (argv, err)
    outputs = [argv[j + 1] for j, flag in enumerate(argv)
               if flag in ("--json", "--out", "--out-features", "--out-labels")]
    assert code or all((tmp_path / out).is_file() for out in outputs), (argv, "no output file")
