"""Hostile input against every file reader of the package.

The readers share ``skeleton.load_json``; the table below feeds each of them
the tokens that one step must refuse, a second test gives each a name twice
in one object, and the property mutates valid files of all five reading
functions, the depth table's included. A frame's refusal carries its file,
frame and place as fields, which one renderer words.
"""
import json
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturepipe import augment, nn, speed
from gesturepipe.errors import MalformedJson, NoPerson, PipelineError, at
from gesturepipe.features import Encoding
from gesturepipe.skeleton import GestureLabel, Sequence, load_sequence, read_sequence, write_sequence

from conftest import make_openpose_doc, random_pose

TINY = nn.ModelConfig(input_dim=5, output_dim=3, hidden_dims=(8, 8), gru_hidden=4, head_dims=(4,), seed=7)

# each hostile token and what the refusal says of it; a float beyond range
# reads as inf, which each reader's own finiteness check refuses
HOSTILE = {
    "nested": (b"[" * 60_000 + b"]" * 60_000, "maximum recursion depth"),
    "NaN": (b"NaN", "NaN is not a finite JSON number"),
    "Infinity": (b"Infinity", "Infinity is not a finite JSON number"),
    "-Infinity": (b"-Infinity", "-Infinity is not a finite JSON number"),
    "1e400": (b"1e400", None),
    "10**400": (b"1" + b"0" * 400, "100000000000... is not a finite JSON number"),
    "0xff": (b"\xff", "'utf-8' codec can't decode byte 0xff"),
}


def sequence_file(path):
    rng = np.random.default_rng(0)
    write_sequence(path, Sequence([random_pose(rng) for _ in range(3)], 30.0, GestureLabel.LeftHandWave, 15.0))
    return path.read_bytes()


def openpose_file():
    doc = make_openpose_doc([12.5, 20, 0.75] * 25)
    return (doc + "\n" + doc + "\n").encode()


def start_position_file():
    table = speed.default_start_positions(Encoding.COORDINATE)
    doc = {"encoding": "coordinate", "positions": {label.name: row.tolist() for label, row in table.items()}}
    return json.dumps(doc).encode()


def weight_file(path):
    nn.save_model(path, nn.init_params(TINY), Encoding.ANGLE)
    return path.read_bytes()


def depth_table_file():
    return resources.files("gesturepipe").joinpath("data/depths.json").read_bytes()


def first_number(data, token):
    """``data`` with its first JSON number replaced by ``token``."""
    return re.sub(rb"-?\d[\d.eE+-]*", lambda _: token, data, count=1)


# each writes a valid file with its first number replaced by a token, and
# returns the read and the start of its refusal message
def hostile_openpose(path, token, cause):
    first, second, _ = openpose_file().split(b"\n")
    path.write_bytes(first + b"\n" + second.replace(b"12.5", token, 1))
    where = f"{path}: frame 1 (line 2): "
    return lambda: load_sequence(path, 30.0), where + (
        f"document: {cause}" if cause else "pose_keypoints_2d is not an array of 75 finite JSON numbers")


def hostile_metadata(path, token, cause):
    meta, rest = sequence_file(path).split(b"\n", 1)
    path.write_bytes(meta.replace(b"30.0", token, 1) + b"\n" + rest)
    return lambda: read_sequence(path), f"{path}: " + (f"bad metadata line: {cause}" if cause else "fps must be finite")


def hostile_frame(path, token, cause):
    meta, first, second, rest = sequence_file(path).split(b"\n", 3)
    second = first_number(second, token)
    path.write_bytes(b"\n".join([meta, first, second, rest]))
    return lambda: read_sequence(path), f"{path}: frame 1 (line 3): " + (cause or "keypoint 0 has a non-finite value")


def hostile_weight_header(path, token, cause):
    path.write_bytes(weight_file(path).replace(b'"seed": 7', b'"seed": ' + token, 1))
    if len(token) > nn.HEADER_LIMIT:  # refused unread, before any parse
        return lambda: nn.load_model(path), f"{path}: weight header is longer than {nn.HEADER_LIMIT} bytes"
    return lambda: nn.load_model(path), f"{path}: bad weight header: " + (
        cause or "ValueError('config seed is not an integer: inf')")


def hostile_start_positions(path, token, cause):
    path.write_bytes(first_number(start_position_file(), token))
    return lambda: speed.load_start_positions(path), f"{path}: " + (
        f"bad start-position file: {cause}" if cause
        else f"{speed.CYCLIC_GESTURES[0].name} start position is not an array of 18 finite JSON numbers")


def hostile_depth_table(path, token, cause):
    path.write_bytes(first_number(depth_table_file(), token))
    return lambda: augment.load_depth_table(path), f"{path}: " + (
        f"bad depth table: {cause}" if cause else "StandStill depth row is not an array of 6 finite JSON numbers")


@pytest.mark.parametrize("case", HOSTILE)
@pytest.mark.parametrize("reader", [hostile_openpose, hostile_metadata, hostile_frame, hostile_weight_header,
                                    hostile_start_positions, hostile_depth_table],
                         ids=["openpose", "sequence-metadata", "sequence-frame", "weight-header", "start-positions",
                              "depth-table"])
def test_hostile_json_refused(tmp_path, reader, case):
    token, cause = HOSTILE[case]
    read, message = reader(tmp_path / "file", token, cause)
    with pytest.raises(MalformedJson) as exc:
        read()
    assert str(exc.value).startswith(message)


# a bad frame after a blank line, or in a directory after a file that is no frame, refused
# by the frame's parser or by the sequence's check: the refusal keeps its class and names
# the file, the frame counted from 0 and its line counted from 1, or its file
@pytest.mark.parametrize("refused_by", ["parser", "check"])
@pytest.mark.parametrize("kind", ["sequence-file", "openpose-jsonl", "openpose-directory"])
def test_frame_refusal_names_file_frame_and_line(tmp_path, kind, refused_by):
    bad_pose = np.tile([12.5, 20.0, 0.75], (25, 1))
    bad_pose[3, 2] = 1.5
    cause, error = "keypoint 3 has a confidence outside [0, 1]", MalformedJson
    path = tmp_path / "input"
    if kind == "sequence-file":
        meta, first, _ = sequence_file(path).split(b"\n", 2)
        bad = {"kp": bad_pose.tolist()}
        if refused_by == "parser":
            bad, cause = {"kp": "x"}, "a keypoint value is not a JSON number"
        path.write_bytes(b"\n".join([meta, first, b"", json.dumps(bad).encode(), b""]))
        place = "line 4"
    else:
        good, bad = make_openpose_doc(), make_openpose_doc(bad_pose.ravel())
        if refused_by == "parser":
            bad, cause, error = '{"people": []}', "no person detected in frame", NoPerson
        if kind == "openpose-jsonl":
            path.write_text("\n".join([good, "", bad]) + "\n")
            place = "line 3"
        else:
            path.mkdir()
            (path / "f_00.json").write_text(good)
            (path / "f_01.txt").write_text("")
            (path / "f_02.json").write_text(bad)
            place = "f_02.json"
    with pytest.raises(PipelineError) as exc:
        read_sequence(path) if kind == "sequence-file" else load_sequence(path, 30.0)
    assert type(exc.value) is error
    assert (exc.value.path, exc.value.frame, exc.value.place) == (path, 1, place)
    assert str(exc.value) == f"{path}: frame 1 ({place}): {cause}"


# PipelineError words the fields a refusal carries, leaving out each one unset;
# a place is worded only beside its frame
@pytest.mark.parametrize("where, message", [
    ({}, "cause"),
    ({"frame": 0}, "frame 0: cause"),
    ({"path": Path("d/f.jsonl")}, "d/f.jsonl: cause"),
    ({"path": Path("d/f.jsonl"), "frame": 3}, "d/f.jsonl: frame 3: cause"),
    ({"frame": 3, "place": "line 5"}, "frame 3 (line 5): cause"),
    ({"path": Path("d"), "frame": 3, "place": "f_03.json"}, "d: frame 3 (f_03.json): cause"),
    ({"path": Path("d"), "place": "line 5"}, "d: cause"),
])
def test_refusal_words_the_fields_it_carries(where, message):
    error = at(NoPerson("cause"), **where)
    assert str(error) == message
    assert (error.path, error.frame, error.place) == tuple(where.get(f) for f in ("path", "frame", "place"))


# a mutation replaces, inserts or cuts one token: a string, a number, a word,
# a run of whitespace or any other single byte
TOKEN = re.compile(rb'"[^"\n]*"|-?\d[\d.eE+-]*|[A-Za-z]+|\s+|.', re.DOTALL)
REPLACEMENTS = [
    b"\xff", b"\xc3", b"NaN", b"Infinity", b"-Infinity", b"1e400", b"1" + b"0" * 400, b"-0", b"7",
    b"true", b"null", b'"x"', b'"kp"', b'"fps"', b"[", b"]", b"{", b"}", b",", b":", b"\n", b" ", b"#",
]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("valid")
    return {
        "read_sequence": (sequence_file(scratch / "seq.jsonl"), read_sequence),
        "load_sequence": (openpose_file(), lambda path: load_sequence(path, 30.0)),
        "load_start_positions": (start_position_file(), speed.load_start_positions),
        "load_model": (weight_file(scratch / "weights.gpw"), nn.load_model),
        "load_depth_table": (depth_table_file(), augment.load_depth_table),
    }


@pytest.mark.parametrize("reader", ["read_sequence", "load_sequence", "load_start_positions", "load_model",
                                    "load_depth_table"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_file_is_read_or_refused(valid_files, tmp_path_factory, reader, data):
    valid, read = valid_files[reader]
    if reader == "load_model":  # mutate the header line; the tensor bytes have no tokens
        valid, blob = valid.split(b"\n", 1)
    tokens = TOKEN.findall(valid)
    i = data.draw(st.integers(0, len(tokens) - 1), label="token")
    edit = data.draw(st.sampled_from(["replace", "insert", "cut"]), label="edit")
    tokens[i:i + (edit != "insert")] = [] if edit == "cut" else [data.draw(st.sampled_from(REPLACEMENTS))]
    mutant = b"".join(tokens) + (b"\n" + blob if reader == "load_model" else b"")
    path = tmp_path_factory.getbasetemp() / f"mutant-{reader}"
    path.write_bytes(mutant)
    try:
        read(path)
    except PipelineError:
        pass


# each reader's valid file with a pair put ahead of the first use of a name, in the
# same object: json's default decoder would keep the last pair and read the file
DUPLICATES = [
    ("load_sequence", "people", "[]"),
    ("read_sequence", "fps", "1.0"),  # the metadata line
    ("read_sequence", "kp", "[]"),  # frame 0
    ("load_model", "seed", "8"),
    ("load_start_positions", "CallToPass", "[]"),
    ("load_depth_table", "StandStill", "[]"),
]


@pytest.mark.parametrize("reader, name, value", DUPLICATES, ids=[
    "openpose", "sequence-metadata", "sequence-frame", "weight-header", "start-positions", "depth-table"])
def test_name_given_twice_refused(valid_files, tmp_path, reader, name, value):
    valid, read = valid_files[reader]
    path = tmp_path / "file"
    path.write_bytes(valid.replace(f'"{name}"'.encode(), f'"{name}": {value}, "{name}"'.encode(), 1))
    with pytest.raises(MalformedJson, match=f"name '{name}' is given twice$"):
        read(path)
