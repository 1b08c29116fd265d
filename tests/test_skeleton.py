import json

import numpy as np
import pytest

from gesturepipe.errors import IoError, MalformedJson, NoPerson, WrongArity
from gesturepipe.skeleton import (
    N_KEYPOINTS,
    GestureLabel,
    Pose,
    Sequence,
    load_sequence,
    parse_openpose_frame,
    read_sequence,
    write_sequence,
)

from conftest import make_openpose_doc, random_pose


class TestParseOpenposeFrame:
    def test_all_zero_values_mean_all_missing(self):
        pose = parse_openpose_frame(make_openpose_doc())
        assert not any(pose.present(i) for i in range(N_KEYPOINTS))

    def test_no_person(self):
        doc = json.dumps({"people": []})
        with pytest.raises(NoPerson):
            parse_openpose_frame(doc)

    def test_known_triple_round_trips(self):
        values = [0.0] * 75
        values[3:6] = [320.0, 180.5, 0.93]  # keypoint 1
        pose = parse_openpose_frame(make_openpose_doc(values))
        assert tuple(pose.kp[1]) == (320.0, 180.5, 0.93)

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            parse_openpose_frame(make_openpose_doc([0.0] * 74))

    def test_malformed_json(self):
        with pytest.raises(MalformedJson):
            parse_openpose_frame("{not json")

    def test_missing_people_key(self):
        with pytest.raises(MalformedJson):
            parse_openpose_frame(json.dumps({"version": 1.3}))

    def test_multi_person_takes_first_and_warns(self, caplog):
        values = [1.0] * 75
        with caplog.at_level("WARNING"):
            pose = parse_openpose_frame(make_openpose_doc(values, n_people=3))
        assert pose.present(0)
        assert any("3 people" in r.message for r in caplog.records)


class TestPoseInvariants:
    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            Pose(np.zeros((24, 3)))

    def test_confidence_out_of_range_rejected(self):
        kp = np.zeros((N_KEYPOINTS, 3))
        kp[0, 2] = 1.5
        with pytest.raises(ValueError):
            Pose(kp)

    def test_non_finite_rejected(self):
        kp = np.zeros((N_KEYPOINTS, 3))
        kp[3, 0] = np.nan
        with pytest.raises(ValueError):
            Pose(kp)

    def test_array_is_read_only(self, rng):
        pose = random_pose(rng)
        with pytest.raises(ValueError):
            pose.kp[0, 0] = 1.0


class TestLoadSequence:
    def _write_frames(self, path, names_and_docs):
        for name, doc in names_and_docs:
            (path / name).write_text(doc)

    def test_directory_ordered_by_filename(self, tmp_path):
        docs = []
        for i in range(3):
            values = [0.0] * 75
            values[0] = float(i)  # keypoint 0 x encodes the frame id
            values[2] = 1.0
            docs.append(make_openpose_doc(values))
        # create in shuffled order so mtimes cannot drive the ordering
        self._write_frames(
            tmp_path, [("frame_02.json", docs[2]), ("frame_00.json", docs[0]), ("frame_01.json", docs[1])]
        )
        seq = load_sequence(tmp_path, fps=30.0)
        assert len(seq) == 3
        assert [p.kp[0, 0] for p in seq.frames] == [0.0, 1.0, 2.0]
        assert seq.fps == 30.0

    def test_empty_directory(self, tmp_path):
        with pytest.raises(IoError, match="no frames"):
            load_sequence(tmp_path, fps=30.0)

    def test_missing_path(self, tmp_path):
        with pytest.raises(IoError):
            load_sequence(tmp_path / "nope", fps=30.0)

    def test_jsonl_reports_frame_index_of_bad_line(self, tmp_path):
        good = make_openpose_doc()
        path = tmp_path / "frames.jsonl"
        path.write_text(good + "\n" + good + "\n" + "{broken\n" + good + "\n")
        with pytest.raises(MalformedJson, match="frame 2"):
            load_sequence(path, fps=30.0)

    def test_jsonl_roundtrip(self, tmp_path):
        values = [1.0] * 75
        path = tmp_path / "frames.jsonl"
        path.write_text(make_openpose_doc(values) + "\n")
        seq = load_sequence(path, fps=25.0)
        assert len(seq) == 1


class TestSequenceFileFormat:
    def test_pose_round_trip_is_bitwise(self, tmp_path, rng):
        frames = tuple(random_pose(rng) for _ in range(5))
        seq = Sequence(frames, fps=30.0, label=GestureLabel.LeftHandWave, view_angle_deg=-15.0)
        path = tmp_path / "seq.jsonl"
        write_sequence(path, seq)
        loaded = read_sequence(path)
        assert len(loaded) == len(seq)
        for a, b in zip(seq.frames, loaded.frames):
            assert np.array_equal(a.kp, b.kp)
        assert loaded.fps == 30.0
        assert loaded.label is GestureLabel.LeftHandWave
        assert loaded.view_angle_deg == -15.0

    def test_unlabeled_sequence_round_trips(self, tmp_path, rng):
        seq = Sequence((random_pose(rng),), fps=12.5)
        path = tmp_path / "seq.jsonl"
        write_sequence(path, seq)
        loaded = read_sequence(path)
        assert loaded.label is None
        assert loaded.view_angle_deg is None

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            read_sequence(tmp_path / "missing.jsonl")

    def test_read_reports_bad_frame(self, tmp_path, rng):
        seq = Sequence((random_pose(rng),), fps=30.0)
        path = tmp_path / "seq.jsonl"
        write_sequence(path, seq)
        with open(path, "a") as fh:
            fh.write('{"kp": [[1, 2]]}\n')
        with pytest.raises(MalformedJson, match="frame 1"):
            read_sequence(path)


class TestSequenceInvariants:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequence((), fps=30.0)

    def test_nonpositive_fps_rejected(self, rng):
        with pytest.raises(ValueError):
            Sequence((random_pose(rng),), fps=0.0)
