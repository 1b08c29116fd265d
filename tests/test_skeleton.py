import json
import math

import numpy as np
import pytest

from gesturepipe import skeleton
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
        kp = parse_openpose_frame(make_openpose_doc())
        assert kp.shape == (N_KEYPOINTS, 3)
        assert not (kp[:, 2] > 0.0).any()

    def test_no_person(self):
        doc = json.dumps({"people": []})
        with pytest.raises(NoPerson):
            parse_openpose_frame(doc)

    def test_known_triple_round_trips(self):
        values = [0.0] * 75
        values[3:6] = [320.0, 180.5, 0.93]  # keypoint 1
        kp = parse_openpose_frame(make_openpose_doc(values))
        assert tuple(kp[1]) == (320.0, 180.5, 0.93)

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
            kp = parse_openpose_frame(make_openpose_doc(values, n_people=3))
        assert kp[0, 2] > 0.0
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

    def test_reports_first_frame_with_bad_values(self, tmp_path):
        good = make_openpose_doc()
        values = [0.0] * 75
        values[5] = 1.5  # keypoint 1 confidence
        path = tmp_path / "frames.jsonl"
        path.write_text(good + "\n\n" + good + "\n" + make_openpose_doc(values) + "\n")
        with pytest.raises(MalformedJson, match=r"frame 2: keypoint 1 .*\(line 3\)"):
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

    @pytest.mark.parametrize("field, value", [
        ("view_angle_deg", "15"), ("view_angle_deg", math.nan), ("view_angle_deg", True),
        ("fps", math.inf), ("fps", 0.0), ("fps", "30"), ("fps", True), ("fps", 10**400),
    ])
    def test_read_refuses_bad_metadata_values(self, tmp_path, rng, field, value):
        path = tmp_path / "seq.jsonl"
        write_sequence(path, Sequence((random_pose(rng),), fps=30.0))
        meta, frame = path.read_text().splitlines()
        path.write_text(json.dumps({**json.loads(meta), field: value}) + "\n" + frame + "\n")
        with pytest.raises(MalformedJson, match=f"seq.jsonl: {field} must be"):
            read_sequence(path)

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
        # blank lines are not frames: a bad frame 1 after one stays frame 1
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "", *lines[1:]]) + "\n")
        with pytest.raises(MalformedJson, match="frame 1"):
            read_sequence(path)
        kp = np.array(seq.kp)
        kp[0, 4, 2] = -0.5
        path.write_text("\n".join([lines[0], lines[1], "", json.dumps({"kp": kp[0].tolist()})]))
        with pytest.raises(MalformedJson, match="frame 1: keypoint 4 has a confidence outside"):
            read_sequence(path)


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


class TestWriterBytes:
    """write_sequence against the one-json.dumps-per-line reference."""

    # float reprs json.dumps spells in different ways: signed zero, the
    # smallest subnormal, exponents on both sides, a sum that does not round
    # to one digit, and integral values
    SPECIAL = [-0.0, 5e-324, 1e-7, 1e16, 1e22, 0.1 + 0.2, 3.0, -640.0, 0.0, 1.0]
    BLOCK = skeleton._FRAMES_PER_WRITE

    @pytest.mark.parametrize("n_frames", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_bytes_match_per_frame_json_dumps(self, tmp_path, n_frames):
        rng = np.random.default_rng(n_frames)
        kp = np.empty((n_frames, N_KEYPOINTS, 3))
        kp[..., :2] = rng.uniform(-1e3, 1e3, (n_frames, N_KEYPOINTS, 2))
        kp[..., 2] = rng.uniform(0.0, 1.0, (n_frames, N_KEYPOINTS))
        kp[:, : len(self.SPECIAL), 0] = self.SPECIAL
        kp[:, : len(self.SPECIAL), 1] = np.negative(self.SPECIAL)
        kp[:, ::3, 2] = 0.0
        kp[:, 1::3, 2] = 1.0
        seq = Sequence(kp, fps=29.97, label=GestureLabel.CallToPass, view_angle_deg=-0.0)
        path = tmp_path / "seq.jsonl"
        write_sequence(path, seq)

        meta = {"fps": 29.97, "label": "CallToPass", "view_angle_deg": -0.0}
        expected = [json.dumps(doc) + "\n" for doc in [meta, *({"kp": frame.tolist()} for frame in kp)]]
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
        # the first differing line, not a diff of the whole file
        assert len(lines) == len(expected)
        assert next(((t, a) for t, (a, b) in enumerate(zip(lines, expected)) if a != b), None) is None
        for line in lines:
            json.loads(line, parse_constant=_refuse_constant)
        assert read_sequence(path).kp.tobytes() == kp.tobytes()


class TestSequenceInvariants:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequence((), fps=30.0)

    def test_nonpositive_fps_rejected(self, rng):
        with pytest.raises(ValueError):
            Sequence((random_pose(rng),), fps=0.0)

    @pytest.mark.parametrize("fps, message", [
        (math.inf, "fps must be finite"), (math.nan, "fps must be positive"),
        ("30", "fps must be a number, got '30'"), (True, "fps must be a number, got True"),
    ])
    def test_fps_must_be_finite_and_positive(self, rng, fps, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Sequence((random_pose(rng),), fps=fps)

    @pytest.mark.parametrize("view", ["15", math.nan, -math.inf, True, [15.0]])
    def test_view_angle_must_be_none_or_finite_number(self, rng, view):
        with pytest.raises(ValueError, match="view_angle_deg must be null or a finite number"):
            Sequence((random_pose(rng),), fps=30.0, view_angle_deg=view)

    @pytest.mark.parametrize("view", [None, 15, -15.0, np.float64(30.0)])
    def test_view_angle_accepts_none_and_finite_numbers(self, rng, view):
        assert Sequence((random_pose(rng),), fps=30.0, view_angle_deg=view).view_angle_deg == view

    def test_poses_lists_and_arrays_hold_equal_keypoints(self, rng):
        poses = tuple(random_pose(rng) for _ in range(4))
        kp = np.stack([p.kp for p in poses])
        for frames in (poses, [p.kp for p in poses], [p.kp.tolist() for p in poses], kp):
            seq = Sequence(frames, fps=30.0)
            assert seq.kp.dtype == np.float64
            assert np.array_equal(seq.kp, kp)
            assert not seq.kp.flags.writeable
        assert not np.shares_memory(Sequence(kp, fps=30.0).kp, kp)

    def test_frames_are_read_only_views_of_kp(self, rng):
        seq = Sequence(np.stack([random_pose(rng).kp for _ in range(3)]), fps=30.0)
        frames = seq.frames
        assert frames is seq.frames
        assert len(frames) == len(seq) == 3
        for t, pose in enumerate(frames):
            assert isinstance(pose, Pose)
            assert np.shares_memory(pose.kp, seq.kp)
            assert np.array_equal(pose.kp, seq.kp[t])
            with pytest.raises(ValueError):
                pose.kp[0, 0] = 1.0

    @pytest.mark.parametrize(
        "bad, message",
        [((4, 0), "keypoint 4 has a non-finite value"), ((7, 2), "keypoint 7 has a confidence")],
    )
    def test_check_names_the_first_bad_frame(self, rng, bad, message):
        kp = np.stack([random_pose(rng).kp for _ in range(5)])
        kp[3][bad] = np.inf if bad[1] == 0 else 1.5
        kp[4][bad] = np.nan
        with pytest.raises(ValueError, match=f"frame 3: {message}") as err:
            Sequence(kp, fps=30.0)
        assert err.value.frame == 3
        with pytest.raises(ValueError, match="frame 2: a pose must have shape"):
            Sequence([*kp[:2], kp[2, :24], kp[3]], fps=30.0)
