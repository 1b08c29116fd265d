import argparse
import json
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from gesturepipe import cli, recognizer, speed
from gesturepipe.errors import MissingKeypoint, NonFiniteGradient
from gesturepipe.features import Encoding
from gesturepipe.skeleton import GestureLabel, Sequence, read_sequence, write_sequence

from conftest import make_openpose_doc, traced_peak

# a refusal prints one error line: no numpy warning may reach stderr ahead of it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TRAIN_FLAGS = [
    "--encoding", "coordinate", "--window", "20", "--epochs", "3", "--lr", "0.003",
    "--batch", "8", "--hidden-dims", "32,24", "--gru-hidden", "12", "--head-dim", "8",
]


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = run(
        "synth", "--out", out, "--per-class", "3", "--frames", "40",
        "--period-min", "10", "--period-max", "16", "--seed", "5",
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("model")
    rc = run("train", "--data", synth_dir, "--out", out, *TRAIN_FLAGS)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def clean_synth_dir(tmp_path_factory):
    """One noiseless sequence per gesture, each with a period of exactly 30 frames."""
    out = tmp_path_factory.mktemp("clean")
    rc = run(
        "synth", "--out", out, "--per-class", "1", "--frames", "90",
        "--period-min", "30", "--period-max", "30", "--noise-max", "0", "--seed", "2",
    )
    assert rc == 0
    return out


def data_files(path):
    return sorted(p.name for p in Path(path).iterdir() if p.name != "manifest.jsonl")


class TestHelp:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0
        assert "gesturepipe" in capsys.readouterr().out

    def test_bad_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run("train", "--no-such-flag")
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("ingest", "in", "--out", "o.jsonl", "--fps", "0"),
        ("ingest", "in", "--out", "o.jsonl", "--fps", "-30"),
        ("train", "--out", "m", *TRAIN_FLAGS, "--window", "0"),
        ("train", "--out", "m", *TRAIN_FLAGS, "--stride", "-1"),
        ("train", "--out", "m", *TRAIN_FLAGS, "--epochs", "0"),
        ("train", "--out", "m", *TRAIN_FLAGS, "--batch", "0"),
        ("train", "--out", "m", *TRAIN_FLAGS, "--lr", "0"),
        ("train", "--out", "m", *TRAIN_FLAGS, "--lr", "nan"),
        ("train", "--out", "m", *TRAIN_FLAGS, "--gru-hidden", "0"),
        ("train", "--out", "m", *TRAIN_FLAGS, "--gru-hidden", "-3"),
        ("train", "--out", "m", *TRAIN_FLAGS, "--head-dim", "0"),
        ("train", "--out", "m", *TRAIN_FLAGS, "--hidden-dims", "0,8"),
        ("train", "--out", "m", *TRAIN_FLAGS, "--hidden-dims", "16,8,4"),
        ("train", "--out", "m", *TRAIN_FLAGS, "--hidden-dims", "16,x"),
        ("eval", "--weights", "w", "--data", "d", "--out", "e", "--window", "0"),
        ("eval", "--weights", "w", "--data", "d", "--out", "e", "--stride", "-1"),
        ("speed", "seq.jsonl", "--fps", "0"),
        ("stream", "seq.jsonl", "--weights", "w", "--fps", "0"),
        ("stream", "seq.jsonl", "--weights", "w", "--speed-ratio", "0"),
        ("synth", "--out", "s", "--frames", "0"),
        ("synth", "--out", "s", "--per-class", "0"),
        ("synth", "--out", "s", "--fps", "0"),
        ("synth", "--out", "s", "--seed", "-1"),
        ("train", "--out", "m", *TRAIN_FLAGS, "--seed", "-1"),
        ("train", "--out", "m", *TRAIN_FLAGS, "--split-seed", "-3"),
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_out_of_range_number_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("synth", "--fps", "inf"),
        ("synth", "--scale-max", "inf"),
        ("synth", "--noise-max", "inf"),
        ("synth", "--noise-min", "nan"),
        ("synth", "--drop-prob", "nan"),
        ("ingest", "in", "--fps", "inf"),
        ("ingest", "in", "--fps", "30", "--view-angle", "nan"),
        ("augment", "in", "--angles", "15,inf"),
        ("augment", "in", "--angles", "15,x"),
        ("augment", "in", "--speed-ratios", "inf"),
        ("augment", "in", "--speed-ratios", "0.5,nan"),
        ("train", "--data", "d", *TRAIN_FLAGS, "--lr", "inf"),
        ("stream", "seq.jsonl", "--weights", "w", "--fps", "inf"),
        ("stream", "seq.jsonl", "--weights", "w", "--base-fps", "inf"),
        ("stream", "seq.jsonl", "--weights", "w", "--speed-ratio", "inf"),
        ("stream", "seq.jsonl", "--weights", "w", "--retention", "nan"),
        ("speed", "seq.jsonl", "--fps", "inf"),
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_non_finite_number_exits_two(self, tmp_path, argv, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_readme_names_only_flags_the_cli_accepts(self):
        parser = cli.build_parser()
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        accepted = {
            flag for p in (parser, *commands.choices.values()) for a in p._actions for flag in a.option_strings
        }
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
        assert "--data" in named
        assert sorted(named - accepted) == []


class TestSynth:
    def test_writes_per_class_files_and_manifest(self, synth_dir):
        names = data_files(synth_dir)
        assert len(names) == 24
        for g in GestureLabel:
            assert sum(1 for n in names if n.startswith(g.name)) == 3
        manifest = (synth_dir / "manifest.jsonl").read_text().splitlines()
        doc = json.loads(manifest[0])
        assert doc["command"] == "synth"
        assert doc["seeds"] == {"seed": 5}

    def test_sequences_carry_labels(self, synth_dir):
        seq = read_sequence(synth_dir / data_files(synth_dir)[0])
        assert seq.label is not None
        assert seq.fps == 30.0

    @pytest.mark.parametrize("flags, name", [
        (("--period-min", "40", "--period-max", "20"), "period"),
        (("--noise-min", "0.05", "--noise-max", "0.01"), "noise_frac"),
        (("--scale-min", "130"), "scale"),
        # ranges that reach outside the generator's domain fail whatever the draws
        (("--period-min", "3"), "period"),
        (("--scale-min", "-50", "--seed", "4"), "scale"),
        (("--scale-min", "0"), "scale"),
        (("--noise-min", "-0.01"), "noise_frac"),
        (("--period-max", "100000000000000000000"), "period"),
    ])
    def test_inverted_range_exits_three(self, tmp_path, capsys, flags, name):
        out = tmp_path / "s"
        assert run("synth", "--out", out, "--per-class", "1", "--frames", "20", *flags) == 3
        err = capsys.readouterr().err
        assert f"{name} range" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--drop-prob", "-0.5"), "drop probability must lie in [0, 1]"),
        (("--drop-prob", "1.5"), "drop probability must lie in [0, 1]"),
        (("--frames", "10000000000000"), "n_frames must lie in [1, 100000], got 10000000000000"),
    ])
    def test_out_of_range_value_exits_three(self, tmp_path, capsys, flags, message):
        out = tmp_path / "s"
        assert run("synth", "--out", out, "--per-class", "1", "--frames", "20", *flags) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_overflowing_keypoints_exit_three(self, tmp_path, capsys):
        argv = ("--per-class", "1", "--frames", "30", "--scale-min", "1e307", "--scale-max", "1e308")
        assert run("synth", "--out", tmp_path / "s", *argv) == 3
        err = capsys.readouterr().err
        assert "error: " in err and "has a non-finite value" in err
        assert "Traceback" not in err
        assert not (tmp_path / "s").exists()

    def test_drop_prob_zeroes_whole_keypoints_reproducibly(self, tmp_path):
        argv = ("--per-class", "1", "--frames", "40", "--seed", "3")
        for name, prob in (("clean", "0"), ("a", "0.05"), ("b", "0.05")):
            assert run("synth", "--out", tmp_path / name, *argv, "--drop-prob", prob) == 0
        names = data_files(tmp_path / "clean")
        assert data_files(tmp_path / "a") == names
        dropped = 0
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            clean, kept = read_sequence(tmp_path / "clean" / name), read_sequence(tmp_path / "a" / name)
            gone = (clean.kp != kept.kp).any(axis=2)
            assert (kept.kp[gone] == 0.0).all()
            dropped += gone.sum()
        assert 0.02 < dropped / (len(names) * 40 * 9) < 0.08  # of the 9 keypoints synth animates

    def test_drop_prob_holds_one_dataset(self, tmp_path):
        argv = ("--per-class", "1", "--frames", "1000", "--seed", "3")
        clean = traced_peak(lambda: run("synth", "--out", tmp_path / "clean", *argv))
        dropped = traced_peak(lambda: run("synth", "--out", tmp_path / "dropped", *argv, "--drop-prob", "0.05"))
        assert dropped < 1.2 * clean

    def test_determinism_bitwise(self, tmp_path, synth_dir):
        again = tmp_path / "again"
        rc = run(
            "synth", "--out", again, "--per-class", "3", "--frames", "40",
            "--period-min", "10", "--period-max", "16", "--seed", "5",
        )
        assert rc == 0
        assert data_files(again) == data_files(synth_dir)
        for name in data_files(again):
            assert (again / name).read_bytes() == (synth_dir / name).read_bytes()


class TestIngest:
    def test_directory_to_sequence(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        values = [10.0, 20.0, 0.9] * 25
        for i in range(4):
            (frames / f"f_{i:02d}.json").write_text(make_openpose_doc(values))
        out = tmp_path / "seq.jsonl"
        rc = run("ingest", frames, "--fps", 30, "--label", "StandStill", "--out", out)
        assert rc == 0
        seq = read_sequence(out)
        assert len(seq) == 4
        assert seq.label is GestureLabel.StandStill

    def test_missing_input_exits_three(self, tmp_path):
        rc = run("ingest", tmp_path / "nope", "--fps", 30, "--out", tmp_path / "x.jsonl")
        assert rc == 3

    def test_keypoints_not_an_array_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"people":[{"pose_keypoints_2d": 5}]}\n')
        assert run("ingest", bad, "--fps", 30, "--out", tmp_path / "o.jsonl") == 3
        err = capsys.readouterr().err
        assert err == "error: frame 0 (line 0): person entry has no 'pose_keypoints_2d' array\n"
        assert not (tmp_path / "o.jsonl").exists()

    def test_keypoint_value_not_a_number_exits_three(self, tmp_path, capsys):
        values = [10.0, 20.0, 0.9] * 25
        bad = tmp_path / "bad.jsonl"
        bad.write_text(make_openpose_doc(values) + "\n" + make_openpose_doc([*values[:5], True, *values[6:]]) + "\n")
        assert run("ingest", bad, "--fps", 30, "--out", tmp_path / "o.jsonl") == 3
        assert capsys.readouterr().err == "error: frame 1 (line 1): keypoint 1: true is not a JSON number\n"
        assert not (tmp_path / "o.jsonl").exists()


class TestAugment:
    def test_rotations_and_speeds(self, tmp_path, synth_dir):
        out = tmp_path / "aug"
        rc = run(
            "augment", synth_dir, "--out", out,
            "--angles", "15,30", "--both-sides", "--speed-ratios", "0.5",
        )
        assert rc == 0
        names = data_files(out)
        n_in = len(data_files(synth_dir))
        # originals + 4 rotations + 1 speed copy per input
        assert len(names) == n_in * 6
        rotated = read_sequence(out / next(n for n in names if "_rot+15" in n))
        assert rotated.view_angle_deg == 15.0

    def test_repeated_views_and_speeds_are_written_once(self, tmp_path, synth_dir, capsys):
        out = tmp_path / "aug"
        argv = ("--angles", "15,15,0,-0", "--both-sides", "--speed-ratios", "2,2.0", "--no-include-original")
        assert run("augment", synth_dir, "--out", out, *argv) == 0
        names = data_files(out)
        n_in = len(data_files(synth_dir))
        # _rot+15, _rot-15, _rot+0 and _speed2 per input
        assert len(names) == n_in * 4
        assert sum(n.endswith("_rot+0.jsonl") for n in names) == n_in
        assert capsys.readouterr().out == f"wrote {n_in * 4} sequences to {out}\n"
        outputs = json.loads((out / "manifest.jsonl").read_text())["outputs"]
        assert sorted(Path(p).name for p in outputs) == names

    def test_empty_input_exits_three(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = run("augment", empty, "--out", tmp_path / "aug")
        assert rc == 3

    def test_tiny_speed_ratio_exits_three(self, tmp_path, synth_dir, capsys):
        assert run("augment", synth_dir, "--out", tmp_path / "aug", "--speed-ratios", "1e-300") == 3
        err = capsys.readouterr().err
        assert "speed ratio 1e-300 would resample 40 frames" in err
        assert "Traceback" not in err

    def test_keypoints_near_the_float_limit_exit_three(self, tmp_path, synth_dir, capsys):
        data = tmp_path / "in"
        data.mkdir()
        name = next(n for n in data_files(synth_dir) if n.startswith("LeftHandWave"))
        seq = read_sequence(synth_dir / name)
        kp = seq.kp.copy()
        kp[0, 4, 0], kp[1, 4, 0] = 1.5e308, -1.5e308  # their difference overflows
        write_sequence(data / name, Sequence(kp, seq.fps, label=seq.label))
        assert run("augment", data, "--out", tmp_path / "aug", "--speed-ratios", "0.7") == 3
        assert capsys.readouterr().err == (
            "error: resampling LeftHandWave at speed ratio 0.7: frame 1: keypoint 4 has a non-finite value\n")

    @pytest.mark.parametrize("depth, message", [
        ("nan", "depth table line 1: depths must be finite"),
        ("1e307", "rotating StandStill by 30 degrees: frame 0: keypoint 2 has a non-finite value"),
    ])
    def test_non_finite_or_overflowing_depth_exits_three(self, tmp_path, synth_dir, capsys, depth, message):
        table = tmp_path / "depths.cfg"
        table.write_text(f"StandStill {depth} 0.1 -0.1 0 0.1 -0.1\n")
        standstill = tmp_path / "in"
        standstill.mkdir()
        name = next(n for n in data_files(synth_dir) if n.startswith("StandStill"))
        (standstill / name).write_bytes((synth_dir / name).read_bytes())
        assert run("augment", standstill, "--out", tmp_path / "aug", "--depth-config", table, "--angles", "30") == 3
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestTrain:
    def test_outputs_exist(self, trained_dir):
        assert (trained_dir / "weights.gpw").is_file()
        history = (trained_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_accuracy"
        assert len(history) == 4

    def test_determinism_bitwise(self, tmp_path, synth_dir, trained_dir):
        again = tmp_path / "model2"
        rc = run("train", "--data", synth_dir, "--out", again, *TRAIN_FLAGS)
        assert rc == 0
        assert (again / "weights.gpw").read_bytes() == (trained_dir / "weights.gpw").read_bytes()
        assert (again / "history.csv").read_bytes() == (trained_dir / "history.csv").read_bytes()

    def test_best_epoch_is_the_last_of_tied_epochs(self, tmp_path, synth_dir, capsys):
        # at this seed the 5 validation windows tie at the top over several epochs, then fall
        assert run("train", "--data", synth_dir, "--out", tmp_path / "m", *TRAIN_FLAGS, "--epochs", "6",
                   "--seed", "2") == 0
        accs = [float(line.split(",")[2]) for line in (tmp_path / "m" / "history.csv").read_text().splitlines()[1:]]
        tied = [epoch for epoch, acc in enumerate(accs, 1) if acc == max(accs)]
        assert len(tied) > 1 and tied[-1] < len(accs)
        assert f"best epoch: {tied[-1]}\n" in capsys.readouterr().out
        assert run("train", "--data", synth_dir, "--out", tmp_path / "stopped", *TRAIN_FLAGS, "--epochs", tied[-1],
                   "--seed", "2") == 0
        assert (tmp_path / "m" / "weights.gpw").read_bytes() == (tmp_path / "stopped" / "weights.gpw").read_bytes()

    def test_missing_data_exits_three(self, tmp_path):
        rc = run("train", "--data", tmp_path / "nope", "--out", tmp_path / "m", *TRAIN_FLAGS)
        assert rc == 3

    @pytest.mark.parametrize("flags, message", [
        ((), "the following arguments are required: --data"),
        (("--data", "d", "--cache", "c.jsonl"), "unrecognized arguments: --cache c.jsonl"),
    ], ids=["no data", "cache"])
    def test_missing_or_removed_flag_exits_two(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            run("train", "--out", "m", *TRAIN_FLAGS, *flags)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_unlabeled_sequence_exits_three(self, tmp_path, synth_dir, capsys):
        src = read_sequence(synth_dir / data_files(synth_dir)[0])
        data = tmp_path / "unlabeled"
        data.mkdir()
        write_sequence(data / "seq.jsonl", Sequence(src.kp, src.fps, label=None))
        assert run("train", "--data", data, "--out", tmp_path / "m", *TRAIN_FLAGS) == 3
        err = capsys.readouterr().err
        assert err == f"error: {data / 'seq.jsonl'}: sequence has no label; cannot use it for training/eval\n"
        assert not (tmp_path / "m").exists()

    def test_keypoint_value_not_a_number_exits_three(self, tmp_path, synth_dir, capsys):
        data = tmp_path / "data"
        data.mkdir()
        bad = data / data_files(synth_dir)[0]
        meta, *frames = (synth_dir / bad.name).read_text().splitlines()
        kp = json.loads(frames[3])["kp"]
        kp[2][0] = str(kp[2][0])
        frames[3] = json.dumps({"kp": kp})
        bad.write_text("\n".join([meta, *frames]) + "\n")
        assert run("train", "--data", data, "--out", tmp_path / "m", *TRAIN_FLAGS) == 3
        assert capsys.readouterr().err == f"error: {bad}: frame 3: a keypoint value is not a JSON number\n"
        assert not (tmp_path / "m").exists()

    def test_refusal_names_the_file(self, tmp_path, synth_dir, trained_dir, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in data_files(synth_dir)[:2]:
            (data / name).write_bytes((synth_dir / name).read_bytes())
        bad = data / data_files(synth_dir)[1]
        seq = read_sequence(bad)
        kp = seq.kp.copy()
        kp[4, 6] = 0.0
        write_sequence(bad, Sequence(kp, seq.fps, label=seq.label))
        expected = f"error: {bad}: frame 4: keypoint 6 is missing\n"
        assert run("train", "--data", data, "--out", tmp_path / "m", *TRAIN_FLAGS) == 3
        assert capsys.readouterr().err == expected
        weights = trained_dir / "weights.gpw"
        assert run("eval", "--weights", weights, "--data", data, "--window", "20", "--out", tmp_path / "e") == 3
        assert capsys.readouterr().err == expected
        with pytest.raises(MissingKeypoint) as err:  # the class and its fields survive the renaming
            cli._windows_from_sequences([(bad, read_sequence(bad))], Encoding.COORDINATE, 20, 0)
        assert (err.value.index, err.value.frame) == (6, 4)

    def test_numeric_failure_exits_four(self, tmp_path, synth_dir, monkeypatch):
        def explode(*args, **kwargs):
            raise NonFiniteGradient("gradient for w1 contains NaN or Inf")

        monkeypatch.setattr("gesturepipe.cli.nn.train", explode)
        rc = run("train", "--data", synth_dir, "--out", tmp_path / "m", *TRAIN_FLAGS)
        assert rc == 4

    def test_numeric_failure_keeps_the_best_epoch_reached(self, tmp_path, synth_dir, monkeypatch):
        assert run("train", "--data", synth_dir, "--out", tmp_path / "one", *TRAIN_FLAGS, "--epochs", "1") == 0
        real_step, real_save, saved = cli.nn.adam_step, cli.nn.save_model, []

        def save(*args):
            real_save(*args)
            saved.append(args[0])

        def step(*args):
            if saved:  # the first epoch's steps are done: fail in the second
                raise NonFiniteGradient("gradient for w1 contains NaN or Inf")
            return real_step(*args)

        monkeypatch.setattr(cli.nn, "save_model", save)
        monkeypatch.setattr(cli.nn, "adam_step", step)
        out = tmp_path / "m"
        assert run("train", "--data", synth_dir, "--out", out, *TRAIN_FLAGS) == 4
        assert sorted(p.name for p in out.iterdir()) == ["weights.gpw"]  # no history.csv, no manifest
        assert (out / "weights.gpw").read_bytes() == (tmp_path / "one" / "weights.gpw").read_bytes()


class TestEval:
    def test_resubstitution_is_diagonal(self, tmp_path, synth_dir, trained_dir, capsys):
        out = tmp_path / "eval"
        rc = run(
            "eval", "--weights", trained_dir / "weights.gpw", "--data", synth_dir,
            "--window", "20", "--out", out,
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "overall accuracy:" in printed
        rows = (out / "confusion.csv").read_text().splitlines()
        assert rows[0].startswith("true_label,view_angle_deg,n,")
        assert len(rows) == 1 + 8

    def test_empty_test_dir_exits_three(self, tmp_path, trained_dir):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = run("eval", "--weights", trained_dir / "weights.gpw", "--data", empty, "--out", tmp_path / "e")
        assert rc == 3

    def test_weight_file_of_another_encoding_exits_three(self, tmp_path, synth_dir, trained_dir, capsys):
        header_line, blob = (trained_dir / "weights.gpw").read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["encoding"] = "angle"  # the config still takes 18 coordinate features
        weights = tmp_path / "weights.gpw"
        weights.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        assert run("eval", "--weights", weights, "--data", synth_dir, "--window", "20", "--out", tmp_path / "e") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "model takes 18 features, angle has 5" in err

    @pytest.mark.parametrize("header_line", [b"[]", b'"x"', b"1", b"null"])
    @pytest.mark.parametrize("command", ["eval", "stream"])
    def test_weight_header_not_an_object_exits_three(self, tmp_path, synth_dir, trained_dir, capsys,
                                                     command, header_line):
        weights = tmp_path / "weights.gpw"
        weights.write_bytes(header_line + b"\n" + (trained_dir / "weights.gpw").read_bytes().split(b"\n", 1)[1])
        if command == "eval":
            argv = ("eval", "--weights", weights, "--data", synth_dir, "--window", "20", "--out", tmp_path / "e")
        else:
            argv = ("stream", synth_dir / data_files(synth_dir)[0], "--weights", weights, "--base-len", "20")
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{weights}: bad weight header: " in err and "not a JSON object" in err

    def test_sequences_without_view_angle(self, tmp_path, synth_dir, trained_dir):
        # strip the view-angle metadata; eval must render a blank angle cell
        data = tmp_path / "noview"
        data.mkdir()
        src = read_sequence(synth_dir / data_files(synth_dir)[0])
        write_sequence(
            data / "seq.jsonl",
            Sequence(src.frames, src.fps, label=src.label, view_angle_deg=None),
        )
        out = tmp_path / "eval_noview"
        rc = run(
            "eval", "--weights", trained_dir / "weights.gpw", "--data", data,
            "--window", "20", "--out", out,
        )
        assert rc == 0
        rows = (out / "confusion.csv").read_text().splitlines()
        assert rows[1].split(",")[1] == ""

    def test_no_view_angle_has_its_own_tag(self, tmp_path, synth_dir, trained_dir, capsys):
        # synth records 0 degrees and ingest without --view-angle records none:
        # one table row per CSV row and one per-angle line per angle cell
        data = tmp_path / "mixed"
        data.mkdir()
        name = data_files(synth_dir)[0]
        src = read_sequence(synth_dir / name)
        assert src.view_angle_deg == 0.0
        (data / name).write_bytes((synth_dir / name).read_bytes())
        write_sequence(data / "noview.jsonl", Sequence(src.kp, src.fps, label=src.label, view_angle_deg=None))
        out = tmp_path / "e"
        assert run("eval", "--weights", trained_dir / "weights.gpw", "--data", data, "--window", "20", "--out", out) == 0
        printed = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(printed) if "true label @ view" in line)
        rows = [line.split()[0] for line in printed[header + 1:printed.index("per-class accuracy:")]]
        csv = [line.split(",")[:2] for line in (out / "confusion.csv").read_text().splitlines()[1:]]
        assert csv == [[src.label.name, "0"], [src.label.name, ""]]
        assert rows == [src.label.name, f"{src.label.name}@none"]
        start = printed.index("per-angle accuracy:") + 1
        tags = [line.split(":")[0].strip() for line in printed[start:-1]]
        assert tags == ["frontal", "no view angle"]

    def test_window_longer_than_data_exits_three(self, tmp_path, synth_dir, trained_dir):
        rc = run(
            "eval", "--weights", trained_dir / "weights.gpw", "--data", synth_dir,
            "--window", "500", "--out", tmp_path / "e",
        )
        assert rc == 3


class TestStream:
    def test_emissions_printed_and_saved(self, tmp_path, synth_dir, trained_dir, capsys):
        seq_file = synth_dir / data_files(synth_dir)[0]
        out = tmp_path / "emissions.csv"
        rc = run(
            "stream", seq_file, "--weights", trained_dir / "weights.gpw",
            "--base-len", "20", "--out", out,
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "frame=20 raw=" in printed
        rows = out.read_text().splitlines()
        assert rows[0] == "frame_index,raw,smoothed,confidence"
        # 40-frame sequence, capacity 20, cadence 10 -> emissions at 20, 30, 40
        assert len(rows) == 1 + 3

    def test_speed_ratio_changes_capacity(self, synth_dir, trained_dir, capsys):
        seq_file = synth_dir / data_files(synth_dir)[0]
        rc = run(
            "stream", seq_file, "--weights", trained_dir / "weights.gpw",
            "--base-len", "20", "--speed-ratio", "2.0",
        )
        assert rc == 0
        assert "window capacity: 10 frames" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, window", [
        (("--speed-ratio", "1e-300"), "5e+301"),
        (("--speed-ratio", "1e-9"), "5e+10"),
        (("--fps", "1e308", "--base-fps", "1e-300"), "inf"),
    ])
    def test_window_over_max_frames_exits_three(self, synth_dir, trained_dir, capsys, flags, window):
        seq_file = synth_dir / data_files(synth_dir)[0]
        assert run("stream", seq_file, "--weights", trained_dir / "weights.gpw", *flags) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: a window of {window} frames is over 100000 (") and err.count("\n") == 1

    def test_weight_file_without_tensor_index_exits_three(self, tmp_path, synth_dir, trained_dir, capsys):
        header_line, blob = (trained_dir / "weights.gpw").read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        del header["tensors"]
        weights = tmp_path / "weights.gpw"
        weights.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        seq_file = synth_dir / data_files(synth_dir)[0]
        assert run("stream", seq_file, "--weights", weights, "--base-len", "20") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "tensor index does not match" in err

    def test_realtime_replay_keeps_the_stream_clock(self, synth_dir, trained_dir, monkeypatch):
        # a fake clock that sleeps and pushes advance: each frame costs 10 ms
        # and frame 5 a slow 100 ms, three frame periods at 30 fps
        fps, now, sleeps, pushed_at = 30.0, [100.0], [], []
        cost = lambda i: 0.1 if i == 5 else 0.01

        class FakeTime:
            monotonic = staticmethod(lambda: now[0])

            @staticmethod
            def sleep(seconds):
                assert seconds >= 0.0
                sleeps.append(seconds)
                now[0] += seconds

        push = recognizer.WindowState.push

        def timed_push(self, row, params):
            pushed_at.append(now[0])
            now[0] += cost(len(pushed_at) - 1)
            return push(self, row, params)

        monkeypatch.setattr(cli, "time", FakeTime)
        monkeypatch.setattr(recognizer.WindowState, "push", timed_push)
        seq_file = synth_dir / data_files(synth_dir)[0]
        rc = run(
            "stream", seq_file, "--weights", trained_dir / "weights.gpw",
            "--base-len", "20", "--fps", fps, "--realtime",
        )
        assert rc == 0
        n = len(pushed_at)
        assert n == 40
        # frame i is pushed when it is due, (i + 1) / fps in, or when the
        # frame before it is done, if that is later
        due = [100.0 + (i + 1) / fps for i in range(n)]
        expected = [due[0]]
        for i in range(1, n):
            expected.append(max(due[i], expected[-1] + cost(i - 1)))
        assert pushed_at == pytest.approx(expected, abs=1e-9)
        assert expected[10] == due[10]  # the slow frame's delay has been caught up
        assert sum(sleeps) + sum(cost(i) for i in range(n - 1)) == pytest.approx(n / fps, abs=1e-9)


class TestSpeed:
    @pytest.mark.parametrize("encoding", ["coordinate", "angle"])
    def test_reports_period(self, tmp_path, capsys, clean_synth_dir, encoding):
        seq_file = clean_synth_dir / "RightHandRightCircle_000.jsonl"
        result = tmp_path / "speed.json"
        rc = run("speed", seq_file, "--encoding", encoding, "--out", result)
        assert rc == 0
        printed = capsys.readouterr().out
        assert "period_frames=30" in printed
        doc = json.loads(result.read_text())
        assert sorted(doc) == ["cycles_per_second", "label", "period_frames"]
        assert doc["period_frames"] == 30
        assert doc["cycles_per_second"] == pytest.approx(1.0)

    def test_start_positions_and_encoding_exit_two(self, capsys):
        for encoding in ("angle", "coordinate"):  # "coordinate", given explicitly, is a flag all the same
            with pytest.raises(SystemExit) as exc:
                run("speed", "seq.jsonl", "--start-positions", "start.json", "--encoding", encoding)
            assert exc.value.code == 2
            assert "argument --encoding: not allowed with argument --start-positions" in capsys.readouterr().err

    def test_start_positions_file_reaches_a_period(self, tmp_path, capsys, clean_synth_dir):
        table = speed.default_start_positions(Encoding.ANGLE)
        start = tmp_path / "start.json"
        start.write_text(json.dumps({
            "encoding": "angle", "positions": {label.name: row.tolist() for label, row in table.items()},
        }))
        seq_file = clean_synth_dir / "LeftHandLeftCircle_000.jsonl"
        assert run("speed", seq_file, "--start-positions", start, "--out", tmp_path / "speed.json") == 0
        assert "period_frames=30 " in capsys.readouterr().out
        manifest = json.loads((tmp_path / "manifest.jsonl").read_text())
        assert manifest["flags"]["start_positions"] == str(start)
        assert manifest["flags"]["encoding"] is None

    def test_gesture_missing_from_a_start_position_file_exits_three(self, tmp_path, capsys, clean_synth_dir):
        row = speed.default_start_positions(Encoding.COORDINATE)[GestureLabel.CallToPass]
        start = tmp_path / "one.json"
        start.write_text(json.dumps({"encoding": "coordinate", "positions": {"CallToPass": row.tolist()}}))
        seq_file = clean_synth_dir / "LeftHandWave_000.jsonl"
        assert run("speed", seq_file, "--start-positions", start) == 3
        err = capsys.readouterr().err
        assert "error: LeftHandWave has no start position (the start-position table has no row for it)" in err
        assert "not a cyclic gesture" not in err

    def test_start_position_not_a_number_exits_three(self, tmp_path, capsys, clean_synth_dir):
        table = speed.default_start_positions(Encoding.COORDINATE)
        positions = {label.name: row.tolist() for label, row in table.items()}
        positions["LeftHandLeftCircle"][3] = str(positions["LeftHandLeftCircle"][3])
        start = tmp_path / "start.json"
        start.write_text(json.dumps({"encoding": "coordinate", "positions": positions}))
        seq_file = clean_synth_dir / "LeftHandLeftCircle_000.jsonl"
        assert run("speed", seq_file, "--start-positions", start) == 3
        assert capsys.readouterr().err == (
            f"error: {start}: LeftHandLeftCircle start position is not an array of finite JSON numbers\n")

    def test_label_overrides_the_file_label(self, tmp_path, capsys, clean_synth_dir):
        seq_file = clean_synth_dir / "RightHandRightCircle_000.jsonl"
        result = tmp_path / "speed.json"
        # the two right-hand circles start from the same pose
        assert run("speed", seq_file, "--label", "RightHandLeftCircle", "--out", result) == 0
        assert json.loads(result.read_text())["label"] == "RightHandLeftCircle"
        assert "period_frames=30 " in capsys.readouterr().out
        assert run("speed", seq_file, "--label", "StandStill") == 3
        assert "StandStill has no start position" in capsys.readouterr().err

    def test_standstill_exits_three(self, tmp_path, synth_dir):
        seq_file = synth_dir / next(n for n in data_files(synth_dir) if n.startswith("StandStill"))
        rc = run("speed", seq_file)
        assert rc == 3

    def test_metadata_of_another_type_exits_three(self, tmp_path, synth_dir, trained_dir, capsys):
        lines = (synth_dir / data_files(synth_dir)[0]).read_text().splitlines(keepends=True)
        meta = json.loads(lines[0])
        meta["view_angle_deg"] = "15"
        data = tmp_path / "data"
        data.mkdir()
        (data / "seq.jsonl").write_text(json.dumps(meta) + "\n" + "".join(lines[1:]))
        rc = run("eval", "--weights", trained_dir / "weights.gpw", "--data", data, "--out", tmp_path / "e")
        assert rc == 3
        assert "view_angle_deg must be null or a finite number, got '15'" in capsys.readouterr().err


class TestManifest:
    def test_append_only(self, tmp_path):
        out = tmp_path / "m"
        for _ in range(2):
            rc = run("synth", "--out", out, "--per-class", "1", "--frames", "10",
                     "--period-min", "8", "--period-max", "8")
            assert rc == 0
        lines = (out / "manifest.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            doc = json.loads(line)
            assert doc["command"] == "synth"
            assert "duration_s" in doc and "started_utc" in doc

    def test_started_utc_is_the_command_start(self, tmp_path, monkeypatch):
        class Clock:
            wall = datetime(2026, 1, 1, tzinfo=timezone.utc)

            @classmethod
            def now(cls, tz):
                return cls.wall.astimezone(tz)

        monkeypatch.setattr(cli, "datetime", Clock)
        generate_dataset = cli.synth.generate_dataset

        def slow_generate_dataset(*args):
            Clock.wall += timedelta(hours=1)  # an hour passes while the command runs
            return generate_dataset(*args)

        monkeypatch.setattr(cli.synth, "generate_dataset", slow_generate_dataset)
        out = tmp_path / "m"
        assert run("synth", "--out", out, "--per-class", "1", "--frames", "10",
                   "--period-min", "8", "--period-max", "8") == 0
        doc = json.loads((out / "manifest.jsonl").read_text())
        assert doc["started_utc"] == "2026-01-01T00:00:00+00:00"
