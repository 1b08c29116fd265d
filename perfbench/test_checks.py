"""Self-tests of the benchmark: every check rejects a corrupted output.

    python3 -m pytest perfbench -q

The checks are fed correct outputs, which they must accept, and the same
outputs with one fault put in, which they must reject. The last tests run
the quick mode and the run without the program's sources.
"""
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
from checks import CheckError  # noqa: E402


def upper_body_frames(n, rng):
    kp = np.zeros((n, 25, 3))
    kp[:, :9, :2] = rng.uniform(100.0, 500.0, size=(n, 9, 2))
    kp[:, :9, 2] = 1.0
    return kp


# --- stream ---

def test_schedule_rejects_shifted_emission():
    checks.check_schedule([50, 75, 100], 120, 50, 25)
    with pytest.raises(CheckError):
        checks.check_schedule([50, 76, 100], 120, 50, 25)
    with pytest.raises(CheckError):
        checks.check_schedule([50, 75], 120, 50, 25)


def test_raw_rejects_swapped_label_and_moved_confidence():
    labels, conf = [3, 1, 1], [0.4, 0.5, 0.6]
    checks.check_raw(labels, conf, [3, 1, 1], [0.4, 0.5, 0.6 + 1e-12])
    with pytest.raises(CheckError):
        checks.check_raw([1, 3, 1], conf, labels, conf)
    with pytest.raises(CheckError):
        checks.check_raw(labels, [0.4, 0.5, 0.6 + 1e-8], labels, conf)


def test_votes_follow_the_tie_rule():
    raw = [2, 5, 5, 2, 7, 7]
    smoothed = [2, 5, 5, 2, 2, 7]
    checks.check_votes(raw, smoothed, 5)
    with pytest.raises(CheckError):
        checks.check_votes(raw, [2, 5, 5, 5, 2, 7], 5)


def test_reference_vote_matches_the_recognizer():
    from gesturepipe.recognizer import majority_vote

    rng = np.random.default_rng(0)
    for _ in range(500):
        votes = rng.integers(0, 3, size=rng.integers(1, 6)).tolist()
        assert checks.ref_majority(votes) == majority_vote(votes)


def test_gap_failure_must_be_the_first_gap():
    kp = upper_body_frames(80, np.random.default_rng(1))
    kp[52, 4, 2] = 0.0
    kp[60, 0, 2] = 0.0
    checks.check_gap_failure((52, 4), kp)
    with pytest.raises(CheckError):
        checks.check_gap_failure((60, 0), kp)
    with pytest.raises(CheckError):
        checks.check_gap_failure(None, kp)


# --- train ---

def test_class_accuracy_floor():
    labels = np.repeat(np.arange(8), 20)
    pred = labels.copy()
    pred[0] = 1
    checks.check_class_accuracy(checks.class_counts(pred, labels, 8), 0.95)
    pred[1] = 1
    with pytest.raises(CheckError):
        checks.check_class_accuracy(checks.class_counts(pred, labels, 8), 0.95)


def confusion_text(counts, names):
    lines = ["true_label,view_angle_deg,n," + ",".join(names)]
    for c, row in enumerate(counts):
        lines.append(f"{names[c]},0,{row.sum()}," + ",".join(f"{v / row.sum():.4f}" for v in row))
    return "\n".join(lines) + "\n"


def test_confusion_csv_must_agree_with_counts():
    names = [f"g{i}" for i in range(8)]
    labels = np.repeat(np.arange(8), 20)
    pred = labels.copy()
    pred[:3] = 5
    counts = checks.class_counts(pred, labels, 8)
    checks.check_confusion_csv(confusion_text(counts, names), counts, names)
    swapped = counts.copy()
    swapped[[2, 3]] = swapped[[3, 2]]
    with pytest.raises(CheckError):
        checks.check_confusion_csv(confusion_text(swapped, names), counts, names)


def test_history_final_loss_bound():
    good = "epoch,train_loss,val_accuracy\n1,1.9,0.5\n2,0.3,1.0\n"
    assert checks.check_history(good, 2, math.log(8)) == 0.3
    with pytest.raises(CheckError):
        checks.check_history("epoch,train_loss,val_accuracy\n1,1.9,0.5\n2,2.1,0.2\n", 2, math.log(8))
    with pytest.raises(CheckError):
        checks.check_history(good, 3, math.log(8))


def test_identical_logits():
    a = np.array([0.1, -2.0, 3.5])
    checks.check_identical(a, a.copy(), "logits")
    with pytest.raises(CheckError):
        checks.check_identical(a, a + np.array([0.0, 0.0, 1e-15]), "logits")


# --- prep ---

def test_unit_box():
    kp = upper_body_frames(30, np.random.default_rng(2))
    coords = checks.ref_coordinates(kp)
    checks.check_unit_box(coords)
    with pytest.raises(CheckError):
        checks.check_unit_box(coords * 1.001)
    shifted = coords.copy()
    shifted[:, 2:4] += 1e-9
    with pytest.raises(CheckError):
        checks.check_unit_box(shifted)


def test_angles_match_atan2_reference():
    from gesturepipe.features import Encoding, encode_frame
    from gesturepipe.skeleton import Pose

    kp = upper_body_frames(30, np.random.default_rng(3))
    program = np.stack([encode_frame(Pose(f), Encoding.ANGLE).values for f in kp])
    checks.check_angles(program, kp)
    program[7, 2] += 2e-6
    with pytest.raises(CheckError):
        checks.check_angles(program, kp)


def test_rotation_keeps_y_confidence_and_neck_x():
    src = upper_body_frames(10, np.random.default_rng(4))
    rot = src.copy()
    rot[:, [0, 2, 3, 4, 5, 6, 7, 8], 0] += 3.0
    checks.check_rotation(src, rot)
    for frame, point, axis in ((2, 4, 1), (5, 6, 2), (1, 1, 0)):
        bad = rot.copy()
        bad[frame, point, axis] += 0.5
        with pytest.raises(CheckError):
            checks.check_rotation(src, bad)


def test_resample_length_and_ends():
    src = upper_body_frames(101, np.random.default_rng(5))
    half = np.concatenate([src[:1], src[1:-1:2][:49], src[-1:]])
    assert len(half) == 51
    checks.check_resample(src, half, 2.0)
    with pytest.raises(CheckError):
        checks.check_resample(src, half[:-1], 2.0)
    moved = half.copy()
    moved[-1, 3, 0] += 1.0
    with pytest.raises(CheckError):
        checks.check_resample(src, moved, 2.0)


def test_period_off_by_three_is_a_miss():
    assert not checks.period_missed(22, 20, noisy=False)
    assert checks.period_missed(23, 20, noisy=False)
    assert not checks.period_missed(23, 20, noisy=True)
    assert checks.period_missed(24, 20, noisy=True)
    assert checks.period_missed(None, 20, noisy=True)


def test_sequence_file_reader_is_bit_exact(tmp_path):
    from gesturepipe import skeleton, synth
    from gesturepipe.skeleton import GestureLabel

    seq = synth.generate(synth.SynthConfig(gesture=GestureLabel.CallToPass, n_frames=20,
                                           noise_sigma=1.3, seed=9))
    skeleton.write_sequence(tmp_path / "s.jsonl", seq)
    meta, kp = checks.parse_sequence_file((tmp_path / "s.jsonl").read_text())
    assert meta["label"] == "CallToPass"
    checks.check_identical(kp, np.stack([p.kp for p in seq.frames]), "frames")


# --- the checks as the workloads wire them, on real outputs of the program ---

@pytest.fixture(scope="module")
def workloads_module():
    import workloads

    return workloads


def test_stream_check_rejects_corrupted_round(workloads_module, tmp_path):
    w = workloads_module
    scene = w.stream_setup(0, w.QUICK, tmp_path / "setup")
    rnd = w.stream_round(scene, w.QUICK, tmp_path)
    w.stream_check(scene, rnd, None)
    emissions, failures = rnd.out

    def corrupted(subject, k, field, value):
        bad = [list(map(list, e)) for e in emissions]
        bad[subject][k][field] = value
        bad = [[tuple(x) for x in e] for e in bad]
        return dataclasses.replace(rnd, out=(bad, failures))

    first = emissions[0][1]
    for field, value in ((0, first[0] + 1), (1, (first[1] + 1) % 8), (2, (first[2] + 1) % 8),
                         (3, first[3] + 1e-6)):
        with pytest.raises(CheckError):
            w.stream_check(scene, corrupted(0, 1, field, value), None)
    moved = list(failures)
    moved[-1] = (moved[-1][0] + 1, moved[-1][1])
    with pytest.raises(CheckError):
        w.stream_check(scene, dataclasses.replace(rnd, out=(emissions, moved)), None)


def test_reference_window_sizing():
    assert checks.ref_capacity(50, 30.0, 1.0, 30.0) == 50
    assert checks.ref_capacity(50, 30.0, 0.5, 30.0) == 100
    assert checks.ref_capacity(50, 30.0, 2.0, 30.0) == 25
    assert checks.ref_capacity(50, 30.0, 1.0, 15.0) == 25
    assert checks.ref_capacity(5, 30.0, 1.0, 9.0) == 2       # 1.5 rounds half away from zero
    assert checks.ref_cadence(0.5, 50) == 25
    assert checks.ref_cadence(0.5, 25) == 13
    assert checks.ref_cadence(0.75, 50) == 13


@pytest.mark.parametrize("fault", ["capacity", "cadence"])
def test_stream_check_rejects_a_state_with_a_wrong_schedule(workloads_module, tmp_path,
                                                            monkeypatch, fault):
    """A window state whose capacity or cadence departs from the documented
    sizing emits on another schedule, and the check rejects its round."""
    from gesturepipe import recognizer

    w = workloads_module
    scene = w.stream_setup(0, w.QUICK, tmp_path / "setup")
    if fault == "capacity":
        monkeypatch.setattr(recognizer, "effective_window", lambda config, fps: 49)
    else:
        init = recognizer.WindowState.__init__

        def floor_cadence(self, capacity, *args):
            init(self, capacity, *args)
            self.cadence = math.floor(0.5 * capacity) - 1

        monkeypatch.setattr(recognizer.WindowState, "__init__", floor_cadence)
    rnd = w.stream_round(scene, w.QUICK, tmp_path)
    with pytest.raises(CheckError):
        w.stream_check(scene, rnd, None)


def test_prep_check_rejects_corrupted_files(workloads_module, tmp_path):
    w = workloads_module
    inputs = w.prep_setup(0, w.QUICK, tmp_path / "setup")
    w.prep_check(inputs, w.prep_round(inputs, w.QUICK, tmp_path / "r0"), None)
    for name, point, axis in (("_rot+30.jsonl", 3, 1), ("_speed2.jsonl", 5, 0),
                              ("_rot-15.jsonl", 1, 0)):
        rnd = w.prep_round(inputs, w.QUICK, tmp_path / name)
        src, aug, ingested, read = rnd.out
        path = aug / f"{inputs.sources[0].label.name}_000{name}"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[-1])
        doc["kp"][point][axis] += 0.25
        lines[-1] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckError):
            w.prep_check(inputs, rnd, None)


def test_prep_round_times_the_reference_before_every_operation(workloads_module, tmp_path):
    w = workloads_module
    inputs = w.prep_setup(0, w.QUICK, tmp_path / "setup")
    rnd = w.prep_round(inputs, w.QUICK, tmp_path / "r0")
    assert len(rnd.reference) == len(rnd.units)
    assert all(t > 0 for t in rnd.reference)


# --- whole runs ---

def test_quick_mode_runs_every_workload(capsys):
    import run

    assert run.main(["--quick"]) == 0
    results = [json.loads(line) for line in capsys.readouterr().out.splitlines()
               if line.startswith("{")]
    assert [r["correct"] for r in results] == [True, True, True]
    assert all(r["attempted"] >= 1 for r in results)


def test_run_without_program_sources_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stream", "--seed",
                           "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
