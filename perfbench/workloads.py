"""The benchmark's three workloads: stream, train and prep.

Each workload has a set-up step, a round of timed operations and a check of
the round's outputs. A run sets up several times, then repeats whole rounds
of the same operations on the same inputs until the timed time reaches the
requested seconds, so every count per round is the same in every run.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gesturepipe import augment, cli, features, nn, recognizer, skeleton, speed, synth
from gesturepipe.errors import MissingKeypoint, PipelineError
from gesturepipe.features import Encoding
from gesturepipe.skeleton import GestureLabel

import checks

FPS = 30.0
SEQ_FRAMES = 100
LABELS = [g.name for g in GestureLabel]


@dataclass(frozen=True)
class Sizes:
    """Input and model sizes; FULL is what the benchmark measures.

    Training keeps the first epoch with the best validation accuracy, and a
    validation slice that reaches 1.0 early freezes an undertrained model.
    So FULL trains epochs of 49 steps on windows cut every 10 frames: the
    first epoch stays well below 1.0, and the model kept has 98 or 147 steps.
    """

    hidden_dims: tuple[int, int] = (2048, 1024)
    gru_hidden: int = 256
    head_dim: int = 128
    subject_frames: int = 300
    train_per_class: int = 27
    heldout_per_class: int = 4
    epochs: int = 3
    lr: float = 1e-3
    train_window: int = 50
    train_stride: int = 10
    train_periods: tuple[int, int] = (20, 40)
    train_noise_max: float = 0.02
    prep_per_class: int = 1
    setup_reps: int = 4


FULL = Sizes()
# A small model learns the direction of a circle slowly, so the quick mode
# trains on noiseless gestures of one period, cut into windows of one period:
# every window of a class then shows the same motion.
QUICK = Sizes(hidden_dims=(128, 64), gru_hidden=64, head_dim=64, subject_frames=120,
              train_per_class=16, epochs=30, lr=2e-3, train_window=30, train_stride=30,
              train_periods=(30, 30), train_noise_max=0.0, setup_reps=1)


@dataclass
class Round:
    seconds: float
    units: list[float]        # duration of each operation, in the same order every round
    frames: int
    attempted: int
    failed: int
    report: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    out: object = None        # outputs the check reads, dropped after it
    replay: object = None     # what every later round must reproduce exactly
    reference: list[float] = field(default_factory=list)  # reference_work before each unit


def run_cli(*argv) -> None:
    """Run one gesturepipe command in-process, as a user would from the shell."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"gesturepipe {argv[0]} exited with {code}")


def sequence_files(directory: Path) -> list[Path]:
    return sorted(p for p in directory.glob("*.jsonl") if p.name != "manifest.jsonl")


def kp_array(seq) -> np.ndarray:
    return np.stack([pose.kp for pose in seq.frames])


# --- stream: several subjects in one scene, replayed tick by tick ---

# First tick of each seeded subject; the two 12s enter together, so their
# evaluations fall on the same ticks.
ENTRIES = (0, 6, 12, 12, 18)
# One subject's keypoints drop out as OpenPose's do. Its input is fixed, not
# seeded: its stream ends at frame 52, the first gap, after one emission.
DROPOUT_ENTRY = 3
DROPOUT = synth.SynthConfig(gesture=GestureLabel.LeftHandWave, n_frames=300,
                            period_frames=30, subject_scale=100.0, seed=0)
DROPOUT_PROB, DROPOUT_SEED = 0.005, 3
SLOT_SPACING_PX = 160.0
# The recognizer's documented defaults, spelled out: the check derives the
# window length and the evaluation cadence from these, not from the program.
WINDOW = dict(base_len=50, base_fps=30.0, speed_ratio=1.0, vote_n=5, retention=0.5)


@dataclass
class Scene:
    entries: list[int]
    frames: list[tuple]      # per subject, its poses
    kps: list[np.ndarray]    # per subject, (n, 25, 3)
    params: nn.ModelParams


def shifted(seq, dx: float):
    """The sequence moved dx pixels to the right, as another subject in the scene."""
    poses = []
    for pose in seq.frames:
        kp = np.array(pose.kp)
        kp[kp[:, 2] > 0, 0] += dx
        poses.append(skeleton.Pose(kp))
    return skeleton.Sequence(tuple(poses), seq.fps, label=seq.label)


def stream_setup(seed: int, sizes: Sizes, workdir: Path) -> Scene:
    workdir.mkdir(parents=True)
    base = synth.SynthConfig(gesture=GestureLabel.StandStill, n_frames=sizes.subject_frames,
                             seed=seed)
    pool = synth.generate_dataset(1, base, synth.JitterSpec())
    picks = np.random.default_rng([seed, 1]).choice(len(pool), size=len(ENTRIES), replace=False)
    seqs = [shifted(pool[i], SLOT_SPACING_PX * slot) for slot, i in enumerate(picks)]
    seqs.append(synth.drop_keypoints(synth.generate(DROPOUT), DROPOUT_PROB, DROPOUT_SEED))
    config = nn.ModelConfig(input_dim=Encoding.COORDINATE.dim, hidden_dims=sizes.hidden_dims,
                            gru_hidden=sizes.gru_hidden, head_dims=(sizes.head_dim,), seed=seed)
    path = workdir / "stream.gpw"
    nn.save_model(path, nn.init_params(config), Encoding.COORDINATE)
    params, _ = nn.load_model(path, Encoding.COORDINATE)
    return Scene([*ENTRIES, DROPOUT_ENTRY], [s.frames for s in seqs],
                 [kp_array(s) for s in seqs], params)


def stream_round(scene: Scene, sizes: Sizes, workdir: Path) -> Round:
    clock = time.perf_counter
    config = recognizer.WindowConfig(**WINDOW)
    states = [recognizer.make_window_state(config, FPS, Encoding.COORDINATE) for _ in scene.entries]
    emissions: list[list[tuple]] = [[] for _ in scene.entries]
    failures: list[tuple | None] = [None] * len(scene.entries)
    n_ticks = max(e + len(f) for e, f in zip(scene.entries, scene.frames))
    ticks, latencies, frames, attempted = [], [], 0, 0
    t0 = clock()
    for tick in range(n_ticks):
        start = clock()
        evaluated = False
        for i, entry in enumerate(scene.entries):
            k = tick - entry
            if k < 0 or k >= len(scene.frames[i]) or failures[i] is not None:
                continue
            attempted += 1
            try:
                fv = features.encode_frame(scene.frames[i][k], Encoding.COORDINATE)
            except MissingKeypoint as exc:
                failures[i] = (k, exc.index)
                continue
            frames += 1
            em = states[i].push(fv, scene.params)
            if em is not None:
                emissions[i].append((em.frame_index, int(em.raw), int(em.smoothed), em.confidence))
                evaluated = True
        ticks.append(clock() - start)
        if evaluated:
            latencies.append(ticks[-1])
    seconds = clock() - t0
    n_eval = sum(len(e) for e in emissions)
    return Round(seconds, ticks, frames, attempted, sum(f is not None for f in failures),
                 report={"latencies_s": latencies},
                 counts={"frames": frames, "windows": n_eval, "evaluations": n_eval,
                         "evaluating_ticks": len(latencies)},
                 out=(emissions, failures),
                 replay=(emissions, failures))


def stream_check(scene: Scene, rnd: Round, first: Round | None) -> None:
    if first is not None:
        if rnd.replay != first.replay:
            raise checks.CheckError("a replay of the scene emitted other results than the first")
        return
    emissions, failures = rnd.out
    capacity = checks.ref_capacity(WINDOW["base_len"], WINDOW["base_fps"], WINDOW["speed_ratio"],
                                   FPS)
    cadence = checks.ref_cadence(WINDOW["retention"], capacity)
    windows, labels, confidences = [], [], []
    for i, kp in enumerate(scene.kps):
        gap = checks.first_gap(kp)
        checks.check_gap_failure(failures[i], kp)
        pushed = len(kp) if gap is None else gap[0]
        frame_idx = [e[0] for e in emissions[i]]
        checks.check_schedule(frame_idx, pushed, capacity, cadence)
        checks.check_votes([e[1] for e in emissions[i]], [e[2] for e in emissions[i]],
                           WINDOW["vote_n"])
        coords = checks.ref_coordinates(kp[:pushed])
        windows += [coords[f - capacity : f] for f in frame_idx]
        labels += [e[1] for e in emissions[i]]
        confidences += [e[3] for e in emissions[i]]
    ref_labels, ref_conf = [], []
    for start in range(0, len(windows), 16):
        pred, conf = nn.predict_batch(scene.params, np.stack(windows[start : start + 16]))
        ref_labels += pred.tolist()
        ref_conf += conf.tolist()
    checks.check_raw(labels, confidences, ref_labels, ref_conf)


# --- train: production training and held-out evaluation through the CLI ---

HELDOUT_SEED_OFFSET = 7919


@dataclass
class TrainInputs:
    seed: int
    train_dir: Path
    heldout_dir: Path


def train_setup(seed: int, sizes: Sizes, workdir: Path) -> TrainInputs:
    inputs = TrainInputs(seed, workdir / "train", workdir / "heldout")
    jitter = ("--frames", SEQ_FRAMES, "--period-min", sizes.train_periods[0],
              "--period-max", sizes.train_periods[1], "--noise-max", sizes.train_noise_max)
    run_cli("synth", "--out", inputs.train_dir, "--per-class", sizes.train_per_class,
            *jitter, "--seed", seed)
    run_cli("synth", "--out", inputs.heldout_dir, "--per-class", sizes.heldout_per_class,
            *jitter, "--seed", seed + HELDOUT_SEED_OFFSET)
    return inputs


def run_eval(inputs: TrainInputs, sizes: Sizes, model_dir: Path, eval_dir: Path) -> None:
    run_cli("eval", "--weights", model_dir / "weights.gpw", "--data", inputs.heldout_dir,
            "--window", sizes.train_window, "--stride", sizes.train_stride, "--out", eval_dir)


def train_round(inputs: TrainInputs, sizes: Sizes, workdir: Path) -> Round:
    clock = time.perf_counter
    model_dir, eval_dir = workdir / "model", workdir / "eval"
    t0 = clock()
    run_cli("train", "--data", inputs.train_dir, "--encoding", "coordinate",
            "--window", sizes.train_window, "--stride", sizes.train_stride, "--epochs", sizes.epochs, "--batch", 16, "--lr", sizes.lr,
            "--seed", inputs.seed, "--split-seed", inputs.seed,
            "--hidden-dims", ",".join(map(str, sizes.hidden_dims)),
            "--gru-hidden", sizes.gru_hidden, "--head-dim", sizes.head_dim, "--out", model_dir)
    t1 = clock()
    run_eval(inputs, sizes, model_dir, eval_dir)
    t2 = clock()
    per_seq = (SEQ_FRAMES - sizes.train_window) // sizes.train_stride + 1
    n_windows = len(GestureLabel) * sizes.train_per_class * per_seq
    n_train = len(nn.split_dataset(n_windows, inputs.seed)[0])
    n_heldout = len(GestureLabel) * sizes.heldout_per_class * per_seq
    frames = len(GestureLabel) * (sizes.train_per_class + sizes.heldout_per_class) * SEQ_FRAMES
    return Round(t2 - t0, [t1 - t0, t2 - t1], frames, 2, 0,
                 report={"train_windows_per_s": n_train * sizes.epochs / (t1 - t0),
                         "eval_windows_per_s": n_heldout / (t2 - t1)},
                 counts={"frames": frames},
                 out=(model_dir, eval_dir, sizes.epochs, sizes.train_window, sizes.train_stride))


def train_check(inputs: TrainInputs, rnd: Round, first: Round | None) -> None:
    model_dir, eval_dir, epochs, window, stride = rnd.out
    rnd.report["final_loss"] = checks.check_history(
        (model_dir / "history.csv").read_text(), epochs, math.log(len(GestureLabel)))
    windows, labels = [], []
    for path in sequence_files(inputs.heldout_dir):
        meta, kp = checks.parse_sequence_file(path.read_text())
        coords = checks.ref_coordinates(kp)
        for start in range(0, len(kp) - window + 1, stride):
            windows.append(coords[start : start + window])
            labels.append(GestureLabel[meta["label"]])
    params, _ = nn.load_model(model_dir / "weights.gpw", Encoding.COORDINATE)
    pred = np.concatenate([nn.predict_batch(params, np.stack(windows[s : s + 16]))[0]
                           for s in range(0, len(windows), 16)])
    counts = checks.class_counts(pred, labels, len(GestureLabel))
    checks.check_class_accuracy(counts, 0.95)
    checks.check_confusion_csv((eval_dir / "confusion.csv").read_text(), counts, LABELS)
    rnd.report["min_class_accuracy"] = float(min(r[c] / r.sum() for c, r in enumerate(counts)))
    copy = model_dir / "roundtrip.gpw"
    nn.save_model(copy, params, Encoding.COORDINATE)
    reloaded, _ = nn.load_model(copy, Encoding.COORDINATE)
    for window in windows[:2]:
        checks.check_identical(nn.forward(params, window), nn.forward(reloaded, window),
                               "logits after a save_model/load_model round trip")


# --- prep: the data path a user runs before training ---

# prep's speed follows the machine's: on a shared host, this kind of work
# (Python, small numpy arrays, JSON) runs up to 1.9 times slower for tens of
# seconds at a time, which no median within a 10-second run removes. So prep
# times a fixed piece of the same kind of work, apart from the program,
# before each of its operations, and reports its frames per second on a
# machine where that piece takes REFERENCE_S.
REFERENCE_S = 1e-3
_REFERENCE_KP = np.random.default_rng(0).normal(size=(8, 25, 3)) * 100.0


def reference_work() -> None:
    """A JSON round trip, a 1x1 box and four joint angles for 8 poses."""
    for kp in _REFERENCE_KP:
        back = np.asarray(json.loads(json.dumps(kp.ravel().tolist()))).reshape(25, 3)
        xy = back[:, :2] - back[1, :2]
        xy = xy / (xy.max(axis=0) - xy.min(axis=0))
        a, b = xy[[2, 3, 5, 6]], xy[[3, 4, 6, 7]]
        np.arctan2(np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]), (a * b).sum(axis=1))


ANGLES = (15, 30, 45)
SPEED_RATIOS = (0.5, 2.0)
# Speed-estimation probe: fixed, not seeded, so its misses are the same in
# every run. Every cyclic gesture at these periods and noise fractions.
PROBE_PERIODS = (20, 27, 33, 40)
PROBE_NOISE = (0.0, 0.01, 0.02)
PROBE_SEED = 21


@dataclass
class PrepInputs:
    seed: int
    sources: list            # the seeded set, as `gesturepipe synth` writes it
    openpose_dir: Path
    probe: list              # (gesture, period, noisy, sequence)
    start_table: dict


def openpose_lines(seq) -> str:
    """One OpenPose per-frame document per line, one person each."""
    return "".join(
        json.dumps({"version": 1.3, "people": [
            {"person_id": [-1], "pose_keypoints_2d": pose.kp.ravel().tolist()}]}) + "\n"
        for pose in seq.frames)


def prep_setup(seed: int, sizes: Sizes, workdir: Path) -> PrepInputs:
    base = synth.SynthConfig(gesture=GestureLabel.StandStill, n_frames=SEQ_FRAMES, seed=seed)
    sources = synth.generate_dataset(sizes.prep_per_class, base, synth.JitterSpec())
    openpose_dir = workdir / "openpose"
    openpose_dir.mkdir(parents=True)
    for seq in sources[:: sizes.prep_per_class]:
        (openpose_dir / f"{seq.label.name}.jsonl").write_text(openpose_lines(seq))
    probe = []
    for gesture in speed.CYCLIC_GESTURES:
        for period in PROBE_PERIODS:
            for noise in PROBE_NOISE:
                config = synth.SynthConfig(gesture=gesture, n_frames=SEQ_FRAMES,
                                           period_frames=period, noise_sigma=noise * 100.0,
                                           subject_scale=100.0, seed=PROBE_SEED)
                probe.append((gesture, period, noise > 0, synth.generate(config)))
    return PrepInputs(seed, sources, openpose_dir, probe,
                      speed.default_start_positions(Encoding.COORDINATE))


def prep_round(inputs: PrepInputs, sizes: Sizes, workdir: Path) -> Round:
    clock = time.perf_counter
    units, reference = [], []

    def timed(fn, *args):
        start = clock()
        reference_work()
        reference.append(clock() - start)
        start = clock()
        out = fn(*args)
        units.append(clock() - start)
        return out

    def read_and_encode(path):
        seq = skeleton.read_sequence(path)
        return (seq, features.encode_sequence(seq, Encoding.COORDINATE),
                features.encode_sequence(seq, Encoding.ANGLE))

    def estimate(gesture, seq):
        window = [features.encode_frame(pose, Encoding.COORDINATE) for pose in seq.frames]
        try:
            return speed.estimate_speed(window, gesture, inputs.start_table, FPS).period_frames
        except PipelineError:
            return None

    src, aug, ingested = workdir / "src", workdir / "aug", workdir / "ingest"
    t0 = clock()
    timed(run_cli, "synth", "--out", src, "--per-class", sizes.prep_per_class,
          "--frames", SEQ_FRAMES, "--seed", inputs.seed)
    timed(run_cli, "augment", src, "--out", aug, "--angles", ",".join(map(str, ANGLES)),
          "--both-sides", "--speed-ratios", ",".join(f"{r:g}" for r in SPEED_RATIOS))
    for path in sorted(inputs.openpose_dir.glob("*.jsonl")):
        timed(run_cli, "ingest", path, "--fps", FPS, "--label", path.stem, "--view-angle", 0,
              "--out", ingested / path.name)
    read = {path: timed(read_and_encode, path)
            for path in sequence_files(aug) + sequence_files(ingested)}
    estimates = [timed(estimate, gesture, seq) for gesture, _, _, seq in inputs.probe]
    seconds = clock() - t0
    missed = sum(checks.period_missed(est, period, noisy)
                 for est, (_, period, noisy, _) in zip(estimates, inputs.probe))
    frames = sum(len(seq) for seq, _, _ in read.values()) + sum(len(p[3]) for p in inputs.probe)
    return Round(seconds, units, frames, len(read) + len(estimates), missed,
                 report={"speed_estimates_off_period": missed},
                 counts={"frames": frames, "speed_estimates": len(estimates),
                         "speed_off_period": missed},
                 out=(src, aug, ingested, read), reference=reference)


def prep_check(inputs: PrepInputs, rnd: Round, first: Round | None) -> None:
    src, aug, ingested, read = rnd.out
    per_class = len(inputs.sources) // len(GestureLabel)
    n_ingest = len(list(inputs.openpose_dir.glob("*.jsonl")))
    expected = len(inputs.sources) * (1 + 2 * len(ANGLES) + len(SPEED_RATIOS)) + n_ingest
    if len(read) != expected:
        raise checks.CheckError(f"read back {len(read)} files, expected {expected}")
    parsed = {}
    for path, (seq, coords, angles) in read.items():
        _, kp = checks.parse_sequence_file(path.read_text())
        checks.check_identical(kp, kp_array(seq), f"{path.name} as read by read_sequence")
        checks.check_unit_box(coords)
        checks.check_angles(angles, kp)
        parsed[path] = kp
    # synth's files, augment's copies and the ingested files hold the generator's frames
    for j, seq in enumerate(inputs.sources):
        stem = f"{seq.label.name}_{j % per_class:03d}"
        want = kp_array(seq)
        _, written = checks.parse_sequence_file((src / f"{stem}.jsonl").read_text())
        checks.check_identical(written, want, f"synth output {stem}")
        checks.check_identical(parsed[aug / f"{stem}.jsonl"], want, f"augment copy of {stem}")
        if j % per_class == 0:
            checks.check_identical(parsed[ingested / f"{seq.label.name}.jsonl"], want,
                                   f"ingested {seq.label.name}")
        for angle in ANGLES:
            for signed in (angle, -angle):
                checks.check_rotation(want, parsed[aug / f"{stem}_rot{signed:+g}.jsonl"])
        for ratio in SPEED_RATIOS:
            checks.check_resample(want, parsed[aug / f"{stem}_speed{ratio:g}.jsonl"], ratio)


WORKLOADS = {
    "stream": (stream_setup, stream_round, stream_check),
    "train": (train_setup, train_round, train_check),
    "prep": (prep_setup, prep_round, prep_check),
}


def overhead_probe(workload: str):
    """A repeatable piece of a round, run(inputs, sizes, round_dir, workdir),
    that a traced run times with and without tracing. It is the whole round,
    except for train, whose round is too long to repeat within a run: there
    it is `gesturepipe eval` of the model the last round trained."""
    if workload == "train":
        return lambda inputs, sizes, round_dir, workdir: run_eval(
            inputs, sizes, round_dir / "model", workdir / "eval")
    do_round = WORKLOADS[workload][1]
    return lambda inputs, sizes, round_dir, workdir: do_round(inputs, sizes, workdir)


def trace_targets(workload: str) -> list[tuple]:
    """(owner, attribute, span name, note) for every function a workload's
    traced run wraps, at the place its callers look it up."""
    by_encoding = lambda a, kw: f"features.encode_sequence.{a[1].value}"
    batch = lambda a, kw: len(a[1])
    common = [(synth, "generate_dataset", "synth.generate_dataset", None)]
    if workload == "stream":
        return common + [
            (nn, "save_model", "nn.save_model", None),
            (nn, "load_model", "nn.load_model", None),
            (features, "encode_frame", "features.encode_frame", None),
            (recognizer.WindowState, "push", "recognizer.push", None),
            (recognizer, "forward", "nn.forward", None),
        ]
    if workload == "train":
        return common + [
            (skeleton, "write_sequence", "skeleton.write_sequence", None),
            (skeleton, "read_sequence", "skeleton.read_sequence", None),
            (features, "encode_sequence", by_encoding, None),
            (nn, "_backward_batch", "nn.train_step", batch),
            (nn, "adam_step", "nn.adam_step", None),
            (nn, "predict_batch", "nn.predict_batch", batch),
            (nn, "save_model", "nn.save_model", None),
            (nn, "load_model", "nn.load_model", None),
        ]
    return common + [
        (skeleton, "write_sequence", "skeleton.write_sequence", None),
        (skeleton, "read_sequence", "skeleton.read_sequence", None),
        (skeleton, "load_sequence", "skeleton.load_sequence", None),
        (augment, "rotate_sequence", "augment.rotate_sequence", None),
        (augment, "resample_speed", "augment.resample_speed", None),
        (features, "encode_sequence", by_encoding, None),
        (speed, "estimate_speed", "speed.estimate_speed", None),
    ]
