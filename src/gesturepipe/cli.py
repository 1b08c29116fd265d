"""Command-line interface for the gesture pipeline.

Subcommands cover the whole flow: ``synth`` builds labeled synthetic
sequences, ``ingest`` converts OpenPose output, ``augment`` adds rotated and
resampled copies, ``train`` fits the classifier, ``eval`` scores a test set,
``stream`` replays a sequence through the streaming recognizer, and ``speed``
measures a cyclic gesture's period.

Exit codes: 0 success, 2 bad flags, 3 data errors, 4 numeric failure. Bad
flags include a number that is not finite (``inf``, ``nan``), in any flag or
in ``augment``'s comma-separated lists, and a number out of range: ``--fps``
of ``synth``, ``ingest``, ``stream`` and ``speed``, ``--per-class`` and
``--frames`` of ``synth``, ``--window``, ``--epochs``, ``--batch``, ``--lr``,
``--gru-hidden``, ``--head-dim``, ``--speed-ratio``, ``--base-fps`` and
``--vote-n`` must be positive, ``--hidden-dims`` must be two positive
integers joined by a comma, and ``--stride``, the ``--seed`` of ``synth``
and ``train`` and ``--split-seed`` must not be negative (a ``--stride`` of 0
means the window length). A jitter
range of ``synth`` whose minimum exceeds its maximum, or that reaches a
non-positive scale, a negative noise or a period too short for a cyclic
gesture, is a configuration error (exit 3), and so are a ``synth --drop-prob``
outside [0, 1], and a ``synth --frames`` or a ``stream`` window (from
``--base-len``, ``--fps``, ``--base-fps`` and ``--speed-ratio``) above
``skeleton.MAX_FRAMES``, 100,000. ``speed`` takes its encoding from
``--start-positions`` when given, so ``--encoding`` beside it is a bad flag.

``train``'s held-out test accuracy splits windows, not sequences: at stride 10,
50-frame windows of one sequence share 40 frames across the split. ``eval``
on a separate directory gives the held-out figure. ``train`` rewrites
``weights.gpw`` atomically (``nn.save_model``) at each epoch whose validation
accuracy matches or beats the best so far, so a run that ends in exit 4 leaves
the best epoch it reached, and no ``history.csv`` and no manifest line.
``augment`` writes each distinct angle and speed ratio once. ``eval`` tags a
row of sequences with no view angle ``@none`` (``no view angle`` per angle),
right after the label's 0° row.

Each ``cmd_*`` function computes, writes its outputs and returns its run
record ``(out_dir, inputs, outputs, seeds)``, or None when it wrote no file.
After a command succeeds, :func:`main` appends the record as one JSON line to
``manifest.jsonl`` in ``out_dir``, beside the outputs.

A flag that fills a field of a library config takes its default from that
field: ``recognizer.WindowConfig`` for the window and vote flags,
``nn.ModelConfig`` for the layer sizes and ``train --seed``, and
``synth.SynthConfig`` and ``synth.JitterSpec`` for ``synth``'s length, fps,
seed and jitter ranges. So each default is written once, in the library.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Iterator
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, augment, features, nn, recognizer, skeleton, speed, synth
from .errors import IoError, NonFiniteGradient, PipelineError
from .features import Encoding
from .skeleton import GestureLabel


def _number(kind=float, bound: str = ""):
    """An argparse type: ``kind`` of the text, refused unless finite and inside
    ``bound``, when it names one: "positive" or "at least 0"."""
    def parse(text: str):
        value = kind(text)
        if bound and not (value > 0 if bound == "positive" else value >= 0):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        if not -math.inf < value < math.inf:  # compares an int of any size without overflow
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its "invalid int value" message
    return parse


def _layer_sizes(text: str) -> tuple[int, int]:
    """An argparse type: the two dense layer sizes, positive integers joined by a comma."""
    try:
        sizes = tuple(int(v) for v in text.split(","))
    except ValueError:
        sizes = ()
    if len(sizes) != 2 or min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"must be two positive integers joined by a comma, got {text}")
    return sizes


def _parse_floats(text: str) -> list[float]:
    """An argparse type: finite numbers joined by commas; empty items are skipped."""
    try:
        return [_number()(v) for v in text.split(",") if v.strip()]
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"must be finite numbers joined by commas, got {text}") from None


# (out_dir, inputs, outputs, seeds) of one run; out_dir exists, since the command wrote there
RunRecord = tuple[Path, list, list, dict]


def _write_manifest(args: argparse.Namespace, started: tuple[str, float],
                    out_dir: Path, inputs: list, outputs: list, seeds: dict) -> None:
    doc = {
        "command": args.func.__name__.removeprefix("cmd_"),
        "flags": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seeds": seeds,
        "version": __version__,
        "started_utc": started[0],
        "duration_s": round(time.monotonic() - started[1], 3),
    }
    with open(out_dir / "manifest.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, default=str) + "\n")


def _read_sequence_dir(path: Path) -> Iterator[tuple[Path, skeleton.Sequence]]:
    """(file, sequence) for each sequence file in ``path``, in name order. The
    directory is listed and checked at the call; each file is read only when the
    caller reaches it, so one sequence at a time is held."""
    if not path.is_dir():
        raise IoError(f"{path} is not a directory")
    files = sorted(p for p in path.glob("*.jsonl") if p.name != "manifest.jsonl")
    if not files:
        raise IoError(f"no sequence files in {path}")
    return ((p, skeleton.read_sequence(p)) for p in files)


def _windows_from_sequences(seqs, encoding: Encoding, window: int, stride: int):
    """Encode (file, sequence) pairs and cut them into labeled windows, one
    every ``stride`` frames, or every ``window`` frames when ``stride`` is 0.
    A refusal names the file.

    Returns (x, y, angles): the (n, window, dim) windows, their (n,) labels,
    and an (n,) object array of the view angle (a float or None) of the
    sequence each window came from, for eval grouping.
    """
    parts, labels, angles = [], [], []
    for path, seq in seqs:
        if seq.label is None:
            raise IoError(f"{path}: sequence has no label; cannot use it for training/eval")
        try:
            matrix = features.encode_sequence(seq, encoding)
        except PipelineError as exc:  # args, not a new error, so the class and its fields stay
            exc.args = (f"{path}: {exc}",)
            raise
        windows = features.slice_windows(matrix, window, stride or window)
        parts.append(windows)
        labels += [int(seq.label)] * len(windows)
        angles += [seq.view_angle_deg] * len(windows)
    if not labels:
        raise IoError(f"no sequence is long enough for a {window}-frame window")
    return np.concatenate(parts), np.asarray(labels), np.array(angles, dtype=object)


# --- synth ---

def cmd_synth(args) -> RunRecord:
    base = synth.SynthConfig(
        gesture=GestureLabel.StandStill,
        n_frames=args.frames,
        fps=args.fps,
        seed=args.seed,
    )
    jitter = synth.JitterSpec(
        period=(args.period_min, args.period_max),
        scale=(args.scale_min, args.scale_max),
        noise_frac=(args.noise_min, args.noise_max),
    )
    sequences = synth.generate_dataset(args.per_class, base, jitter)
    out_dir = Path(args.out)
    outputs = []
    for i, seq in enumerate(sequences):  # per_class sequences of each gesture in turn
        if args.drop_prob != 0.0:  # drop_keypoints refuses a probability outside [0, 1]
            seq = synth.drop_keypoints(seq, args.drop_prob, args.seed + 1 + i)
        out_dir.mkdir(parents=True, exist_ok=True)  # after drop_keypoints checks, so a refusal leaves no out_dir
        path = out_dir / f"{seq.label.name}_{i % args.per_class:03d}.jsonl"
        skeleton.write_sequence(path, seq)
        outputs.append(path)
    print(f"wrote {len(outputs)} sequences to {out_dir}")
    return out_dir, [], outputs, {"seed": args.seed}


# --- ingest ---

def cmd_ingest(args) -> RunRecord:
    label = GestureLabel[args.label] if args.label else None
    seq = skeleton.load_sequence(args.input, args.fps, label=label, view_angle_deg=args.view_angle)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    skeleton.write_sequence(out, seq)
    print(f"ingested {len(seq)} frames -> {out}")
    return out.parent, [args.input], [out], {}


# --- augment ---

def cmd_augment(args) -> RunRecord:
    in_dir = Path(args.input)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = augment.load_depth_table(args.depth_config) if args.depth_config else augment.default_depth_table()
    # each view and speed once, in first-seen order: 0 and -0 are one view, and --both-sides adds no -0
    angles = dict.fromkeys(a for mag in args.angles for a in ((mag, -mag) if args.both_sides and mag else (mag,)))

    outputs = []

    def write(name: str, seq: skeleton.Sequence) -> None:
        outputs.append(out_dir / name)
        skeleton.write_sequence(outputs[-1], seq)

    for path, seq in _read_sequence_dir(in_dir):
        if args.include_original:
            write(path.name, seq)
        for angle in angles:
            write(f"{path.stem}_rot{angle:+g}.jsonl", augment.rotate_sequence(seq, table, augment.RotationSpec(angle)))
        for ratio in dict.fromkeys(args.speed_ratios):
            write(f"{path.stem}_speed{ratio:g}.jsonl", augment.resample_speed(seq, ratio))
    print(f"wrote {len(outputs)} sequences to {out_dir}")
    return out_dir, [in_dir], outputs, {}


# --- train ---

def cmd_train(args) -> RunRecord:
    encoding = Encoding(args.encoding)
    x, y, _ = _windows_from_sequences(_read_sequence_dir(Path(args.data)), encoding, args.window, args.stride)
    config = nn.ModelConfig(
        input_dim=encoding.dim,
        hidden_dims=args.hidden_dims,
        gru_hidden=args.gru_hidden,
        head_dims=(args.head_dim,),
        seed=args.seed,
    )
    out_dir = Path(args.out)
    weights_path = out_dir / "weights.gpw"

    def save_best(params: nn.ModelParams) -> None:  # from the first epoch's end on, so a refusal leaves no out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        nn.save_model(weights_path, params, encoding)

    history = nn.train(
        x,
        y,
        config,
        epochs=args.epochs,
        lr=args.lr,
        batch_size=args.batch,
        split_seed=args.split_seed,
        on_best=save_best,
    )
    history_path = out_dir / "history.csv"
    with open(history_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_accuracy\n")
        for row in history:
            fh.write(f"{row.epoch},{row.train_loss!r},{row.val_accuracy!r}\n")

    best = max(history, key=lambda row: (row.val_accuracy, row.epoch))  # the epoch on_best saved last
    test_idx = nn.split_dataset(len(x), args.split_seed)[2]
    test_acc = float("nan")
    if len(test_idx):  # read back once training's arrays are gone
        params, _ = nn.load_model(weights_path)
        test_acc = nn.accuracy(params, x[test_idx], y[test_idx])
    print(f"windows: {len(x)}  best epoch: {best.epoch}")
    print(f"validation accuracy: {best.val_accuracy:.4f}")
    print(f"held-out test accuracy: {test_acc:.4f}")
    return out_dir, [args.data], [weights_path, history_path], {"seed": args.seed, "split_seed": args.split_seed}


# --- eval ---

def _view(angle: float | None) -> tuple[tuple[float, bool], str, str]:
    """Eval's names for a view angle (None: the file records none): its sort key,
    which puts None right after 0°, its row-label suffix and its per-angle tag."""
    if angle is None:
        return (0.0, True), "@none", "no view angle"
    return (angle, False), f"@{angle:+g}" if angle else "", f"{angle:+g} deg" if angle else "frontal"


def cmd_eval(args) -> RunRecord:
    params, encoding = nn.load_model(args.weights)
    x, y, angles = _windows_from_sequences(_read_sequence_dir(Path(args.data)), encoding, args.window, args.stride)
    pred, _ = nn.predict_batch(params, x)
    correct = pred == y

    labels = list(GestureLabel)
    # the frontal rows, 0° or no angle, come first
    groups = sorted(dict.fromkeys(zip(map(GestureLabel, y.tolist()), angles)),
                    key=lambda g: (_view(g[1])[0][0] != 0.0, g[0], _view(g[1])[0]))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    confusion_path = out_dir / "confusion.csv"
    with open(confusion_path, "w", encoding="utf-8") as fh:
        fh.write("true_label,view_angle_deg,n," + ",".join(l.name for l in labels) + "\n")
        # text rendering: numbered columns with a legend, one row per CSV row
        print("predicted-label columns:")
        for i, l in enumerate(labels):
            print(f"  c{i} = {l.name}")
        print(f"{'true label @ view':>32} " + " ".join(f"{'c' + str(i):>5}" for i in range(len(labels))))
        for label, angle in groups:
            mask = (y == label) & (angles == angle)
            row = np.bincount(pred[mask], minlength=len(labels)) / mask.sum()
            angle_cell = "" if angle is None else f"{angle:g}"
            fh.write(f"{label.name},{angle_cell},{mask.sum()}," + ",".join(f"{r:.4f}" for r in row) + "\n")
            print(f"{label.name + _view(angle)[1]:>32} " + " ".join(f"{r:5.2f}" for r in row))

    print("per-class accuracy:")
    for label in labels:
        mask = y == int(label)
        if mask.any():
            print(f"  {label.name}: {float(correct[mask].mean()):.4f}")
    print("per-angle accuracy:")
    for angle in sorted(dict.fromkeys(angles), key=lambda a: _view(a)[0]):
        mask = angles == angle
        print(f"  {_view(angle)[2]}: {correct[mask].mean():.4f} (n={mask.sum()})")
    overall = float(correct.mean())
    print(f"overall accuracy: {overall:.4f} (n={len(y)})")
    return out_dir, [args.weights, args.data], [confusion_path], {}


# --- stream ---

def cmd_stream(args) -> RunRecord | None:
    params, encoding = nn.load_model(args.weights)
    seq = skeleton.read_sequence(args.sequence)
    fps = args.fps if args.fps else seq.fps
    config = recognizer.WindowConfig(**{f.name: getattr(args, f.name) for f in fields(recognizer.WindowConfig)})
    state = recognizer.make_window_state(config, fps, encoding)
    print(f"window capacity: {state.capacity} frames, re-evaluating every {state.cadence}")
    emissions = []
    paced_from = time.monotonic()
    for i, kp in enumerate(seq.kp):
        if args.realtime:
            # frame i is due (i + 1) / fps in; a deadline keeps evaluations from adding drift
            time.sleep(max(0.0, paced_from + (i + 1) / fps - time.monotonic()))
        emission = state.push(features.encode_frame(kp, encoding), params)
        if emission is not None:
            emissions.append(emission)
            print(
                f"frame={emission.frame_index} raw={emission.raw.name} "
                f"smoothed={emission.smoothed.name} conf={emission.confidence:.4f}"
            )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("frame_index,raw,smoothed,confidence\n")
            for e in emissions:
                fh.write(f"{e.frame_index},{e.raw.name},{e.smoothed.name},{e.confidence!r}\n")
        return out.parent, [args.sequence, args.weights], [out], {}
    return None


# --- speed ---

def cmd_speed(args) -> RunRecord | None:
    seq = skeleton.read_sequence(args.sequence)
    if args.label:
        label = GestureLabel[args.label]
    elif seq.label is not None:
        label = seq.label
    else:
        raise IoError("sequence carries no label; pass --label")
    if args.start_positions:
        table, encoding = speed.load_start_positions(args.start_positions)
    else:
        encoding = Encoding(args.encoding or "coordinate")
        table = speed.default_start_positions(encoding)
    window = features.encode_sequence(seq, encoding)
    estimate = speed.estimate_speed(window, label, table, args.fps or seq.fps)
    print(f"period_frames={estimate.period_frames} cycles_per_second={estimate.cycles_per_second:.4f}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(
                {
                    "label": label.name,
                    "period_frames": estimate.period_frames,
                    "cycles_per_second": estimate.cycles_per_second,
                }
            )
            + "\n",
            encoding="utf-8",
        )
        return out.parent, [args.sequence], [out], {}
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gesturepipe",
        description="Real-time dynamic arm gesture recognition pipeline.",
        epilog="Set OPENBLAS_NUM_THREADS or OMP_NUM_THREADS to cap BLAS parallelism.",
    )
    parser.add_argument("--version", action="version", version=f"gesturepipe {__version__}")
    sub = parser.add_subparsers(required=True, metavar="command")
    windows = argparse.ArgumentParser(add_help=False)  # the labeled windows train and eval read
    windows.add_argument("--data", required=True, help="directory of labeled sequence files")
    windows.add_argument("--window", type=_number(int, "positive"), default=recognizer.WindowConfig.base_len)
    windows.add_argument("--stride", type=_number(int, "at least 0"), default=0,
                         help="window stride (default: window length)")
    replay = argparse.ArgumentParser(add_help=False)  # the recorded sequence stream and speed read
    replay.add_argument("sequence", help="sequence file")
    replay.add_argument("--fps", type=_number(float, "positive"), default=None,
                        help="override the sequence's stored fps")

    p = sub.add_parser("synth", help="generate labeled synthetic sequences")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--per-class", type=_number(int, "positive"), default=40)
    p.add_argument("--frames", type=_number(int, "positive"), default=synth.SynthConfig.n_frames)
    p.add_argument("--fps", type=_number(float, "positive"), default=synth.SynthConfig.fps)
    p.add_argument("--period-min", type=_number(int), default=synth.JitterSpec.period[0])
    p.add_argument("--period-max", type=_number(int), default=synth.JitterSpec.period[1])
    p.add_argument("--scale-min", type=_number(), default=synth.JitterSpec.scale[0])
    p.add_argument("--scale-max", type=_number(), default=synth.JitterSpec.scale[1])
    p.add_argument("--noise-min", type=_number(), default=synth.JitterSpec.noise_frac[0],
                   help="noise sigma lower bound, fraction of subject scale")
    p.add_argument("--noise-max", type=_number(), default=synth.JitterSpec.noise_frac[1],
                   help="noise sigma upper bound, fraction of subject scale")
    p.add_argument("--drop-prob", type=_number(), default=0.0,
                   help="probability of zeroing each keypoint (x, y and confidence)")
    p.add_argument("--seed", type=_number(int, "at least 0"), default=synth.SynthConfig.seed)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="convert OpenPose JSON output to a sequence file")
    p.add_argument("input", help="directory of per-frame *.json files, or a JSONL file")
    p.add_argument("--fps", type=_number(float, "positive"), required=True)
    p.add_argument("--label", choices=[g.name for g in GestureLabel], default=None)
    p.add_argument("--view-angle", type=_number(), default=None)
    p.add_argument("--out", required=True, help="output sequence file")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("augment", help="write rotated-view and resampled copies")
    p.add_argument("input", help="directory of sequence files")
    p.add_argument("--out", required=True)
    p.add_argument("--angles", type=_parse_floats, default="", help='rotation angles, e.g. "15,30,45"')
    p.add_argument("--both-sides", action="store_true", help="also rotate by the negated angles")
    p.add_argument("--speed-ratios", type=_parse_floats, default="", help='speed ratios, e.g. "0.5,2.0"')
    p.add_argument("--depth-config", default=None, help="depth table file (default: built-in)")
    p.add_argument("--no-include-original", dest="include_original", action="store_false",
                   help="do not copy the source sequences into the output")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", parents=[windows], help="train the window classifier")
    p.add_argument("--encoding", required=True, choices=[e.value for e in Encoding])
    p.add_argument("--epochs", type=_number(int, "positive"), default=30)
    p.add_argument("--lr", type=_number(float, "positive"), default=1e-3)
    p.add_argument("--batch", type=_number(int, "positive"), default=16)
    p.add_argument("--seed", type=_number(int, "at least 0"), default=nn.ModelConfig.seed, help="weight init seed")
    p.add_argument("--split-seed", type=_number(int, "at least 0"), default=0, help="60/10/30 split seed")
    p.add_argument("--hidden-dims", type=_layer_sizes, default=nn.ModelConfig.hidden_dims)
    p.add_argument("--gru-hidden", type=_number(int, "positive"), default=nn.ModelConfig.gru_hidden)
    p.add_argument("--head-dim", type=_number(int, "positive"), default=nn.ModelConfig.head_dims[0])
    p.add_argument("--out", required=True, help="output directory for weights and history")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[windows], help="confusion matrix and accuracy on a test set")
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True, help="output directory for confusion.csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stream", parents=[replay], help="replay a sequence through the streaming recognizer")
    p.add_argument("--weights", required=True)
    p.add_argument("--speed-ratio", type=_number(float, "positive"), default=recognizer.WindowConfig.speed_ratio)
    p.add_argument("--base-len", type=_number(int), default=recognizer.WindowConfig.base_len)
    p.add_argument("--base-fps", type=_number(float, "positive"), default=recognizer.WindowConfig.base_fps)
    p.add_argument("--vote-n", type=_number(int, "positive"), default=recognizer.WindowConfig.vote_n)
    p.add_argument("--retention", type=_number(), default=recognizer.WindowConfig.retention)
    p.add_argument("--realtime", action="store_true", help="pace the replay at the stream fps")
    p.add_argument("--out", default=None, help="optional CSV of emissions")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("speed", parents=[replay], help="estimate a cyclic gesture's period")
    p.add_argument("--label", choices=[g.name for g in GestureLabel], default=None)
    references = p.add_mutually_exclusive_group()
    references.add_argument("--start-positions", default=None,
                            help="start-position JSON, with its encoding (default: built-in references)")
    references.add_argument("--encoding", choices=[e.value for e in Encoding], default=None,
                            help="encoding for the built-in references (default: coordinate)")
    p.add_argument("--out", default=None, help="optional JSON result file")
    p.set_defaults(func=cmd_speed)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = datetime.now(timezone.utc).isoformat(timespec="seconds"), time.monotonic()
    try:
        record = args.func(args)
        if record is not None:
            _write_manifest(args, started, *record)
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, NonFiniteGradient) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
