#!/usr/bin/env python3
"""Benchmark of the gesturepipe pipeline: one workload per run.

    python3 perfbench/run.py --workload {stream,train,prep} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --quick    # all three workloads at toy size, about 15 seconds

The last line of standard output is one JSON object: whether every check of
the program's outputs passed, the operations attempted and failed, and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). The
lines before it carry the environment and the workload's own figures; the
same record, and with --trace 1 the spans, are written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GESTURE_PIPE_THREADS")
# BLAS thread cap per workload: one thread keeps the streaming tail short;
# training's batched products gain from a second thread. Never above the
# usable cores.
BLAS_THREADS = {"stream": 1, "train": 2, "prep": 1}

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("frames_per_s", "frames/s"))

# (metric, unit, span name, which calls, scale): the mean per call of a
# span's duration. "leaf" calls have no traced child, "inner" calls have one.
# Means are taken over the set-ups and rounds.
PER_LAYER_TIMES = (
    ("features.encode_frame_us", "us", "features.encode_frame", "total", 1e6),
    ("recognizer.push_us", "us", "recognizer.push", "leaf", 1e6),
    ("recognizer.push_eval_ms", "ms", "recognizer.push", "inner", 1e3),
    ("nn.forward_ms", "ms", "nn.forward", "total", 1e3),
    ("nn.train_step_ms", "ms", "nn.train_step", "total", 1e3),
    ("nn.adam_step_ms", "ms", "nn.adam_step", "total", 1e3),
    ("nn.predict_batch_ms", "ms", "nn.predict_batch", "total", 1e3),
    ("nn.save_model_ms", "ms", "nn.save_model", "total", 1e3),
    ("nn.load_model_ms", "ms", "nn.load_model", "total", 1e3),
    ("synth.generate_dataset_s", "s", "synth.generate_dataset", "total", 1.0),
    ("skeleton.write_sequence_ms", "ms", "skeleton.write_sequence", "total", 1e3),
    ("skeleton.read_sequence_ms", "ms", "skeleton.read_sequence", "total", 1e3),
    ("skeleton.load_sequence_ms", "ms", "skeleton.load_sequence", "total", 1e3),
    ("augment.rotate_sequence_ms", "ms", "augment.rotate_sequence", "total", 1e3),
    ("augment.resample_speed_ms", "ms", "augment.resample_speed", "total", 1e3),
    ("features.encode_sequence_ms.coordinate", "ms", "features.encode_sequence.coordinate", "total", 1e3),
    ("features.encode_sequence_ms.angle", "ms", "features.encode_sequence.angle", "total", 1e3),
    ("speed.estimate_speed_ms", "ms", "speed.estimate_speed", "total", 1e3),
)
# Counts per measured round.
PER_LAYER_COUNTS = ("frames", "windows", "evaluations", "evaluating_ticks", "gradient_steps",
                    "sequences_written", "sequences_read", "speed_estimates", "speed_off_period")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("stream", "train", "prep"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="every workload once at toy size")
    args = p.parse_args(argv)
    if not args.quick and args.workload is None:
        p.error("--workload is required without --quick")
    cap = 1 if args.quick else BLAS_THREADS[args.workload]
    args.blas_threads = min(cap, len(os.sched_getaffinity(0)))
    return args


def openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS uses, asked from the library itself."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getattr(handle, fn).restype = ctypes.c_int
                return int(getattr(handle, fn)())
    return None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(blas_threads: int) -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(KeyError, TypeError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_cap": blas_threads,
        "blas_threads_in_use": openblas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
    }


@contextlib.contextmanager
def traced(tracer, targets):
    """Wrap the targets while the block runs; a no-op without a tracer."""
    if tracer is None:
        yield
        return
    for owner, attr, name, note in targets:
        tracer.wrap(owner, attr, name, note)
    try:
        yield
    finally:
        tracer.restore()


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes, workdir: Path) -> dict:
    import checks
    import tracer as tracing
    import workloads

    setup, do_round, check = workloads.WORKLOADS[name]
    targets = workloads.trace_targets(name)
    tracer = tracing.Tracer() if trace else None
    n_spans = lambda: len(tracer.spans) if tracer else 0

    setup_times = []

    def timed_setup(rep: int):
        with traced(tracer, targets):
            t0 = time.perf_counter()
            out = setup(seed, sizes, workdir / f"setup{rep}")
            setup_times.append(time.perf_counter() - t0)
        return out

    # Half the set-ups run before the rounds and half after, so that their
    # median spans the run rather than its first seconds.
    setups_before = (sizes.setup_reps + 1) // 2
    for rep in range(setups_before):
        inputs = timed_setup(rep)
    first_round_span = n_spans()

    rounds, problem, round_dir = [], None, None
    while not rounds or sum(r.seconds for r in rounds) < seconds:
        if round_dir is not None:
            shutil.rmtree(round_dir, ignore_errors=True)
        round_dir = workdir / f"round{len(rounds)}"
        with traced(tracer, targets):
            rnd = do_round(inputs, sizes, round_dir)
        try:
            check(inputs, rnd, rounds[0] if rounds else None)
        except checks.CheckError as exc:
            problem = f"round {len(rounds)}: {exc}"
        rnd.out = None
        rounds.append(rnd)
        gc.collect()
        if problem:
            break
    round_spans = (first_round_span, n_spans())

    for rep in range(setups_before, sizes.setup_reps):
        timed_setup(rep)
        shutil.rmtree(workdir / f"setup{rep}", ignore_errors=True)

    # Rounds repeat the same operations, so each operation's median over the
    # rounds drops a burst of contention that hit one round.
    round_s = sum(statistics.median(col) for col in zip(*(r.units for r in rounds)))
    report = {
        "rounds": len(rounds),
        "setup_s_each": setup_times,
        "frames_per_s_each": [r.frames / r.seconds for r in rounds],
        "round_s_median_ops": round_s,
    }
    if rounds[0].reference:
        # A round's operations over the reference work timed beside them,
        # median over the rounds, in seconds of a machine where the
        # reference work takes REFERENCE_S.
        scale = statistics.median(sum(r.units) / sum(r.reference) for r in rounds)
        report.update(frames_per_s_wall=rounds[0].frames / round_s,
                      reference_ms_median=1e3 * statistics.median(
                          x for r in rounds for x in r.reference))
        round_s = scale * len(rounds[0].reference) * workloads.REFERENCE_S
    if name == "stream":
        lat = [x for r in rounds for x in r.report["latencies_s"]]
        cuts = statistics.quantiles(lat, n=100, method="inclusive")
        p99 = cuts[98]
        report.update(tick_latency_p50_ms=cuts[49] * 1e3, tick_latency_p99_ms=p99 * 1e3,
                      evaluating_ticks=len(lat), ticks_beyond_p99=sum(x > p99 for x in lat),
                      windows_per_s=statistics.median(r.counts["windows"] / r.seconds for r in rounds))
    for key in ("train_windows_per_s", "eval_windows_per_s", "final_loss", "min_class_accuracy",
                "speed_estimates_off_period"):
        if key in rounds[0].report:
            report[key] = statistics.median(r.report[key] for r in rounds if key in r.report)

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "frames_per_s": rounds[0].frames / round_s,
        }
        units = dict(END_TO_END)
    else:
        metrics, units = layer_metrics(tracer, round_spans, rounds)
        metrics["trace.spans"] = len(tracer.spans)
        plain, wrapped = overhead(workloads.overhead_probe(name), inputs, sizes, round_dir,
                                  workdir, tracer, targets)
        report.update(overhead_probe_s_untraced=plain, overhead_probe_s_traced=wrapped)
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(wrapped)
                                                 / statistics.median(plain) - 1.0)
        units.update({"trace.spans": "count", "trace.overhead_pct": "%"})
        BENCH.joinpath("out").mkdir(exist_ok=True)
        tracer.write(BENCH / "out" / f"trace-{name}-seed{seed}.jsonl")
    return {
        "correct": problem is None,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "problem": problem,
        "report": report,
    }


def overhead(probe, inputs, sizes, round_dir: Path, workdir: Path, tracer, targets,
             pairs: int = 4) -> tuple[list[float], list[float]]:
    """Seconds of the probe run without and with tracing, in the order
    untraced, traced, traced, untraced and again, so that a machine that
    speeds up or slows down during the probes favours neither side."""
    plain, wrapped = [], []
    for k in range(2 * pairs):
        on = k % 4 in (1, 2)
        probe_dir = workdir / f"probe{k}"
        with traced(tracer if on else None, targets):
            t0 = time.perf_counter()
            probe(inputs, sizes, round_dir, probe_dir)
            (wrapped if on else plain).append(time.perf_counter() - t0)
        shutil.rmtree(probe_dir, ignore_errors=True)
        gc.collect()
    return plain, wrapped


def layer_metrics(tracer, round_spans: tuple[int, int], rounds) -> tuple[dict, dict]:
    stats = tracer.stats()
    metrics, units = {}, {}
    for metric, unit, span, kind, scale in PER_LAYER_TIMES:
        s = stats.get(span)
        calls = s and s["calls" if kind == "total" else f"{kind}_calls"]
        metrics[metric] = s[f"{kind}_s"] * scale / calls if calls else 0.0
        units[metric] = unit
    s = stats.get("nn.predict_batch")
    metrics["nn.predict_batch_windows"] = s["notes"] / s["calls"] if s else 0.0
    units["nn.predict_batch_windows"] = "windows"

    measured = tracer.stats(*round_spans)
    calls = lambda span: measured.get(span, {}).get("calls", 0)
    notes = lambda span: measured.get(span, {}).get("notes", 0)
    totals = {key: sum(r.counts.get(key, 0) for r in rounds) for key in PER_LAYER_COUNTS}
    totals["windows"] = notes("nn.train_step") + notes("nn.predict_batch") + calls("nn.forward")
    totals["evaluations"] = calls("nn.forward")
    totals["gradient_steps"] = calls("nn.adam_step")
    totals["sequences_written"] = calls("skeleton.write_sequence")
    totals["sequences_read"] = calls("skeleton.read_sequence") + calls("skeleton.load_sequence")
    for key in PER_LAYER_COUNTS:
        metrics[f"count.{key}"] = totals[key] // len(rounds)
        units[f"count.{key}"] = "count"
    return metrics, units


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(args.blas_threads)
    package = ROOT / "src" / "gesturepipe"
    if not (package / "__init__.py").is_file():
        print(f"error: no gesturepipe sources at {package}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import gesturepipe

    if Path(gesturepipe.__file__).resolve().parent != package:
        print(f"error: gesturepipe imported from {gesturepipe.__file__}", file=sys.stderr)
        return 2
    import workloads

    env = environment(args.blas_threads)
    print("env " + json.dumps(env))
    if args.quick:
        jobs = [(w, args.seed, 0.0, bool(args.trace), workloads.QUICK) for w in workloads.WORKLOADS]
    else:
        jobs = [(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL)]
    ok = True
    for name, seed, seconds, trace, sizes in jobs:
        workdir = BENCH / "work" / f"{name}-{os.getpid()}"
        try:
            result = run_workload(name, seed, seconds, trace, sizes, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                workdir.parent.rmdir()
        problem, report = result.pop("problem"), result.pop("report")
        if problem:
            print(f"check failed: {problem}", file=sys.stderr)
        print(f"report {name} " + json.dumps(report))
        if not args.quick:
            BENCH.joinpath("out").mkdir(exist_ok=True)
            record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                      "env": env, "report": report, "result": result}
            (BENCH / "out" / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
                json.dumps(record, indent=1) + "\n")
        print(json.dumps(result))
        ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
