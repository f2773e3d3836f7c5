"""Benchmark of the inmerge engine: end-to-end timings or a traced layer table.

Run one workload (the last stdout line is a JSON result):

    python3 bench/run.py --workload tiny_protocol --seed 0 --seconds 35 --trace 0

Run all three, each in its own process, with one table per workload:

    python3 bench/run.py --workload all --seed 0 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics. Only a step clock is hooked
in (train epoch, sgd_step, evaluate, grid cell), so nothing is timed
inside a step. ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics from the traced ones; the spans are written
to ``.bench_work/traces/``. See README.md in this directory for the
workloads, the metrics and what each layer metric should move.

The engine is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("tiny_protocol", "vgg_protocol", "ablate_multilabel")
SETUP_REPEATS = 5
GEMM_REPEATS = 3
MAX_CONV = 8  # small_vgg_d has the most conv layers (8) and pools (4)
MAX_POOL = 4

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("train_samples_per_s", "samples/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("eval_samples_per_s", "samples/s"),
    ("peak_rss_mb", "MB"),
]

# span name -> per-step metric; the self times of these add up to the step
STEP_KEYS = {
    "layers.conv2d.fwd": "layers.conv2d.fwd_ms",
    "layers.conv2d.bwd": "layers.conv2d.bwd_ms",
    "layers.maxpool2d.fwd": "layers.maxpool2d.fwd_ms",
    "layers.maxpool2d.bwd": "layers.maxpool2d.bwd_ms",
    "layers.relu.fwd": "layers.relu.fwd_ms",
    "layers.relu.bwd": "layers.relu.bwd_ms",
    "layers.dense.fwd": "layers.dense.fwd_ms",
    "layers.dense.bwd": "layers.dense.bwd_ms",
    "layers.loss": "layers.loss_ms",
    "tensor.ensure_finite": "tensor.ensure_finite_ms",
    "model.forward": "model.forward_self_ms",
    "model.backward": "model.backward_self_ms",
    "data.normalize": "data.normalize_ms",
    "data.apply_flip": "data.apply_flip_ms",
    "merging.sweep": "merging.sweep_ms",
    "training.sgd_step": "training.sgd_step_ms",
    "training.step": "training.step_self_ms",
}

PER_LAYER = [(key, "ms") for key in STEP_KEYS.values()]
for _k in range(MAX_CONV):
    PER_LAYER += [
        (f"layers.conv{_k}.fwd_ms", "ms"),
        (f"layers.conv{_k}.bwd_ms", "ms"),
        (f"layers.conv{_k}.gflops", "GFLOP/s"),
        (f"layers.conv{_k}.blas_gflops", "GFLOP/s"),
        (f"layers.conv{_k}.fwd_gflop_computed", "GFLOP"),
        (f"layers.conv{_k}.bwd_gflop_computed", "GFLOP"),
        (f"layers.conv{_k}.im2col_mb_computed", "MB"),
    ]
for _k in range(MAX_POOL):
    PER_LAYER += [(f"layers.pool{_k}.fwd_ms", "ms"), (f"layers.pool{_k}.bwd_ms", "ms")]
PER_LAYER += [
    ("training.step_ms", "ms"),
    ("training.evaluate_ms", "ms"),
    ("merging.draws", "count"),
    ("merging.merges", "count"),
    ("merging.merge_ratio", "ratio"),
    ("merging.similarity_stats_ms", "ms"),
    ("data.load_dataset_ms", "ms"),
    ("data.synth_make_ms", "ms"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("metrics.per_class_auroc_ms", "ms"),
    ("cli.cell_s", "s"),
    ("cli.workers", "count"),
    ("trace_overhead_pct", "%"),
    ("step_accounted_pct", "%"),
]


# ---------------------------------------------------------------------------
# environment


def import_engine() -> None:
    """Put the checkout's ``src/`` first on the path and import the engine."""
    if not (SRC / "inmerge" / "__init__.py").is_file():
        print(f"bench: no engine source at {SRC}/inmerge; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import inmerge

    if Path(inmerge.__file__).resolve().parent != (SRC / "inmerge").resolve():
        print(f"bench: imported inmerge from {inmerge.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, inmerge; print(time.perf_counter() - t)"
)


def import_seconds() -> list[float]:
    """Import time of numpy + inmerge, once per fresh interpreter: users
    pay it once per process, so it is sampled in child processes."""
    return [
        float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            check=True, capture_output=True, text=True, timeout=60,
        ).stdout)
        for _ in range(SETUP_REPEATS)
    ]


def _openblas() -> dict:
    """Runtime OpenBLAS build string and thread count, when numpy bundles it."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            return {"config": config().decode(), "threads": threads()}
    return {"config": None, "threads": None}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = _openblas()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "openblas_runtime": runtime["config"],
        "blas_threads": runtime["threads"],
        "env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "INMERGE_THREADS")
        },
    }


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Rep:
    traced: bool
    run_s: float
    spans: list  # the spans this repetition recorded
    outcome: object


@dataclass
class Measurement:
    setup_s: list[float]
    reps: list[Rep]
    failures: list[str]
    full_spans: list  # every span of the full tracer (setup and traced reps)


def measure(wl, seed: int, seconds: float, trace: bool, workdir: Path) -> Measurement:
    from tracing import Tracer, hooks, installed

    full, clock = Tracer(), Tracer()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        if trace:
            with installed(full, hooks(full=True)):
                state = wl.setup(seed, workdir)
        else:
            state = wl.setup(seed, workdir)
        setup_s.append(time.perf_counter() - start)

    reps: list[Rep] = []
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        tracer = full if traced else clock
        rep_dir = workdir / f"rep{len(reps)}"
        mark = tracer.mark()
        start = time.perf_counter()
        try:
            with installed(tracer, hooks(full=traced)):
                result = wl.run(state, rep_dir)
        except Exception:  # the engine failed: record it and stop measuring
            failures.append(traceback.format_exc())
            break
        run_s = time.perf_counter() - start
        outcome = wl.collect(state, rep_dir, result)
        shutil.rmtree(rep_dir, ignore_errors=True)
        reps.append(Rep(traced, run_s, tracer.spans[mark:], outcome))
        modes_missing = trace and len({r.traced for r in reps}) < 2
        if not modes_missing and time.perf_counter() + run_s > deadline:
            break
        traced = trace and not traced
    return Measurement(setup_s, reps, failures, full.spans)


def _spans(reps: list[Rep], name: str) -> list:
    return [s for r in reps for s in r.spans if s.name == name]


def end_to_end(m: Measurement, import_s: list[float]) -> tuple[dict, dict]:
    """Metric values and their sample counts, from the untraced reps."""
    from tracing import STEP

    reps = [r for r in m.reps if not r.traced]
    steps = [s.duration * 1e3 for s in _spans(reps, STEP)]
    epochs = _spans(reps, "training.train_epoch")
    evals = _spans(reps, "training.evaluate")
    values = {
        "setup_s": statistics.median(import_s) + statistics.median(m.setup_s),
        # min of N: contention on a shared host only ever slows a repetition
        "run_s": min(r.run_s for r in reps) if reps else 0.0,
        "train_samples_per_s": _rate(epochs),
        "step_ms_p50": statistics.median(steps) if steps else 0.0,
        "step_ms_p90": _quantile(steps, 0.9),
        "eval_samples_per_s": _rate(evals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "setup_s": f"{len(m.setup_s)} setups + {len(import_s)} imports",
        "run_s": f"{len(reps)} repetitions",
        "train_samples_per_s": f"{sum(s.attrs['samples'] for s in epochs)} samples, {len(epochs)} epochs",
        "step_ms_p50": f"{len(steps)} steps",
        "step_ms_p90": f"{len(steps)} steps" + ("" if len(steps) >= 100 else ", under 100: indicative"),
        "eval_samples_per_s": f"{sum(s.attrs['samples'] for s in evals)} samples, {len(evals)} passes",
        "peak_rss_mb": "1 process",
    }
    return values, counts


def _rate(spans) -> float:
    busy = sum(s.duration for s in spans)
    return sum(s.attrs["samples"] for s in spans) / busy if busy > 0 else 0.0


def _quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _conv_work(attrs: dict) -> tuple[int, int, int, int]:
    """(M, K, N) of a conv call's forward GEMM, plus its patch-matrix bytes."""
    n, c, h, w = attrs["x"]
    o, _, kh, kw = attrs["w"]
    s, p = attrs["stride"], attrs["padding"]
    ho = (h + 2 * p - kh) // s + 1
    wo = (w + 2 * p - kw) // s + 1
    k, cols = c * kh * kw, n * ho * wo
    return o, k, cols, k * cols * 4


def blas_gflops(m: int, k: int, n: int, seed: int) -> float:
    """Best-of-N rate of a float32 (m x k) @ (k x n) GEMM, for reading conv
    GFLOP/s against what BLAS reaches on the same shapes."""
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    a @ b  # warm-up: thread pool and page faults
    best = float("inf")
    for _ in range(GEMM_REPEATS):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 2.0 * m * k * n / best / 1e9


def per_layer(m: Measurement, seed: int) -> tuple[dict, list]:
    """Per-layer metrics from the full tracer's spans, plus the accounting
    check that per-step self times add up to the traced step time."""
    import inmerge.cli
    from tracing import STEP, enclosing_step, self_times
    from workloads import Check

    spans = m.full_spans
    own = self_times(spans)
    step_of = enclosing_step(spans)
    n_steps = sum(1 for s in spans if s.name == STEP)
    per_step = {key: 0.0 for key in STEP_KEYS.values()}
    conv = {(d, k): 0.0 for d in ("fwd", "bwd") for k in range(MAX_CONV)}
    pool = {(d, k): 0.0 for d in ("fwd", "bwd") for k in range(MAX_POOL)}
    flops = {(d, k): 0 for d in ("fwd", "bwd") for k in range(MAX_CONV)}
    im2col = {k: 0 for k in range(MAX_CONV)}
    gemm_shape: dict[int, tuple] = {}
    unaccounted = 0.0
    for span, self_s, step in zip(spans, own, step_of):
        if step < 0:
            continue
        key = STEP_KEYS.get(span.name)
        if key is None:
            unaccounted += self_s
            continue
        per_step[key] += self_s
        pos = span.attrs.get("pos") if span.attrs else None
        if pos is None:
            continue
        direction = span.name.rsplit(".", 1)[1]
        if span.name.startswith("layers.conv2d"):
            conv[(direction, pos)] += self_s
            mm, kk, nn, cols_bytes = _conv_work(span.attrs)
            # forward: one GEMM; backward: grad-weight and grad-input GEMMs
            flops[(direction, pos)] += 2 * mm * kk * nn * (1 if direction == "fwd" else 2)
            if direction == "fwd":
                im2col[pos] += cols_bytes
                if nn > gemm_shape.get(pos, (0, 0, 0))[2]:
                    gemm_shape[pos] = (mm, kk, nn)
        else:
            pool[(direction, pos)] += self_s

    steps = max(n_steps, 1)
    ms = 1e3 / steps
    values = {key: total * ms for key, total in per_step.items()}
    for k in range(MAX_CONV):
        busy = conv[("fwd", k)] + conv[("bwd", k)]
        work = flops[("fwd", k)] + flops[("bwd", k)]
        values[f"layers.conv{k}.fwd_ms"] = conv[("fwd", k)] * ms
        values[f"layers.conv{k}.bwd_ms"] = conv[("bwd", k)] * ms
        values[f"layers.conv{k}.gflops"] = work / busy / 1e9 if busy > 0 else 0.0
        values[f"layers.conv{k}.blas_gflops"] = (
            blas_gflops(*gemm_shape[k], seed) if k in gemm_shape else 0.0
        )
        values[f"layers.conv{k}.fwd_gflop_computed"] = flops[("fwd", k)] / steps / 1e9
        values[f"layers.conv{k}.bwd_gflop_computed"] = flops[("bwd", k)] / steps / 1e9
        values[f"layers.conv{k}.im2col_mb_computed"] = im2col[k] / steps / 1e6
    for k in range(MAX_POOL):
        values[f"layers.pool{k}.fwd_ms"] = pool[("fwd", k)] * ms
        values[f"layers.pool{k}.bwd_ms"] = pool[("bwd", k)] * ms

    def mean_ms(name: str, scale: float = 1e3) -> float:
        found = [s.duration for s in spans if s.name == name]
        return statistics.fmean(found) * scale if found else 0.0

    sweeps = [s.attrs for s in spans if s.name == "merging.sweep"]
    draws = sum(a["draws"] for a in sweeps)
    merges = sum(a["merges"] for a in sweeps)
    saves = [s.attrs["bytes"] for s in spans if s.name == "checkpoint.save"]
    step_ms = sum(s.duration for s in spans if s.name == STEP) * ms
    traced = [r.run_s for r in m.reps if r.traced]
    plain = [r.run_s for r in m.reps if not r.traced]
    values.update({
        "training.step_ms": step_ms,
        "training.evaluate_ms": mean_ms("training.evaluate"),
        "merging.draws": draws / len(sweeps) if sweeps else 0.0,
        "merging.merges": merges / len(sweeps) if sweeps else 0.0,
        "merging.merge_ratio": merges / draws if draws else 0.0,
        "merging.similarity_stats_ms": mean_ms("merging.similarity_stats"),
        "data.load_dataset_ms": mean_ms("data.load_dataset"),
        "data.synth_make_ms": mean_ms("data.synth_make"),
        "checkpoint.save_ms": mean_ms("checkpoint.save"),
        "checkpoint.load_ms": mean_ms("checkpoint.load"),
        "checkpoint.bytes": statistics.fmean(saves) if saves else 0.0,
        "metrics.per_class_auroc_ms": mean_ms("metrics.per_class_auroc"),
        "cli.cell_s": mean_ms("cli.cell", scale=1.0),
        "cli.workers": float(inmerge.cli._worker_count()),
        "trace_overhead_pct": (
            (min(traced) / min(plain) - 1.0) * 100.0
            if traced and plain else 0.0
        ),
    })
    accounted = sum(per_step.values()) * ms
    values["step_accounted_pct"] = accounted / step_ms * 100.0 if step_ms > 0 else 0.0
    checks = []
    if n_steps:
        gap = abs(accounted - step_ms) + unaccounted * ms
        checks.append(Check(
            "per-step self times add up to the traced step",
            gap <= 1e-6 * step_ms,
            f"{accounted:.6f} of {step_ms:.6f} ms, {unaccounted * ms:.6f} ms under unknown spans",
        ))
    return values, checks


# ---------------------------------------------------------------------------
# checks and report


def run_checks(wl, m: Measurement, seed: int, smoke: bool) -> list:
    from workloads import Check, compare_trajectory, load_reference

    checks = [c for r in m.reps for c in r.outcome.checks]
    if not m.reps:
        return checks
    first = m.reps[0]
    for i, rep in enumerate(m.reps[1:], start=1):
        same = rep.outcome.artifacts == first.outcome.artifacts
        differing = sorted(
            k for k in set(rep.outcome.artifacts) | set(first.outcome.artifacts)
            if rep.outcome.artifacts.get(k) != first.outcome.artifacts.get(k)
        )
        label = "traced" if rep.traced else "untraced"
        checks.append(Check(
            f"rep {i} ({label}) artifacts byte-identical to rep 0 (untraced)",
            same, f"differ: {differing}" if differing else "",
        ))
    if smoke:
        return checks
    want = load_reference().get(wl.name, {}).get(str(seed))
    if want is None:
        print(f"note: no reference trajectory for {wl.name} seed {seed}; "
              "losses checked for finiteness, learning and determinism only")
    else:
        bad = compare_trajectory(first.outcome.trajectory, want)
        checks.append(Check("loss trajectory matches reference", not bad, "; ".join(bad[:3])))
    return checks


def report(wl, args, env, values: dict, counts: dict, units: dict, checks, m: Measurement):
    steps = len(_spans(m.reps, "training.step"))
    evals = len(_spans(m.reps, "training.evaluate"))
    cells = sum(r.outcome.cells for r in m.reps)
    failed_checks = [c for c in checks if not c.passed]
    attempted = steps + evals + cells + len(checks) + len(m.failures)
    failed = len(failed_checks) + len(m.failures)

    print(f"# inmerge benchmark: {wl.name}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print("env " + json.dumps(env, sort_keys=True))
    width = max(len(name) for name in values)
    for name, value in values.items():
        note = counts.get(name, "")
        print(f"{name:<{width}}  {value:>14.6g} {units[name]:<9} {note}")
    print(f"{'error_rate':<{width}}  {failed / max(attempted, 1):>14.6g} {'ratio':<9} "
          f"{failed} of {attempted} operations (steps, eval passes, cells, checks)")
    for c in checks:
        if not c.passed:
            print(f"FAIL {c.name}: {c.detail}")
    for text in m.failures:
        print("FAIL engine raised:\n" + text, file=sys.stderr)
    print(f"checks: {len(checks) - len(failed_checks)} of {len(checks)} passed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return failed == 0


def write_trace(wl, args, env, spans) -> Path:
    out = WORK / "traces" / f"{wl.name}-seed{args.seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for span in spans:
            fh.write(json.dumps(span.to_record(), default=list) + "\n")
    return out


def run_one(args) -> int:
    import_engine()
    from workloads import workload

    wl = workload(args.workload, smoke=args.smoke)
    env = environment(args)
    workdir = WORK / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        m = measure(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks = run_checks(wl, m, args.seed, args.smoke)
    if args.trace:
        values, layer_checks = per_layer(m, args.seed)
        checks += layer_checks
        counts = {
            "training.step_ms": f"{sum(1 for s in m.full_spans if s.name == 'training.step')} traced steps",
            "trace_overhead_pct": f"{sum(r.traced for r in m.reps)} traced vs "
                                  f"{sum(not r.traced for r in m.reps)} untraced repetitions",
        }
        units = dict(PER_LAYER)
        values = {name: values[name] for name, _ in PER_LAYER}
        print(f"trace written to {write_trace(wl, args, env, m.full_spans)}")
    else:
        values, counts = end_to_end(m, import_seconds())
        units = dict(END_TO_END)
    return 0 if report(wl, args, env, values, counts, units, checks, m) else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"bench: {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": v for name, r in results.items() for metric, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes, for the smoke test; no reference or learning checks")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
