#!/usr/bin/env python3
"""lgnet benchmark: proposals, two-stage training and evaluation.

    python3 perfbench/run.py --workload {propose,train,eval} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; lgnet is imported from ``src/``
next to this directory. A run sets up its inputs from the seed several
times (reporting the median set-up time), runs one warm-up round, then
repeats whole rounds until ``--seconds`` have passed and checks the last
round's outputs. After each round it times the fixed loop of
``reference.py`` for a tenth of the round's length; ``img_per_s`` and
``setup_s`` are scaled to nominal machine speed by that loop's median
time, which takes out much of the shared host's drift. With
``--trace 0`` the last line of standard output is the end-to-end result;
with ``--trace 1`` every other round is traced and the last line holds
the per-layer metrics. ``--smoke`` runs every
workload at tiny sizes, untraced and traced, in seconds.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, set before numpy loads

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set up at least this many times, and until this many seconds are spent
SETUPS = 3
SETUP_SECONDS = 3.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("propose", "train", "eval"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="every workload at tiny sizes, then exit")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    return args


# -- bookkeeping -----------------------------------------------------------------


def _git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def bookkeeping(workload: str, seed: int) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "lgnet").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- one run ---------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, sizes,
        setup_seconds: float = SETUP_SECONDS) -> tuple[dict, dict]:
    """Set up, warm up, measure and check one workload; returns (result, details)."""
    import reference
    import tracing
    import workloads

    setup, one_round, check, quality = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer() if trace else None
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    try:
        setup_times = []
        while len(setup_times) < SETUPS or sum(setup_times) < setup_seconds:
            target = work / f"setup{len(setup_times)}"
            t0 = perf_counter()
            state = _traced(tracer, "setup", lambda: setup(target, seed, sizes))
            setup_times.append(perf_counter() - t0)
        # set-ups and warm-up leave cyclic garbage, more or less depending on
        # when the collector last ran; the warm-up and the measured rounds
        # start with none, so the peak read below repeats from run to run
        gc.collect()
        one_round(state)  # warm-up: lazy imports and first-call costs
        gc.collect()
        rounds, traced_flags = [], []
        start = perf_counter()
        while True:
            traced = trace and len(rounds) % 2 == 0
            rounds.append(_traced(tracer if traced else None, "round", lambda: one_round(state)))
            traced_flags.append(traced)
            if len(rounds) == 1:
                # freed autograd graphs wait for the cyclic garbage collector,
                # so the peak keeps creeping up round after round; read it
                # after a fixed amount of work, and before the reference
                # loop's arrays exist
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                machine = reference.Reference()
            machine.sample(rounds[-1].seconds)
            if perf_counter() - start >= seconds and (not trace or len(rounds) >= 2):
                break
        last = rounds[-1]
        failures = check(state, last)
        value = quality(state, last)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r, t in zip(rounds, traced_flags) if not t]
    raw_img_per_s = _rate([r.images for r in rounds], [r.seconds for r in rounds])
    details = {
        "rounds": len(rounds),
        "setup_s": setup_times,
        "raw_img_per_s": raw_img_per_s,
        "reference_s": statistics.median(machine.times),
        "reference_calls": len(machine.times),
        "peak_rss_mb_at_end": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "round_s": [r.seconds for r in rounds],
        "failures": failures,
    }
    if workload == "train":
        for stage in ("stage1", "stage2"):
            details[f"{stage}_img_per_s"] = _rate(
                [r.outputs[f"{stage}_images"] for r in plain], [r.outputs[f"{stage}_s"] for r in plain])
        details["stage1_val_mA"] = last.outputs["stage1"].best_val_ma
    if trace:
        n_traced = sum(traced_flags)
        metrics = tracer.per_layer("round", n_traced)
        metrics.update({f"setup.{k}": v for k, v in tracer.per_layer("setup", len(setup_times)).items()})
        for name in ("stage1_img_per_s", "stage2_img_per_s", "stage1_val_mA"):
            metrics[f"training.{name}"] = details.get(name, 0.0)
        traced_s = statistics.median(r.seconds for r, t in zip(rounds, traced_flags) if t)
        plain_s = statistics.median(r.seconds for r in plain)
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
        tracer.dump(OUT / f"trace-{workload}.jsonl")
    else:
        scale = machine.scale()
        metrics = {
            "setup_s": statistics.median(setup_times) / scale,
            "img_per_s": raw_img_per_s * scale,
            "peak_rss_mb": peak_rss_mb,
            "quality": value,
        }
    result = {
        "correct": not failures,
        "attempted": sum(r.ops for r in rounds),
        "failed": 0,
        "metrics": {name: {"value": v, "unit": _unit(name)} for name, v in metrics.items()},
    }
    return result, details


def _rate(images: list[int], seconds: list[float]) -> float:
    # over the whole measured window: the machine's speed drifts from
    # round to round, and a median would pick one speed out of several
    return sum(images) / sum(seconds)


def _traced(tracer, phase: str, fn):
    if tracer is None:
        return fn()
    tracer.phase = phase
    tracer.install()
    try:
        with tracer.span(f"bench.{phase}"):
            return fn()
    finally:
        tracer.uninstall()


UNITS = {
    "setup_s": "s",
    "img_per_s": "images/s",
    "peak_rss_mb": "MB",
    "quality": "fraction",
    "training.stage1_img_per_s": "images/s",
    "training.stage2_img_per_s": "images/s",
    "training.stage1_val_mA": "fraction",
    "trace.overhead_pct": "%",
}


def _unit(name: str) -> str:
    name = name.removeprefix("setup.")
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


# -- entry -------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lgnet" / "__init__.py").is_file():
        print(f"perfbench: no lgnet package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lgnet

    if not Path(lgnet.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported lgnet from {lgnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # an attribute without positives in a small split is expected here
    warnings.filterwarnings("ignore", message="attribute")
    import workloads

    if args.smoke:
        return smoke(args.seed, workloads.SMOKE)
    print("perfbench: " + json.dumps(bookkeeping(args.workload, args.seed)))
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace),
                          workloads.FULL[args.workload])
    for failure in details["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print("perfbench detail: " + json.dumps(details))
    print(json.dumps(result))
    return 0


def smoke(seed: int, sizes: dict) -> int:
    """Every workload untraced and traced; the traced run twice, whose
    per-layer counts must repeat exactly."""
    import tracing

    counts = [*tracing.COUNTS, "trace.spans"]
    counts += [f"setup.{name}" for name in counts]
    seen = {}
    ok = True
    for workload in sizes:
        for trace in (False, True, True):
            result, details = run(workload, seed, 0.0, trace, sizes[workload], setup_seconds=0.0)
            ok = ok and result["correct"] and result["attempted"] > 0
            for failure in details["failures"]:
                print(f"perfbench: {workload}: check failed: {failure}", file=sys.stderr)
            label = f"smoke {workload} trace={int(trace)}"
            if trace and label in seen:
                repeated = all(result["metrics"][c] == seen[label]["metrics"][c] for c in counts)
                if not repeated:
                    print(f"perfbench: {workload}: per-layer counts differ between runs", file=sys.stderr)
                ok = ok and repeated
                continue
            print(f"{label}: " + json.dumps(result))
            seen[label] = result
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
