"""Run one cfslab benchmark workload and print its metrics.

    python3 cfsbench/run.py --workload dense_classify --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  One
caller runs passes in a closed loop: set-up at least three times and for at
least a second (``setup_s`` is the median), one warm-up pass, then passes
back to back until ``--seconds`` of pass time is measured.  Every pass is
checked after its timing stops; a pass that raises or whose outputs differ
from the references counts as failed.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics: medians over the traced passes, and ``trace.overhead_s``, the
median traced pass minus the median untraced one.  Its spans are written to
``.cfsbench/spans-<workload>-seed<seed>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and the pass times.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up runs at least this often, and until it has taken this long
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX = 20


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (AttributeError, KeyError, TypeError):  # layout differs across versions
            return None
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "workers": nproc,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy),
        **{
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CFSLAB_WORKERS")
        },
    }


def checked_pass(workload, state, ref, timed_run):
    """Run and check one pass: (seconds, problems).

    ``seconds`` is the pass's own timing, or the wall time until it raised.
    Garbage left by earlier passes is collected first, so a pass neither pays
    for another's reference cycles nor inherits its memory.
    """
    from workloads import compare

    gc.collect()
    t0 = time.perf_counter()
    try:
        seconds, out = timed_run()
        problems = workload.verify(state, out)
        problems += compare(workload.name, workload.digest(state, out), ref)
    except Exception:
        return time.perf_counter() - t0, [traceback.format_exc()]
    return seconds, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cfslab" / "__init__.py").is_file():
        print(f"error: no cfslab sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import cfslab

    if Path(cfslab.__file__).resolve().parent != (src / "cfslab").resolve():
        print(f"error: cfslab imported from {cfslab.__file__}, not {src}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import VARIANTS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    refs = json.loads((HERE / "refs.json").read_text())["workloads"]
    ref = refs.get(workload.name, {}).get(str(args.seed % VARIANTS))
    if ref is None:
        print(f"error: no reference outputs for {workload.name} seed {args.seed}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = environment(nproc)

    # warnings the program emits (the Compton-scale warning of the causal
    # window) are expected and are not failures
    warnings.simplefilter("ignore")
    workdir = ROOT / ".cfsbench" / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        setups, state = [], None
        while len(setups) < (1 if args.trace else SETUP_REPEATS) or (
            not args.trace and sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX
        ):
            state = None  # so repeated set-ups do not add to the peak memory
            gc.collect()
            t0 = time.perf_counter()
            state = workload.setup(args.seed, nproc, workdir)
            setups.append(time.perf_counter() - t0)

        def untraced():
            t0 = time.perf_counter()
            out = workload.run(state)
            return time.perf_counter() - t0, out

        tracer = Tracer()
        layer_samples = []

        def traced():
            seconds, out, metrics = tracer.run_traced(lambda: workload.run(state))
            layer_samples.append(metrics)
            return seconds, out

        attempted = failed = 0
        times = {"untraced": [], "traced": []}
        measured = 0.0
        # the first pass warms up; a traced run needs one pass of each kind
        while attempted < (3 if args.trace else 1) or measured < args.seconds:
            kind = "warmup" if attempted == 0 else "traced" if args.trace and attempted % 2 == 0 else "untraced"
            seconds, problems = checked_pass(
                workload, state, ref, traced if kind == "traced" else untraced
            )
            attempted += 1
            if problems:
                failed += 1
                print(f"pass {attempted} ({kind}) failed:", *problems, sep="\n  ", file=sys.stderr)
            if kind != "warmup":
                measured += seconds
                if not problems:
                    times[kind].append(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace == 0:
        rate = [workload.work(state) / t for t in times["untraced"]]
        values = {
            "work_per_s": statistics.median(rate) if rate else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    else:
        wanted = spec["per_layer"]
        values = {m["name"]: 0.0 for m in wanted}  # when every traced pass raised
        if layer_samples:
            values.update(
                {key: statistics.median(s[key] for s in layer_samples) for key in layer_samples[0]}
            )
        if times["traced"] and times["untraced"]:
            values["trace.overhead_s"] = statistics.median(times["traced"]) - statistics.median(
                times["untraced"]
            )
        tracer_dir = ROOT / ".cfsbench"
        tracer_dir.mkdir(exist_ok=True)
        tracer.dump(tracer_dir / f"spans-{workload.name}-seed{args.seed}.npz", env)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print("env " + json.dumps(env))
    for kind, seconds in times.items():
        if seconds:
            print(f"passes {kind} n={len(seconds)} seconds " + json.dumps(seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
