"""ReRAM design-exploration benchmark: one workload per invocation.

    python3 bench/run.py --workload resna-eval --seed 3 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine, the samples and the digests. A full record, and in traced runs
the spans, are written under ``.bench_out/``. See README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the campaign is single-threaded by nature, and
# BLAS threads would compete with it on a small machine.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure_setup(cfg_path: Path) -> list[float]:
    """Wall time from process start to a built problem, in fresh processes.

    Each sample starts ``setup_child.py``, which imports the package,
    parses the config and calls ``build_problem``, then reports ready.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_child.py"), str(SRC), str(cfg_path)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        samples.append(elapsed)
    return samples


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info(args) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ[v] for v in _THREAD_VARS},
    }


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "reramopt" / "__init__.py").is_file():
        print(f"benchmark: no reramopt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    out_root = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = tracing.Tracer() if args.trace else None
    report = workloads.run(args.workload, args.seed, args.seconds, out_root, tracer)
    info = machine_info(args)
    record = {"machine": info, "errors": report.errors, "digests": report.digests, "samples": report.samples()}

    if tracer is None:
        setup = measure_setup(out_root / "config.yaml")
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "step_s": (report.step_s(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record.update(setup_s=setup)
    else:
        low, picks = report.low_fidelity
        values = tracing.layer_metrics(tracer, len(report.pair_walls), low / picks if picks else 0.0)
        values["trace.overhead_frac"] = report.overhead()
        units = tracing.per_layer_units()
        metrics = {name: (values[name], units[name]) for name in units}
        record.update(pair_walls=report.pair_walls)
        tracer.dump(out_root / "spans.jsonl")
        wall = values[f"{tracing.REP_SPAN}.wall_s"]
        for name in tracing.SPAN_NAMES + (tracing.REP_SPAN,):
            own = values[f"{name}.self_s"]
            if own:
                print(f"layer {name:32s} calls/rep {values.get(f'{name}.calls', 1.0):10.1f} "
                      f"self_s/rep {own:9.4f}  share {own / wall:6.1%}")

    correct = not report.errors and report.failed == 0
    result = {
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    (out_root / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("machine " + json.dumps(info, sort_keys=True))
    print("samples step_s " + " ".join(repr(v) for v in report.samples()))
    print(f"fail_frac {report.failed}/{report.attempted}")
    print("note: one closed-loop caller and no queues, so no layer waits; no waiting time is reported")
    for line in report.info:
        print(line)
    for error in report.errors:
        print("check failed: " + error, file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
