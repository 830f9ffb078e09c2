"""Benchmark harness for lrskel.

    python3 benchmarks/run.py --workload train --seed 0 --seconds 20 --trace 0

Builds one workload's inputs from the seed, sets it up several times, then
repeats timed passes for ``--seconds`` and checks every pass's outputs
outside the timed region. The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` passes, and the metrics,
which are the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``. The line before it is a fuller report (tail
percentile, per-workload figures, environment), which is also written to
``.bench_out/`` with the spans of a traced run. See README.md beside this
file for the workloads and metrics.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS/OpenMP thread, pinned before numpy loads (numpy, lrskel and the
# harness modules that use them are imported inside functions): the harness
# is a single process sized for a shared 2-core machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# An untraced run sets up at least SETUPS times, and more, up to
# MAX_SETUPS, until SETUP_SECONDS have gone; setup_s is the median.
SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 25, 2.0

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower"},
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
)


def import_lrskel():
    """Import lrskel from the checkout's ``src``; None if it is not there."""
    src = ROOT / "src"
    if not (src / "lrskel" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import lrskel
    if src.resolve() not in Path(lrskel.__file__).resolve().parents:
        return None
    return lrskel


def environment():
    import numpy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "nproc": cpus,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(name, seed, seconds, trace, workdir, scale, spans_path=None):
    """Run one workload; returns (result line, report). A traced run writes
    its spans to ``spans_path`` when one is given."""
    from spans import OVERHEAD_METRIC, PASS_METRICS, SETUP_METRICS, Tracer, unit_metrics
    from workloads import WORKLOADS

    clock = time.perf_counter
    workload = WORKLOADS[name](scale, workdir)
    tracer = Tracer() if trace else None
    problems = []

    setup_times, setup_digests = [], []
    least, most = (1, 1) if trace else (SETUPS, MAX_SETUPS)
    while len(setup_times) < least or (
            len(setup_times) < most and sum(setup_times) < SETUP_SECONDS):
        gc.collect()
        with tracer.unit("setup") if trace else contextlib.nullcontext():
            start = clock()
            inputs, digest = workload.setup(seed)
            setup_times.append(clock() - start)
        setup_digests.append(digest)
    if len(set(setup_digests)) != 1:
        problems.append("set-up files differ between set-ups")

    passes = []
    first_digest = None
    start_all = clock()
    while True:
        traced = trace and len(passes) % 2 == 1
        label = f"pass{len(passes)}"
        gc.collect()
        try:
            with tracer.unit(label) if traced else contextlib.nullcontext():
                start = clock()
                out = workload.run(inputs)
                wall = clock() - start
            found, digest = workload.check(inputs, out)
        except Exception:  # a failing pass is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            wall, out, found, digest = None, None, ["pass raised"], None
        if digest is not None:
            first_digest = first_digest or digest
            if digest != first_digest:
                found.append("outputs differ from the first pass")
        problems += [f"{label}: {p}" for p in found]
        passes.append({"label": label, "traced": traced, "wall": wall,
                       "stats": out.stats if out else {}, "ok": not found})
        if clock() - start_all >= seconds and (not trace or len(passes) >= 2):
            break

    failed = sum(1 for p in passes if not p["ok"])
    untraced = [p["wall"] for p in passes
                if not p["traced"] and p["wall"] is not None]
    if not untraced:
        raise RuntimeError(f"no untraced pass of {name} completed")
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "setup_s": {"median": statistics.median(setup_times), "values": setup_times},
        "wall_s": {"median": statistics.median(untraced), "n": len(untraced),
                   "tail": tail(untraced), "values": untraced},
        "failed_frac": failed / len(passes),
        "problems": problems[:20],
    }
    for stat in ("train_clips_per_s", "time_to_recover_s"):
        value = median_or_none(p["stats"].get(stat) for p in passes
                               if not p["traced"] and p["ok"])
        if value is not None:
            report[stat] = value

    if trace:
        traced_passes = sorted((p for p in passes
                                if p["traced"] and p["wall"] is not None),
                               key=lambda p: p["wall"])
        if not traced_passes:
            raise RuntimeError(f"no traced pass of {name} completed")
        typical = traced_passes[len(traced_passes) // 2]
        log = tracer.log
        values = unit_metrics(log, log.units.index(typical["label"]),
                              PASS_METRICS, tracer.available)
        values.update(unit_metrics(log, log.units.index("setup"),
                                   SETUP_METRICS, tracer.available))
        traced_wall = statistics.median(p["wall"] for p in traced_passes)
        values[OVERHEAD_METRIC["name"]] = (traced_wall
                                           / report["wall_s"]["median"] - 1.0)
        units = {s["name"]: s["unit"]
                 for s in PASS_METRICS + SETUP_METRICS + (OVERHEAD_METRIC,)}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        report["missing_hooks"] = tracer.missing
        report["traced_passes"] = len(traced_passes)
        report["spans"] = {"count": len(tracer.log)}
        if spans_path is not None:
            tracer.log.save(spans_path)
            report["spans"]["file"] = os.path.relpath(spans_path, ROOT)
    else:
        values = {
            "setup_s": report["setup_s"]["median"],
            "wall_s": report["wall_s"]["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                   for s in END_TO_END}

    result = {"correct": not problems, "attempted": len(passes),
              "failed": failed, "metrics": metrics}
    return result, report


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    if import_lrskel() is None:
        print("error: no lrskel sources under src/ next to the benchmark",
              file=sys.stderr)
        return 2
    from workloads import FULL

    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    workdir = tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT_DIR)
    try:
        result, report = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, workdir, FULL,
                                      spans_path=OUT_DIR / f"{stem}.spans.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report_path = OUT_DIR / f"{stem}-trace{args.trace}.json"
    report_path.write_text(json.dumps({"report": report, "result": result},
                                      indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
