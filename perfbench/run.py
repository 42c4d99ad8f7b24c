"""Benchmark entry point: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8-cnn --seed 0 --seconds 35 --trace 0

With ``--trace 0`` the run measures end-to-end metrics with nothing
installed in the program. With ``--trace 1`` it runs one untraced pass,
then one pass under the outside-in tracer (``perfbench/tracer.py``), and
reports per-layer self times and counts per pass plus the tracing
overhead. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment. A copy of both, with per-unit detail,
goes to ``.perfbench/results/``; traced runs also write their spans to
``.perfbench/traces/``.

The run exits 1 when an output check fails (after printing its result)
and 2 when the program's sources are missing or the workload is unknown.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
#: This process's working directory (service roots), removed on exit.
RUN_SCRATCH = os.path.join(SCRATCH, f"run-{os.getpid()}")

#: Set-up samples per run, each in a fresh process.
SETUP_PROBES = 3

UNITS = {
    "setup_s": "s", "work_s": "s", "jobs_per_s": "1/s", "job_latency_p50_s": "s",
    "job_latency_p90_s": "s", "peak_rss_mb": "MB", "run.final_error": "frac",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set the workload up, print 'ready', exit")
    return parser.parse_args(argv)


def use_program_defaults() -> list:
    """Drop every ``REPRO_*`` knob so the program runs its defaults, and
    put ``src/`` on the import path; returns the names dropped."""
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in dropped:
        del os.environ[name]
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    return dropped


def blas_info() -> dict:
    """The BLAS library NumPy loaded and, for OpenBLAS, its thread count
    (call after importing NumPy)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if getter is None or config is None:
                    continue
                getter.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"library": os.path.basename(path), "threads": getter(),
                        "config": config().decode()}
    return {"library": os.path.basename(libs[0]) if libs else "unknown", "threads": None}


def filesystem_of(path: str) -> dict:
    """Mount point and type of the filesystem that holds ``path``."""
    path = os.path.realpath(path)
    mount, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                _, candidate, kind = line.split()[:3]
                inside = path == candidate or path.startswith(candidate.rstrip("/") + "/")
                if inside and len(candidate) > len(mount):
                    mount, fstype = candidate, kind
    except OSError:
        pass
    return {"mount": mount, "type": fstype}


def environment(dropped: list) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(),
        "service_root_fs": filesystem_of(SCRATCH),
        "dropped_env": dropped,
        "platform": platform.platform(),
    }


def code_hash() -> str:
    """Hash of the program's sources and the benchmark's own, to compare
    digests across runs of the same code."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()


def check_against_earlier_runs(key: str, digests: dict) -> list:
    """Compare this run's output digests with those an earlier run of the
    same code, workload and seed recorded; record them if first."""
    path = os.path.join(SCRATCH, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    earlier = known.get(key)
    if earlier is None:
        known[key] = digests
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(known, fh, sort_keys=True)
        os.replace(tmp, path)
        return []
    return [f"unit {unit} output differs from an earlier run of this code and seed"
            for unit, digest in digests.items() if earlier.get(unit, digest) != digest]


def measure_setup(args) -> list:
    """Set-up time samples, each a fresh process timed from spawn to its
    'ready' line (imports, context or service construction, datasets)."""
    samples = []
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(ready - start)
    return samples


def run_units(workload, deadline, results, problems) -> None:
    """Run whole passes over the workload's units: one at least, then more
    while the next unit's expected time fits before ``deadline``. Repeat
    ``r`` of a unit lands at ``results[unit][r]``."""
    from workloads import median

    units = workload.units
    done = 0
    while True:
        unit = units[done % len(units)]
        repeat = done // len(units)
        if repeat and time.perf_counter() + median(
                [r.seconds for r in results[unit]]) > deadline:
            return
        result = workload.run(unit, repeat)
        results[unit].append(result)
        problems.extend(result.problems)
        done += 1


def unit_of(name: str) -> str:
    """A metric's unit, from its name."""
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_frac", "frac"), ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def timed_run(args, workload, results, problems) -> tuple:
    """End-to-end metrics and run detail, with nothing installed in the
    program."""
    from workloads import median, summarize

    setup_samples = measure_setup(args)
    run_units(workload, time.perf_counter() + args.seconds, results, problems)
    summary = summarize(results, workload.jobs_per_pass)
    return {
        "setup_s": median(setup_samples),
        "work_s": summary["work_s"],
        "jobs_per_s": summary["jobs_per_s"],
        "job_latency_p50_s": summary["job_latency_p50_s"],
        "job_latency_p90_s": summary["job_latency_p90_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {
        "setup_samples_s": setup_samples,
        "latency_samples": summary["latency_samples"],
        "final_error": summary["final_error"],
    }


def traced_run(args, workload, results, problems) -> tuple:
    """Per-layer metrics per pass: one untraced pass, then the same pass
    under the tracer, on a workload set up again after the tracer is in
    place (objects built before it, such as a dataset's loss function,
    would otherwise keep the untraced functions)."""
    from tracer import Tracer
    from workloads import summarize

    run_units(workload, 0.0, results, problems)
    untraced = summarize(results, workload.jobs_per_pass)
    tracer = Tracer()
    traced = {}
    tracer.install()
    try:
        tracer.run_id = f"{workload.name}-setup"
        traced_workload = type(workload)(args.seed, RUN_SCRATCH)
        for unit in workload.units:
            tracer.run_id = f"{workload.name}-{unit}"
            result = traced_workload.run(unit, 0)
            traced[unit] = [result]
            problems.extend(result.problems)
            if result.digest != results[unit][0].digest:
                problems.append(f"unit {unit} output changed under tracing")
    finally:
        tracer.uninstall()
    results.update({f"{unit}+traced": rs for unit, rs in traced.items()})
    untraced_s = untraced["work_s"]
    traced_s = summarize(traced, workload.jobs_per_pass)["work_s"]
    metrics = tracer.layer_metrics(units=1)
    metrics["run.final_error"] = untraced["final_error"]
    metrics["trace.untraced_work_s"] = untraced_s
    metrics["trace.traced_work_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["trace.spans"] = len(tracer.spans)
    span_path = os.path.join(SCRATCH, "traces", f"{workload.name}-seed{args.seed}.jsonl.gz")
    tracer.write_spans(span_path)
    return metrics, {"spans_file": os.path.relpath(span_path, ROOT)}


def report(args, workload, metrics, detail, results, problems, dropped) -> int:
    """Check outputs, print the metrics and the result line, save a copy."""
    all_results = [r for rs in results.values() for r in rs]
    attempted = sum(r.attempted for r in all_results)
    failed = sum(r.failed for r in all_results)
    if args.trace:
        metrics["run.failed_frac"] = failed / attempted if attempted else 1.0
    digests = {f"{unit}/{repeat}": r.digest
               for unit, rs in results.items() for repeat, r in enumerate(rs)}
    problems.extend(check_against_earlier_runs(
        f"{workload.name}/seed{args.seed}/{code_hash()}", digests))
    correct = not problems and failed == 0 and attempted > 0
    env = environment(dropped)
    for name, value in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit_of(name)}")
    if "final_error" in detail:
        print(f"{'final_error (repeat 0; checked, not timed)':42s} "
              f"{detail['final_error']:14.6g} frac")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    detail.update(
        unit_seconds={unit: [r.seconds for r in rs] for unit, rs in results.items()},
        digests=digests,
        problems=problems,
    )
    out_dir = os.path.join(SCRATCH, "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "detail": detail}, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    dropped = use_program_defaults()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(RUN_SCRATCH, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, RUN_SCRATCH)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        results: dict = {unit: [] for unit in workload.units}
        problems: list = []
        measure = traced_run if args.trace else timed_run
        metrics, detail = measure(args, workload, results, problems)
        return report(args, workload, metrics, detail, results, problems, dropped)
    finally:
        shutil.rmtree(RUN_SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
