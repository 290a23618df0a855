"""dyadiclab benchmark.

    python3 bench/run.py --workload {extend,assemble,survey} --seed N --seconds S --trace {0,1}

Run from the root of a checkout: it imports `dyadiclab` from the checkout's
`src/` and exits with code 2 if that is missing.  One run

1. with `--trace 0`, times a fresh interpreter running `python -m dyadiclab.cli
   list` (SETUP_REPEATS times after one untimed run, median: `setup_s`);
2. runs the workload's job list once at its small size on fixed inputs as
   warm-up, and compares every exact-labelled value with `reference.json`;
3. runs passes of the job list, each on fresh inputs drawn from the seed and
   the pass index, while another pass still fits in `--seconds`; `wall_s` is
   the median pass time.  With `--trace 1` each pass is followed by a traced
   pass on the same inputs, which gives the per-layer metrics.

Every job's output is checked; a job that raises or fails its check counts in
`failed` and does not stop the run.  BLAS is pinned to one thread before
numpy loads, because on a shared two-core machine OpenBLAS threads on tiny
matrices spin and make the times erratic.  A JSON record with fail_frac
(failed / attempted), the pass times, any problems found and the environment
(nproc, Python, numpy, BLAS and its thread count, git commit, where dyadiclab
was imported from) goes to standard error.  The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("extend", "assemble", "survey")
SETUP_REPEATS = 9
REFERENCE_SEED = 0
REFERENCE_SIZE = "tiny"
REFERENCE_RTOL = 1e-9  # exact-labelled values may differ from reference.json by rounding only
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


class LibraryMissing(RuntimeError):
    pass


def import_library():
    """Import dyadiclab from this checkout's src/, and nowhere else."""
    if not (SRC / "dyadiclab" / "__init__.py").is_file():
        raise LibraryMissing(f"no dyadiclab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dyadiclab

    if Path(dyadiclab.__file__).resolve().parent != SRC / "dyadiclab":
        raise LibraryMissing(f"dyadiclab imported from {dyadiclab.__file__}, not {SRC}")
    return dyadiclab


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


def time_setup(tally: Tally) -> list[float]:
    """Wall time of fresh `python -m dyadiclab.cli list` processes.  The first,
    untimed, writes the bytecode cache that an installed package has."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "dyadiclab.cli", "list"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        listed = [line.split(":", 1)[0] for line in proc.stdout.splitlines()]
        missing = {"aak-extend", "para-bound", "nehari1d"} - set(listed)
        tally.record("cli list", [f"exit code {proc.returncode}, missing {sorted(missing)}"]
                     if proc.returncode or missing else [])
    return times[1:]


def run_pass(jobs, tally: Tally, tracer=None, reference: dict | None = None,
             collect: dict | None = None) -> tuple[float, float]:
    """Run, time and check each job; returns (wall seconds, CPU seconds) of the calls."""
    wall = cpu = 0.0
    for job in jobs:
        if tracer is not None:
            tracer.install()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            result, error = job.call(), None
        except Exception as exc:  # a failed job is counted, not fatal
            result, error = None, exc
        finally:
            wall += time.perf_counter() - start
            cpu += time.process_time() - cpu_start
            if tracer is not None:
                tracer.uninstall()
        tally.record(job.name, _problems(job, result, error, reference, collect))
    return wall, cpu


def _problems(job, result, error, reference, collect) -> list:
    if error is not None:
        return [f"raised {type(error).__name__}: {error}"]
    try:
        problems = job.check(result)
        if reference is not None or collect is not None:
            values = job.exact(result)
            if collect is not None:
                collect[job.name] = values
            if reference is not None:
                problems += compare_exact(values, reference.get(job.name, {}))
        return problems
    except Exception as exc:  # a check that cannot read the output fails the job
        return [f"check raised {type(exc).__name__}: {exc}"]


def load_reference(workload: str) -> dict:
    return json.loads((BENCH / "reference.json").read_text())[workload]


def compare_exact(values: dict, reference: dict) -> list:
    """Problems where exact-labelled values differ from their references."""
    problems = []
    for key in sorted(set(values) | set(reference)):
        if key not in values or key not in reference:
            problems.append(f"{key}: present on one side only")
        elif not _close(values[key], reference[key]):
            problems.append(f"{key}: {values[key]!r} != reference {reference[key]!r}")
    return problems


def _close(value, reference) -> bool:
    if isinstance(reference, list):
        return (isinstance(value, list) and len(value) == len(reference)
                and all(map(_close, value, reference)))
    return abs(value - reference) <= REFERENCE_RTOL * abs(reference)


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
            build=None) -> dict:
    """One benchmark run; returns the result object printed by `main`."""
    import jobs
    import spans

    build = build or jobs.build
    tally = Tally()
    metrics = {}
    if not trace:
        metrics["setup_s"] = statistics.median(time_setup(tally))

    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        # warm-up on fixed small inputs, with exact values compared to the stored references
        run_pass(build(workload, REFERENCE_SEED, 0, REFERENCE_SIZE, out_root, nproc()), tally,
                 reference=load_reference(workload))
        walls, cpus, traced, layers = [], [], [], []
        started = time.perf_counter()
        last = 0.0
        while not walls or time.perf_counter() - started + last <= seconds:
            pass_start = time.perf_counter()
            index = len(walls) + 1
            wall, cpu = run_pass(build(workload, seed, index, size, out_root, nproc()), tally)
            walls.append(wall)
            cpus.append(cpu)
            if trace:
                tracer = spans.Tracer()
                wall, _ = run_pass(build(workload, seed, index, size, out_root, nproc()), tally,
                                   tracer=tracer)
                traced.append(wall)
                layers.append(tracer.metrics())
            last = time.perf_counter() - pass_start
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass

    if trace:
        units = dict(spans.layer_metric_names())
        values = {name: statistics.median(m[name] for m in layers) for name in units}
        units.update({"process.cpu_s": "s", "trace.overhead_s": "s"})
        values["process.cpu_s"] = statistics.median(cpus)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        metrics["wall_s"] = statistics.median(walls)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: {"value": metrics[name], "unit": END_TO_END[name]} for name in END_TO_END}
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "passes": walls, "problems": tally.problems}


def environment(dyadiclab) -> dict:
    """Machine, interpreter, numpy/BLAS and source revision of this run."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(), "env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
        "git_commit": _git_commit(),
        "dyadiclab_path": str(Path(dyadiclab.__file__).resolve().parent),
    }


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = "1"
    try:
        dyadiclab = import_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "fail_frac": result["failed"] / result["attempted"],
                      "pass_wall_s": result.pop("passes"), "problems": result.pop("problems")[:20],
                      "environment": environment(dyadiclab)}), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
