"""Benchmark of the isoslice command line, end to end and layer by layer.

    python3 bench/run.py --workload disk-flow --seed 1 --seconds 30 --trace 0

Runs one workload's jobs back to back in this process (closed loop, one
client, no threads of its own) by calling ``isoslice.cli.main`` with stdout
captured, on inputs generated from ``--seed``.  Only the ``cli.main`` calls
are timed; input generation and output checks are not.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced jobs and reports the per-layer metrics.  ``--workload all`` runs each
workload in its own process, one after the other.  The last stdout line is
one JSON object; the full record (environment, per-job times, output
hashes, quality per input) goes to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("disk-flow", "organs-linear", "score")
SETUP_REPEATS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def tail_percentile(times: list[float], beyond: int = 10) -> tuple[int, float, int]:
    """(p, value, jobs above it) for the highest whole percentile p whose
    nearest-rank value still has at least ``beyond`` jobs above it.

    With ``beyond`` jobs or fewer no percentile qualifies; the minimum is
    returned as p = 0 with every other job above it.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= beyond:
        return 0, ordered[0], n - 1
    p = 100 * (n - beyond) // n
    rank = max(math.ceil(p * n / 100), 1)
    return p, ordered[rank - 1], n - rank


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def note_peak(peak: dict, phase: str) -> None:
    """Record ``phase`` as the one that set the peak if it raised it."""
    now = peak_rss_mb()
    if now > peak["mb"]:
        peak.update(mb=now, set_by=phase)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": git_commit(),
    }


def run_chain(cli, chain: list[list[str]]) -> tuple[float, list[tuple]]:
    """Run each argv through ``cli.main``; (timed seconds, [(code, stdout, stderr)])."""
    elapsed, results = 0.0, []
    for argv in chain:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "exception"
                traceback.print_exc()
            elapsed += time.perf_counter() - started
        results.append((code, out.getvalue(), err.getvalue()))
    return elapsed, results


def check_job(workload, inp, results, workdir: Path, hashes: dict) -> dict[str, float]:
    """All checks of one job: exit codes, the workload's output checks, and
    SHA-256 of every output file and stdout against earlier repeats of the
    same input (recorded in ``hashes`` on first sight).  Returns its quality."""
    from workloads import require, sha256_file

    for code, _, err in results:
        require(code == 0, f"exit code {code}: {err.strip()[-500:]}")
    stdouts = [out for _, out, _ in results]
    quality = workload.check(inp, stdouts, workdir)
    digest = {p.name: sha256_file(p) for p in workload.outputs(inp, workdir)}
    for k, out in enumerate(stdouts):
        digest[f"stdout{k}"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    first = hashes.setdefault(inp.key, digest)
    require(first == digest, "output hashes differ from an earlier repeat of this input")
    return quality


def import_seconds() -> float:
    """Wall time to start a fresh interpreter and import the CLI, as every
    user command pays it.  Timed in a child process so it can be repeated."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import isoslice.cli"], env=env, check=True)
    return time.perf_counter() - started


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import isoslice.cli as cli
    import workloads
    from tracing import Recorder, layer_metrics

    if Path(cli.__file__).resolve() != ROOT / "src" / "isoslice" / "cli.py":
        raise SystemExit(f"error: imported isoslice from {cli.__file__}, not from {ROOT / 'src'}")
    workload = workloads.WORKLOADS[name]()
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        import_runs = [import_seconds() for _ in range(SETUP_REPEATS)]
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            inputs = None  # drop the previous repeat's inputs before making the next
            started = time.perf_counter()
            inputs = workload.make_inputs(np.random.default_rng(seed), workdir)
            setup_runs.append(time.perf_counter() - started)
        setup_s = statistics.median(import_runs) + statistics.median(setup_runs)
        voxels = {inp.key: workload.output_voxels(inp) for inp in inputs}
        problems = []
        try:
            workload.self_check(inputs)
        except workloads.CheckFailed as exc:
            problems.append(f"set-up check: {exc}")
        # Which phase last raised the peak: peak_rss_mb measures the program
        # only if that is a timed call, not set-up or the benchmark's checks.
        peak = {"setup_mb": peak_rss_mb(), "mb": peak_rss_mb(), "set_by": "set-up"}

        recorder = Recorder()
        jobs, hashes, quality = [], {}, {}
        min_jobs = len(inputs) * (2 if trace else 1)
        deadline = time.perf_counter() + seconds
        while len(jobs) < min_jobs or time.perf_counter() < deadline:
            index = len(jobs)
            inp = inputs[(index // 2 if trace else index) % len(inputs)]
            traced = trace and index % 2 == 1
            for path in workload.outputs(inp, workdir):
                path.unlink(missing_ok=True)
            with recorder.installed(index) if traced else contextlib.nullcontext():
                elapsed, results = run_chain(cli, workload.commands(inp, workdir))
            note_peak(peak, "timed call")
            job = {"input": inp.key, "traced": traced, "seconds": elapsed, "error": None}
            try:
                quality.setdefault(inp.key, check_job(workload, inp, results, workdir, hashes))
            except Exception as exc:  # a wrong output of any kind fails this job, not the run
                job["error"] = f"{type(exc).__name__}: {exc}"
            jobs.append(job)
            note_peak(peak, "check")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(job["error"] is not None for job in jobs)
    timed = [j["seconds"] for j in jobs if not j["traced"]]
    p, tail, above = tail_percentile(timed)
    summary = workload.summarize(quality) if quality else {"l1_ratio": None, "label_dice": None}
    end_to_end = {
        "job_p50_s": statistics.median(timed),
        "job_tail_s": tail,
        "vox_per_s": sum(voxels[j["input"]] for j in jobs if not j["traced"]) / sum(timed),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        **summary,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "end_to_end": end_to_end,
        "tail": {"percentile": p, "jobs_above": above, "jobs": len(timed)},
        "peak_rss": peak,
        "attempted": len(jobs) + len(problems),
        "failed": failed + len(problems),
        "failed_frac": failed / len(jobs),
        "setup_runs_s": setup_runs,
        "import_runs_s": import_runs,
        "problems": problems,
        "quality_by_input": quality,
        "hashes": hashes,
        "jobs": jobs,
    }
    if trace:
        traced = {i: j["seconds"] for i, j in enumerate(jobs) if j["traced"]}
        layers = layer_metrics(recorder.spans, traced)
        # Each traced job follows an untraced one on the same input; pairing
        # them keeps slow phases of the machine out of the ratio.
        layers["trace.overhead_frac"] = statistics.median(jobs[i]["seconds"] / jobs[i - 1]["seconds"] for i in traced) - 1.0
        record["per_layer"] = layers
        (OUT / f"{name}-seed{seed}-spans.json").write_text(json.dumps(recorder.as_json()), encoding="utf-8")
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    return record


def report(record: dict, units: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    env = record["environment"]
    print(
        f"{record['workload']} seed={record['seed']} trace={int(record['trace'])} "
        f"jobs={len(record['jobs'])} failed_frac={record['failed_frac']:.4f} "
        f"nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} commit={env['commit'][:12]}"
    )
    print(f"  peak RSS set by: {record['peak_rss']['set_by']} (after set-up {record['peak_rss']['setup_mb']:.1f} MB)")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    for i, job in enumerate(record["jobs"]):
        if job["error"]:
            print(f"  FAILED job {i} ({job['input']}): {job['error']}")
    metrics = {}
    for key, unit in units.items():
        value = record["per_layer" if record["trace"] else "end_to_end"][key]
        metrics[key] = {"value": value, "unit": unit}
        extra = ""
        if key == "job_tail_s":
            t = record["tail"]
            extra = f"  (p{t['percentile']}, {t['jobs_above']} of {t['jobs']} jobs above)"
        print(f"  {key:24s} {value!s:>24} {unit}{extra}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def metric_units(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def run_all(args) -> dict:
    """Each workload in a child process of its own, so peak RSS stays per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with code {done.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "isoslice" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no isoslice source tree (src/isoslice, tests/oracles.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    if args.workload == "all":
        result = run_all(args)
    else:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        result = report(record, metric_units(record["trace"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
