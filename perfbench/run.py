"""hardyglue benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload node-highN --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the current directory and driven
in-process through ``hardyglue.cli.main``; stdout of every job is captured
and checked (see ``gate.py``).  With ``--trace 0`` the run reports the
end-to-end metrics, measured untraced over whole rounds of jobs until
``--seconds`` have passed.  With ``--trace 1`` it runs a fixed list of
rounds once untraced and once under the tracer of ``tracing.py`` and reports
the per-layer metrics.  The last line of stdout is the result object; each
run is also appended, with its provenance, to
``.perfbench_out/results.jsonl`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from gate import run_job

ROOT = Path.cwd()
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PAIRS = 11  # set-up interpreters, each paired with a baseline one
BASELINE_NOMINAL_S = 0.1  # setup_s is set-up time where the baseline takes this long
REF_EVERY_S = 0.2  # seconds between reference samples
RESULTS = ".perfbench_out/results.jsonl"  # run records, appended
TRACE_ROUNDS = {"node-highN": 2, "verify-all": 2, "scenario-mix": 8}

# A fresh interpreter: import the CLI, run one small job, report the time.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, "src")
import contextlib, io, json
import hardyglue.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = hardyglue.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"seconds": time.perf_counter() - start, "rc": rc}))
"""

# A fresh interpreter that loads what the CLI loads apart from hardyglue
# (numpy and the same stdlib modules) and runs the reference kernel once.
BASELINE_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, "perfbench")
import argparse, contextlib, dataclasses, io, json, pathlib
import numpy
from reference import Reference
Reference().sample()
print(json.dumps({"seconds": time.perf_counter() - start, "rc": 0}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def load_program():
    src = ROOT / "src"
    if not (src / "hardyglue" / "cli.py").is_file():
        raise BenchError(f"no hardyglue sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import hardyglue.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "hardyglue").resolve():
        raise BenchError(f"imported hardyglue from {cli.__file__}, not from {src}")
    return cli


# ---------------------------------------------------------------------------
# provenance


def _blas_threads() -> int:
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(handle, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hardyglue").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def provenance(seed: int) -> dict:
    import numpy

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = _blas_threads()
    if blas > cores:
        raise BenchError(f"BLAS uses {blas} threads on {cores} cores")
    return {"cores": cores, "cpu": _cpu_model(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": blas, "seed": seed, "git_commit": _git_commit(),
            "src_sha256": _src_sha256()}


# ---------------------------------------------------------------------------
# measurements


def _fresh_interpreter(code: str, *args: str) -> tuple:
    """Seconds a fresh interpreter reports for ``code``, and a failure or None."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:  # no report from the child: fall back to its wall time
        return perf_counter() - start, f"process exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    rec = json.loads(proc.stdout.splitlines()[-1])
    return rec["seconds"], (f"job exited {rec['rc']}" if rec["rc"] != 0 else None)


def measure_setup(job) -> tuple:
    """Set-up time of a fresh interpreter (import the CLI, run one small job)
    in seconds at a fixed machine speed, the raw figures, and the failures.

    Each set-up interpreter is paired with a baseline interpreter that never
    imports hardyglue, in alternating order.  Other tenants' load changes how
    fast both run by the same factor (raw set-up medians moved 20-38% between
    sets of runs minutes apart, the ratio 0-3%), so setup_s is the median
    ratio times BASELINE_NOMINAL_S.  Work the program adds to import or to
    the first call raises the ratio; the baseline cannot change with it."""
    setups, bases, ratios, failures = [], [], [], []
    for i in range(SETUP_PAIRS):
        order = ("setup", "base") if i % 2 == 0 else ("base", "setup")
        pair = {}
        for kind in order:
            if kind == "setup":
                pair[kind], failure = _fresh_interpreter(SETUP_CODE, json.dumps(list(job.argv)))
            else:
                pair[kind], failure = _fresh_interpreter(BASELINE_CODE)
            if failure:
                failures.append(f"{kind} interpreter: {failure}")
        setups.append(pair["setup"])
        bases.append(pair["base"])
        ratios.append(pair["setup"] / pair["base"])
    raw = {"setup_raw_s": statistics.median(setups), "baseline_raw_s": statistics.median(bases),
           "setup_ratio": statistics.median(ratios)}
    return BASELINE_NOMINAL_S * raw["setup_ratio"], raw, failures


def tail_index(n: int, percentile: float) -> int:
    """Sorted (nearest-rank) index of the tail latency."""
    return min(n - 1, math.ceil(percentile / 100.0 * n) - 1)


class Tally:
    """Latencies and failures of the jobs run through it.  With a reference,
    it also samples the reference kernel between jobs, at most every
    REF_EVERY_S, so every job lies between two reference samples."""

    def __init__(self, reference=None):
        self.latencies = []
        self.failures = []
        self.checks = 0
        self.reference = reference
        self.ref_times = []
        self.ref_before = []
        self._last_ref = float("-inf")

    def _sample_reference(self):
        self.ref_times.append(self.reference.sample())
        self._last_ref = perf_counter()

    def run(self, cli, jobs):
        for job in jobs:
            if self.reference is not None and perf_counter() - self._last_ref >= REF_EVERY_S:
                self._sample_reference()
            self.ref_before.append(len(self.ref_times) - 1)
            seconds, reason, n_checks = run_job(cli, job)
            self.latencies.append(seconds)
            self.checks += n_checks
            if reason:
                self.failures.append({"job": job.scenario_id, "argv": list(job.argv[:1]),
                                      "reason": reason})

    def relative_latencies(self) -> list:
        """Each latency over the median of the four reference samples around
        it (two before, two after; fewer at the ends of the run), so one
        disturbed sample does not move the jobs next to it."""
        self._sample_reference()
        refs = self.ref_times
        return [lat / statistics.median(refs[max(0, k - 1):k + 3])
                for lat, k in zip(self.latencies, self.ref_before)]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(cli, workload: str, rounds: list, seconds: float, tmp: str):
    """Untraced run: a warm-up round, then whole rounds for about
    ``seconds``, with the reference kernel sampled between jobs.  Job
    times are reported in units of the reference time measured around
    them, which cancels the load other tenants put on the machine."""
    from reference import Reference
    from workloads import ROUNDS_PER_STEP, TAIL_PERCENTILE, setup_job

    warm = Tally()
    warm.run(cli, rounds[0])
    setup_s, setup_raw, setup_failures = measure_setup(setup_job(workload, tmp))
    reference = Reference()
    reference.sample()
    tally = Tally(reference)
    r = steps = 0
    start = perf_counter()
    # Stop at the step boundary nearest to the measuring time.
    while steps == 0 or (perf_counter() - start) * (1 + 0.5 / steps) < seconds:
        for _ in range(ROUNDS_PER_STEP[workload]):
            tally.run(cli, rounds[1 + r % (len(rounds) - 1)])
            r += 1
        steps += 1
    elapsed = perf_counter() - start
    rel = sorted(tally.relative_latencies())
    raw = sorted(tally.latencies)
    n = len(rel)
    tail = tail_index(n, TAIL_PERCENTILE[workload])
    failed = len(tally.failures)
    metrics = {
        "jobs_per_kref": _metric(1e3 * n / sum(rel), "1/kref"),
        "job_p50_ref": _metric(statistics.median(rel), "ref"),
        "job_tail_ref": _metric(rel[tail], "ref"),
        "pass_frac": _metric((n - failed) / n, "ratio"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    failures = warm.failures + [{"job": "setup", "reason": f} for f in setup_failures] + tally.failures
    details = {
        "jobs": n, "rounds": r, "elapsed_s": elapsed, "fail_frac": failed / n,
        "tail_percentile": 100.0 * (tail + 1) / n, "jobs_beyond_tail": n - 1 - tail,
        "reference_ms": 1e3 * statistics.median(tally.ref_times),
        "reference_samples": len(tally.ref_times),
        "reference_share": sum(tally.ref_times) / elapsed,
        **setup_raw,
        "jobs_per_s": n / elapsed, "job_p50_ms": 1e3 * statistics.median(raw),
        "job_tail_ms": 1e3 * raw[tail],
        "failures": failures[:50],
    }
    return n, failed, not failures, metrics, details


def traced_run(cli, workload: str, rounds: list):
    """Traced run over a fixed list of rounds.  Each job runs once untraced
    and then once traced, back to back, so the load on the machine moves
    both timings alike and their ratio gives the tracing overhead."""
    from tracing import Tracer, layer_metrics

    jobs = [job for rnd in rounds[1:1 + TRACE_ROUNDS[workload]] for job in rnd]
    warm = Tally()
    warm.run(cli, rounds[0])
    plain, traced, tracer = Tally(), Tally(), Tracer()
    untraced_wall = traced_wall = 0.0
    for job in jobs:
        start = perf_counter()
        plain.run(cli, [job])
        untraced_wall += perf_counter() - start
        tracer.begin_job(job.tag)
        with tracer:
            start = perf_counter()
            traced.run(cli, [job])
            traced_wall += perf_counter() - start
    values = layer_metrics(tracer, traced_wall, untraced_wall, traced.checks)
    metrics = {name: _metric(v, unit) for name, (v, unit) in values.items()}
    failures = warm.failures + plain.failures + traced.failures
    attempted = len(plain.latencies) + len(traced.latencies)
    failed = len(plain.failures) + len(traced.failures)
    details = {"jobs": len(jobs), "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
               "failures": failures[:50]}
    return attempted, failed, not failures, metrics, details


# ---------------------------------------------------------------------------


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    for var in BLAS_ENV:  # before numpy loads; inherited by set-up processes
        os.environ[var] = "1"
    args = parse_args(argv)
    from workloads import make_rounds

    try:
        cli = load_program()
        prov = provenance(args.seed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out = ROOT / RESULTS
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out.parent, prefix=f"{args.workload}-") as tmp:
        rounds = make_rounds(args.workload, args.seed, tmp)
        if args.trace:
            attempted, failed, correct, metrics, details = traced_run(cli, args.workload, rounds)
        else:
            attempted, failed, correct, metrics, details = timed_run(
                cli, args.workload, rounds, args.seconds, tmp)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "details": details, "result": result}
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {details['jobs']}  commit {prov['git_commit'] or prov['src_sha256'][:12]}")
    if not args.trace:
        print(f"tail at p{details['tail_percentile']:.1f} with {details['jobs_beyond_tail']} jobs "
              f"beyond it; fail_frac {details['fail_frac']:.4g}; reference "
              f"{details['reference_ms']:.3f} ms; set-up {details['setup_raw_s']:.4f} s over "
              f"baseline {details['baseline_raw_s']:.4f} s; raw: jobs_per_s {details['jobs_per_s']:.4g}, "
              f"job_p50_ms {details['job_p50_ms']:.4g}, job_tail_ms {details['job_tail_ms']:.4g}")
    for failure in details["failures"]:
        print(f"FAILED {failure['job']}: {failure['reason']}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
