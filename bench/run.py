"""weylkit benchmark: fixed lists of real CLI jobs, timed to the verdict.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload, one client in a closed loop: each job is a
``weylkit.cli.main(argv)`` call, and passes over the workload's job list
repeat until the next one would end after ``--seconds``.  ``--trace 0``
reports the end-to-end metrics with tracing off; ``--trace 1`` reports
per-layer self times and counts.  Times are reported at a nominal machine
speed, measured with a reference loop while the jobs run (see Speed).  The
last line of stdout is the JSON result; README.md describes the workloads,
the gate, every metric and the speed scaling.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# One client, one BLAS thread: linear algebra does not compete with the
# interpreter (or other tenants) for the cores, which keeps runs comparable.
BLAS_THREADS = 1
SETUP_INTERPRETERS = 11
MIN_PASSES = 2          # the byte-identity gate needs a repeat of every job
# The reference loop of Speed: REF_LOOP iterations take about REF_NOMINAL_S on
# a two-core Xeon VM at its usual speed, so scaled and measured times are close.
# One run of it every REF_INTERVAL_S takes about 5% of the time.
REF_LOOP = 25_000
REF_NOMINAL_S = 0.0025
REF_INTERVAL_S = 0.05
REF_WINDOW = 4          # Speed averages each sample with this many on either side

sys.path.insert(0, str(BENCH))
import micro  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTS, SELF_TIMES, Tracer, snapshot_bindings  # noqa: E402


def median_tail(values: list) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "samples": n, "tail": None}
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            out["tail"] = {"percentile": pct, "value": cuts[round(pct * 10) - 1]}
            break
    return out


def ends_late(elapsed: float, typical: float, seconds: float) -> bool:
    """Whether another pass of ``typical`` length would end more than half a pass late.

    Runs then last ``seconds`` give or take half a pass, whatever the pass length.
    """
    return elapsed + typical / 2 > seconds


class Speed:
    """How fast the machine runs while jobs run, sampled with a fixed reference loop.

    A shared host changes speed by a third or more within minutes and by a
    tenth from one second to the next, for every program alike.  While a
    ``with Speed()`` block runs, a SIGALRM every REF_INTERVAL_S runs the
    reference loop in the same thread and records how long it took, so the
    samples follow the jobs through time.  ``stretch`` turns a stretch of
    measured time into the time it would take at the speed at which the loop
    takes REF_NOMINAL_S.  Each part of the stretch between two samples is
    multiplied by REF_NOMINAL_S over the mean duration of the samples within
    REF_WINDOW of the one that ends it, and the time of the samples themselves
    is left out.  A mean, not a median, because a job's time, like the
    loop's, includes every stall.  The loop calls no weylkit, so a change to
    weylkit moves scaled times as much as measured ones.
    """

    def __init__(self):
        self.samples: list = []      # (start, seconds) of each run of the loop
        self._handler = None
        self._rates: list = []       # nominal over measured speed, per sample

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        total = 0
        for i in range(REF_LOOP):
            total += i * i
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._sample()               # closes the last stretch of the block
        return False

    def factor(self) -> float:
        """REF_NOMINAL_S over the mean sample: the scale for a whole run."""
        return REF_NOMINAL_S / statistics.fmean(d for _, d in self.samples)

    def rate(self, start: float, end: float) -> float:
        """Nominal over measured time from ``start`` to ``end``, outside the samples."""
        scaled, outside = self.stretch(start, end)
        return scaled / outside

    def stretch(self, start: float, end: float) -> tuple:
        """Time from ``start`` to ``end`` outside the samples: (at the nominal speed, measured)."""
        n = len(self.samples)
        if len(self._rates) != n:
            cumulative = [0.0, *itertools.accumulate(d for _, d in self.samples)]
            lo = [max(0, i - REF_WINDOW) for i in range(n)]
            hi = [min(n, i + REF_WINDOW + 1) for i in range(n)]
            self._rates = [REF_NOMINAL_S * (hi[i] - lo[i]) / (cumulative[hi[i]] - cumulative[lo[i]])
                           for i in range(n)]
        i = bisect.bisect_left(self.samples, (start,))
        scaled, outside, t = 0.0, 0.0, start
        for (s0, dur), rate in zip(self.samples[i:], self._rates[i:]):
            part = min(s0, end) - t
            scaled += part * rate
            outside += part
            if s0 >= end:
                return scaled, outside
            t = s0 + dur
        raise ValueError("no sample after the stretch: it did not end inside the block")

    def record(self) -> dict:
        durations = [d for _, d in self.samples]
        return {"factor": self.factor(), "reference_mean_s": statistics.fmean(durations),
                "reference_samples": len(durations), "reference_nominal_s": REF_NOMINAL_S,
                "reference_interval_s": REF_INTERVAL_S, "reference_window": REF_WINDOW,
                "samples": self.samples}


def setup_sample(speed: Speed) -> tuple:
    """Seconds to ``import weylkit.cli`` in a fresh interpreter, and the stretch it ran in.

    Speed samples this process, on the other core, meanwhile; the import time
    is later scaled by the speed it saw over the stretch.
    """
    code = ("import time; t = time.perf_counter(); import weylkit.cli; "
            "print(time.perf_counter() - t)")
    with speed:
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        t1 = time.perf_counter()
    return float(res.stdout), (t0, t1)


def run_job(main, argv: list):
    """(exit code or error text, captured stdout) of one ``main(argv)`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


class Gate:
    """Counts attempted and failed job runs; keeps each job's first report."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []     # one entry per failed job run
        self.problems: list = []     # failures of the run as a whole
        self.first: dict = {}

    def check(self, name: str, argv: list, rc, text: str, errors: list):
        self.attempted += 1
        if rc != 0:
            errors.append(f"exit code {rc}")
        try:
            report = json.loads(text)
        except ValueError:
            report = {}
            errors.append("report is not JSON")
        if report.get("pass") is not True:
            errors.append('"pass" is not true')
        if not name.startswith("smoke-"):
            errors += workloads.verdict_errors(name, argv, report)
        if self.first.setdefault(name, text) != text:
            errors.append("report bytes differ from the job's first run")
        if errors:
            self.failures.append({"job": name, "errors": errors})


def run_pass(main, jobs: list, gate: Gate, tracer=None) -> dict:
    """Run every job once, through the gate; traced when a tracer is given.

    An untraced pass also records when each job started and ended, for Speed.
    """
    times, stretches, nbytes = {}, {}, 0
    for name, argv in jobs:
        errors = []
        if tracer is None:
            t0 = time.perf_counter()
            rc, text = run_job(main, argv)
            t1 = time.perf_counter()
            times[name], stretches[name] = t1 - t0, (t0, t1)
        else:
            before = snapshot_bindings()
            self_before = sum(tracer.self_s.values())
            with tracer:
                (rc, text), times[name] = tracer.run_root(name, run_job, main, argv)
            if snapshot_bindings() != before:
                errors.append("tracer left a patched binding behind")
            self_sum = sum(tracer.self_s.values()) - self_before
            if abs(self_sum - times[name]) > 1e-6:
                errors.append(f"root span {times[name]} != sum of self times {self_sum}")
        gate.check(name, argv, rc, text, errors)
        nbytes += len(text.encode())
    return {"jobs": times, "wall_s": sum(times.values()), "report_bytes": nbytes,
            "stretches": stretches}


def scale_pass(p: dict, speed: Speed):
    """Add the pass's job times at the nominal speed (``scaled_jobs``, ``scaled_wall_s``)
    and its measured time outside the samples (``unsampled_wall_s``)."""
    stretches = {name: speed.stretch(*span) for name, span in p["stretches"].items()}
    p["scaled_jobs"] = {name: scaled for name, (scaled, _) in stretches.items()}
    p["scaled_wall_s"] = sum(p["scaled_jobs"].values())
    p["unsampled_wall_s"] = sum(outside for _, outside in stretches.values())


def smoke(main, gate: Gate) -> dict:
    """Run the committed example scenarios once, untimed by the metrics."""
    jobs = workloads.smoke_jobs(ROOT / "scenarios")
    if not jobs:
        raise SystemExit("error: no committed scenarios to run")
    return run_pass(main, jobs, gate)["jobs"]


def measure_e2e(main, jobs: list, seconds: float, gate: Gate, record: dict) -> dict:
    """Time passes for ``seconds``; set-up samples are taken between passes.

    Spreading the fresh-interpreter samples over the run, rather than taking
    them in a burst, keeps one slow stretch of a shared machine from moving
    every sample at once.  Their time does not count against ``seconds``.
    Speed samples the machine while passes and set-up samples run; their
    times are scaled by it once the run is over.
    """
    workload = record["workload"]
    speed = Speed()
    setup, passes = [], []
    elapsed = 0.0
    while True:
        if len(setup) < SETUP_INTERPRETERS:
            setup.append(setup_sample(speed))
        t0 = time.perf_counter()
        with speed:
            passes.append(run_pass(main, jobs, gate))
        elapsed += time.perf_counter() - t0
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and ends_late(elapsed, typical, seconds):
            break
    while len(setup) < SETUP_INTERPRETERS:
        setup.append(setup_sample(speed))
    for p in passes:
        scale_pass(p, speed)
    slowest = workloads.SLOWEST_JOB[workload]
    stats = {}
    for name, scaled, measured in (
            ("wall_s", [p["scaled_wall_s"] for p in passes], [p["wall_s"] for p in passes]),
            ("slowest_job_s", [p["scaled_jobs"][slowest] for p in passes],
             [p["jobs"][slowest] for p in passes]),
            ("setup_s", [m * speed.rate(*span) for m, span in setup], [m for m, _ in setup])):
        stats[name] = median_tail(scaled)
        stats[name]["measured_median"] = statistics.median(measured)
    record["setup_samples_s"] = [{"measured": m, "scaled": m * speed.rate(*span)}
                                 for m, span in setup]
    record["passes"] = passes
    record["pass_count"] = len(passes)
    record["slowest_job"] = slowest
    record["speed"] = speed.record()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {name: (s["median"], "s") for name, s in stats.items()}
    metrics["peak_rss_mb"] = (peak_mb, "MiB")
    record["stats"] = stats
    return metrics


def measure_layers(main, jobs: list, seconds: float, gate: Gate, record: dict) -> dict:
    """Alternate untraced and traced passes for ``seconds``.

    Speed samples only the untraced passes, so that no reference loop runs
    inside a span; traced times are scaled by its median sample.
    """
    speed = Speed()
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        with speed:
            plain.append(run_pass(main, jobs, gate))
        tracer = Tracer()
        traced.append(run_pass(main, jobs, gate, tracer))
        tracers.append(tracer)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] + t["wall_s"] for p, t in zip(plain, traced))
        if ends_late(elapsed, typical, seconds):
            break
        tracers[-1].spans = []       # keep only the last traced pass's spans
    for p in plain:
        scale_pass(p, speed)
    counts = [dict(t.counts) for t in tracers]
    if any(c != counts[0] for c in counts):
        gate.problems.append("counts differ between traced passes")
    factor = speed.factor()
    metrics = {key: (statistics.median(t.self_s.get(key, 0.0) for t in tracers) * factor, "s")
               for key in SELF_TIMES}
    c = counts[-1]
    metrics.update((name, (c.get(name, 0), "count")) for name in COUNTS)
    calls = c.get("models.operator_call.count", 0)
    metrics["models.op_cache_hit_ratio"] = (
        c.get("models.op_cache_hit.count", 0) / calls if calls else 0.0, "ratio")
    metrics["cli.report_bytes"] = (traced[-1]["report_bytes"], "bytes")
    for name, value in micro.run().items():
        metrics[name] = (value * factor, "us")
    plain_wall = statistics.median(p["unsampled_wall_s"] for p in plain)
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    record["passes"] = {"untraced": plain, "traced": traced}
    record["pass_count"] = {"untraced": len(plain), "traced": len(traced)}
    record["counts"] = c
    record["speed"] = speed.record()
    spans_path = OUT / f"{record['workload']}-seed{record['seed']}-spans.jsonl"
    with open(spans_path, "w") as fh:
        for span in tracers[-1].spans:
            fh.write(json.dumps(span) + "\n")
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "weylkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or commit
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "weylkit" / "__init__.py").is_file():
        print(f"error: no weylkit sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import weylkit
    from weylkit.cli import main as weylkit_main
    if not Path(weylkit.__file__).resolve().is_relative_to(SRC):
        print(f"error: weylkit imported from {weylkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__,
        "weylkit": weylkit.__version__, **source_identity(),
    }
    gate = Gate()
    record["smoke_s"] = smoke(weylkit_main, gate)
    jobs = workloads.jobs(args.workload, args.seed, OUT / "scenarios" / f"seed{args.seed}")
    if args.trace:
        metrics = measure_layers(weylkit_main, jobs, args.seconds, gate, record)
    else:
        metrics = measure_e2e(weylkit_main, jobs, args.seconds, gate, record)
    failed = len(gate.failures)
    record.update(attempted=gate.attempted, failed=failed, failures=gate.failures,
                  problems=gate.problems)
    record["failed_frac"] = failed / gate.attempted

    suffix = f"seed{args.seed}-trace{args.trace}"
    (OUT / f"{args.workload}-{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload:14s} {'smoke':32s} {sum(record['smoke_s'].values()):14.6g} s"
          f"  ({len(record['smoke_s'])} committed scenarios, untimed by the metrics)")
    sp = record["speed"]
    print(f"{args.workload:14s} {'speed factor (not a metric)':32s} {sp['factor']:14.6g}"
          f"  (reference loop mean {sp['reference_mean_s'] * 1e3:.3f} ms over"
          f" {sp['reference_samples']} samples; nominal {REF_NOMINAL_S * 1e3:g} ms)")
    stats = record.get("stats", {})
    for name, (value, unit) in metrics.items():
        extra = ""
        if name in stats:
            s = stats[name]
            tail = (f"p{s['tail']['percentile']:g} {s['tail']['value']:.4f}" if s["tail"]
                    else "no percentile has ten samples beyond it")
            extra = (f"  (median of {s['samples']}; {tail}; measured median"
                     f" {s['measured_median']:.4f} s)")
        print(f"{args.workload:14s} {name:32s} {value:14.6g} {unit}{extra}")
    print(f"{args.workload:14s} {'failed_frac':32s} {record['failed_frac']:14.6g} ratio"
          f"  ({failed} of {gate.attempted} jobs)")
    for failure in gate.failures:
        print(f"FAILED {failure['job']}: {'; '.join(failure['errors'])}")
    for problem in gate.problems:
        print(f"FAILED run: {problem}")
    result = {
        "correct": not gate.failures and not gate.problems,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
