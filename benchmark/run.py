"""Benchmark for stabkit: seeded job mixes run the way a user runs them.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; stabkit is imported from its `src/`.

Each job document of the workload is written to a file and executed with
`stabkit.cli.main(["run", <job>, "--out", <report>])` in this process, one
after another: a closed loop with one client, so exit codes and report bytes
are exactly what a user gets. An untimed warm-up pass checks every report
(see gate.py); timed passes then repeat the mix until `--seconds` have
passed, and every report must equal its warm-up bytes.

A virtual machine whose cores are shared with other guests can change speed
by 2x within seconds. Every time is therefore reported at reference speed:
just before each job the benchmark times a fixed pure-Python Fraction loop
that touches no stabkit code, and a job's wall time is divided by the median
of the nearby loop times, taking one loop as REF_MS milliseconds. Raw
wall-clock figures are printed beside the scaled ones.

With --trace 0 the last line carries the end-to-end metrics; with --trace 1
it carries the per-layer metrics of traced passes (see tracing.py), which
alternate with untraced passes so the tracing overhead can be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REF_MS = 1.0
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_STARTS = 7

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
]

# Fresh interpreter through the three steps every batch starts with.
SETUP_CODE = """
import sys
from importlib import resources
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from stabkit import cli
cli._job_validator()
cli._load_corpus(Path(str(resources.files("stabkit").joinpath("corpus"))))
"""


def reference_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return total


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


@dataclass
class Pass:
    seconds: list[float]  # wall time per job
    refs: list[float]  # reference loop before each job, and one after the last
    codes: list[int | None]  # None when main() raised
    reports: list[bytes | None]
    errors: list[str | None]

    def speed(self, i: int) -> float:
        """Reference-loop time around job i: median of the six nearest loops."""
        return statistics.median(self.refs[max(0, i - 2) : i + 4])

    def scaled_ms(self) -> list[float]:
        return [s / self.speed(i) * REF_MS for i, s in enumerate(self.seconds)]

    def ns_scale(self) -> list[float]:
        """Factor from a job's raw nanoseconds to reference-speed ms."""
        return [REF_MS / (self.speed(i) * 1e9) for i in range(len(self.seconds))]


class Runner:
    """Runs job files through stabkit.cli.main and keeps what a user would see."""

    def __init__(self, cli, jobs: list[workloads.Job], workdir: Path):
        self.cli = cli
        self.jobs = jobs
        self.paths = []
        (workdir / "reports").mkdir(parents=True)
        for job in jobs:
            path = workdir / f"{job.job_id}.json"
            path.write_text(json.dumps(job.document, indent=2))
            self.paths.append((path, workdir / "reports" / f"{job.job_id}.json"))

    def run_pass(self, rec: tracing.Recorder | None = None) -> Pass:
        result = Pass([], [], [], [], [])
        for i, (job_path, report_path) in enumerate(self.paths):
            report_path.unlink(missing_ok=True)
            result.refs.append(time_reference())
            if rec is not None:
                rec.job = i
            error = None
            start = time.perf_counter()
            try:
                code = self.cli.main(["run", str(job_path), "--out", str(report_path)])
            except Exception:  # noqa: BLE001 - a crashing job is a failed job
                code, error = None, traceback.format_exc()
            result.seconds.append(time.perf_counter() - start)
            result.codes.append(code)
            result.errors.append(error)
            result.reports.append(report_path.read_bytes() if report_path.exists() else None)
        result.refs.append(time_reference())
        return result


def measure_setup() -> tuple[float, float]:
    """Median scaled and raw seconds of SETUP_STARTS fresh interpreters."""
    scaled, raw = [], []
    for _ in range(SETUP_STARTS):
        speed = statistics.median(time_reference() for _ in range(5))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"setup start failed:\n{proc.stderr}")
        raw.append(wall)
        scaled.append(wall / speed * REF_MS / 1000)
    return statistics.median(scaled), statistics.median(raw)


def quantiles(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile (statistics.quantiles, exclusive method)."""
    q = statistics.quantiles(values, n=10)
    return q[4], q[8]


def import_stabkit():
    if not (SRC / "stabkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no stabkit sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import stabkit
    from stabkit import cli

    if Path(stabkit.__file__).resolve().parent != (SRC / "stabkit").resolve():
        raise SystemExit(f"error: imported stabkit from {stabkit.__file__}, not from {SRC}")
    return cli


def validate_documents(mix: workloads.Mix):
    """Every generated document must satisfy the job schema before any timing."""
    import jsonschema

    schema = json.loads((SRC / "stabkit" / "schemas" / "job-v1.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    for job in mix.jobs:
        validator.validate(job.document)


def per_job_failures(mix, gatekeeper, warm: Pass, later: list[Pass]) -> dict[int, list[str]]:
    failures: dict[int, list[str]] = {}
    for i, job in enumerate(mix.jobs):
        if warm.codes[i] is None:
            problems = [f"raised:\n{warm.errors[i]}"]
        else:
            problems = gatekeeper.check_first(job.document, job.expect, warm.codes[i], warm.reports[i])
        for p in later:
            if p.codes[i] is None:
                problems.append(f"raised:\n{p.errors[i]}")
            else:
                problems += gate.check_repeat(p.codes[i], p.reports[i], warm.reports[i])
        if problems:
            failures[i] = sorted(set(problems))
    return failures


def spairs_of(jobs: list[workloads.Job], reports: list[bytes | None]) -> int:
    """budget.used summed over algebra and locus jobs: S-pairs charged by the
    Groebner engine."""
    total = 0
    for job, data in zip(jobs, reports):
        if data is not None and job.kind.split(".")[0] in ("algebra", "locus"):
            try:
                total += json.loads(data)["budget"]["used"]
            except (ValueError, KeyError, TypeError):
                continue  # a malformed report is a failure the gate reports
    return total


def end_to_end(mix, passes: list[Pass], setup) -> tuple[dict, list[str]]:
    n = len(mix.jobs)
    scaled = [p.scaled_ms() for p in passes]
    per_job = [statistics.median(s[i] for s in scaled) for i in range(n)]
    raw_job = [statistics.median(p.seconds[i] * 1000 for p in passes) for i in range(n)]
    p50, p90 = quantiles(per_job)
    raw50, raw90 = quantiles(raw_job)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": setup[0],
        "jobs_per_s": n / (sum(per_job) / 1000),
        "job_p50_ms": p50,
        "job_p90_ms": p90,
        "peak_rss_mb": rss,
    }
    above = sum(1 for v in per_job if v > p90)
    notes = [
        f"setup_s: median of {SETUP_STARTS} fresh interpreters; raw {setup[1]:.4f} s",
        f"jobs_per_s: {n} jobs / sum of per-job medians; raw {n / (sum(raw_job) / 1000):.3f} jobs/s",
        f"job_p50_ms: over {n} per-job medians of {len(passes)} timed passes; raw {raw50:.4f} ms",
        f"job_p90_ms: {n} samples, {above} above it; raw {raw90:.4f} ms",
        "peak_rss_mb: ru_maxrss of this process",
    ]
    return metrics, notes


def traced_metrics(untraced: list[Pass], traced: list[tuple[Pass, dict, dict]]):
    """Per-layer metrics: counts from the first traced pass (every traced pass
    must give the same counts), times as medians over the traced passes."""
    counts = [c for _, c, _ in traced]
    metrics = dict(counts[0])
    for key in traced[0][2]:
        metrics[key] = statistics.median(t[key] for _, _, t in traced)
    wall_traced = statistics.median(sum(p.scaled_ms()) for p, _, _ in traced)
    wall_plain = statistics.median(sum(p.scaled_ms()) for p in untraced)
    metrics["trace.overhead_ratio"] = wall_traced / wall_plain
    problems = []
    differ = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts[1:]))
    if differ:
        problems.append(f"traced counts differ between passes: {differ}")
    return metrics, problems


def timed_passes(runner: Runner, seconds: float) -> list[Pass]:
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass())
    return passes


def traced_passes(runner: Runner, mix, seconds: float):
    """Untraced and traced passes in turn until `seconds` have passed.

    Returns the untraced passes, (pass, counts, times) per traced pass, the
    spans of the first traced pass, and any self-check problems.
    """
    rec = tracing.Recorder()
    tracer = tracing.Tracer(rec)
    untraced: list[Pass] = []
    traced: list[tuple[Pass, dict, dict]] = []
    first_spans: list[list] = []
    problems: list[str] = []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        untraced.append(runner.run_pass())
        rec.reset()
        tracer.install()
        try:
            problems += [f"unwrapped binding {b}" for b in tracing.unwrapped_bindings()]
            p = runner.run_pass(rec)
        finally:
            tracer.uninstall()
        counts = tracing.layer_counts(rec.spans, rec.counts, spairs_of(mix.jobs, p.reports))
        traced.append((p, counts, tracing.layer_times(rec.spans, p.ns_scale())))
        first_spans = first_spans or rec.spans
    return untraced, traced, first_spans, problems


def run(args) -> int:
    cli = import_stabkit()
    mix = workloads.generate(args.workload, args.seed, SRC)
    validate_documents(mix)
    summary = mix.summary()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner = Runner(cli, mix.jobs, workdir)
        setup = measure_setup() if not args.trace else None
        warm = runner.run_pass()
        problems: list[str] = []
        if not args.trace:
            passes = timed_passes(runner, args.seconds)
            later = passes
        else:
            untraced, traced, first_spans, problems = traced_passes(runner, mix, args.seconds)
            later = untraced + [p for p, _, _ in traced]
        failures = per_job_failures(mix, gate.Gate(SRC), warm, later)
        verdicts: dict[str, int] = {}
        for i, data in enumerate(warm.reports):
            verdict = "failed" if i in failures else json.loads(data)["verdict"]
            verdicts[verdict] = verdicts.get(verdict, 0) + 1

        print(f"workload {args.workload} seed {args.seed}: {summary['jobs']} jobs, closed loop, one client")
        print(f"  kinds {json.dumps(summary['kinds'])}")
        print(f"  verdicts {json.dumps(dict(sorted(verdicts.items())))}")
        print(f"  reuse of an earlier job's group and representation: {summary['reuse_share']:.3f}")
        print(f"  times at reference speed: one reference loop = {REF_MS} ms; "
              f"measured loop median {statistics.median(warm.refs) * 1000:.4f} ms")
        if not args.trace:
            metrics, notes = end_to_end(mix, passes, setup)
            for (name, unit), note in zip(END_TO_END, notes):
                print(f"  {name:<14} {metrics[name]:>12.4f} {unit:<7} {note}")
            units = dict(END_TO_END)
        else:
            metrics, trace_problems = traced_metrics(untraced, traced)
            problems += trace_problems
            print(f"  {len(traced)} traced and {len(untraced)} untraced passes, "
                  f"{len(first_spans)} spans in the first traced pass")
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
            metrics = {name: metrics[name] for name in units}
            for name, value in metrics.items():
                print(f"  {name:<28} {value:>16.4f} {units[name]}")
            span_file = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
            tracing.write_spans(first_spans, span_file)
            print(f"  spans of the first traced pass written to {span_file.relative_to(ROOT)}")
        ratio = len(failures) / len(mix.jobs)
        print(f"  {'failed_ratio':<14} {ratio:>12.4f} {'1':<7} {len(failures)} of {len(mix.jobs)} jobs failed")
        for i, reasons in failures.items():
            job = mix.jobs[i]
            print(f"FAILED {job.job_id}: {'; '.join(reasons)}")
            print(f"  document: {json.dumps(job.document, sort_keys=True)}")
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        result = {
            "correct": not failures and not problems,
            "attempted": len(mix.jobs),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
