"""Tests of the benchmark itself: python3 -m pytest benchmark/tests"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI = run.import_stabkit()
HEAVY = {"stable-r2-l3-in", "stable-r2-l4", "stable-r3-l1", "katsura4", "sym-8", "sym-10", "sym-14"}


def small_mix(workload: str, seed: int = 5) -> list[workloads.Job]:
    """Up to two jobs of each light class, enough to touch every layer."""
    picked: dict[str, int] = {}
    jobs = []
    for job in workloads.generate(workload, seed, run.SRC).jobs:
        if job.cls in HEAVY or picked.get(job.cls, 0) >= 2:
            continue
        picked[job.cls] = picked.get(job.cls, 0) + 1
        jobs.append(job)
    return jobs


def documents(mix: workloads.Mix) -> list[str]:
    return [json.dumps([j.job_id, j.document, j.expect], sort_keys=True) for j in mix.jobs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7, run.SRC)
    again = workloads.generate(workload, 7, run.SRC)
    other = workloads.generate(workload, 8, run.SRC)
    assert documents(first) == documents(again)
    assert documents(first) != documents(other)
    assert first.summary() == again.summary()
    assert first.summary()["classes"] == other.summary()["classes"]
    assert len(first.jobs) >= 100


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_documents_satisfy_the_job_schema(workload):
    schema = json.loads((run.SRC / "stabkit" / "schemas" / "job-v1.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    for job in workloads.generate(workload, 1, run.SRC).jobs:
        validator.validate(job.document)


def traced_pass(runner):
    rec = tracing.Recorder()
    tracer = tracing.Tracer(rec)
    tracer.install()
    try:
        assert tracing.unwrapped_bindings() == []
        result = runner.run_pass(rec)
    finally:
        tracer.uninstall()
    return result, rec


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_reports_are_byte_identical(workload, tmp_path):
    runner = run.Runner(CLI, small_mix(workload), tmp_path)
    plain = runner.run_pass()
    traced, rec = traced_pass(runner)
    assert all(code == 0 for code in plain.codes)
    assert traced.codes == plain.codes
    assert traced.reports == plain.reports
    assert rec.spans and not rec.stack


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    runner = run.Runner(CLI, small_mix(workload), tmp_path)
    counts = []
    for _ in range(2):
        result, rec = traced_pass(runner)
        counts.append(tracing.layer_counts(rec.spans, rec.counts, run.spairs_of(runner.jobs, result.reports)))
    assert counts[0] == counts[1]
    assert any(v for v in counts[0].values())


def test_self_check_reports_an_unwrapped_binding():
    pairs = sys.modules["stabkit.pairs"]
    original = pairs.point_in_hull
    tracer = tracing.Tracer(tracing.Recorder())
    tracer.install()
    try:
        assert tracing.unwrapped_bindings() == []
        pairs.point_in_hull = original
        pairs._probe_table = {"hull": original}
        assert tracing.unwrapped_bindings() == [
            "stabkit.pairs.point_in_hull",
            "stabkit.pairs._probe_table",
        ]
    finally:
        del pairs._probe_table
        tracer.uninstall()
    assert pairs.point_in_hull is original
    assert len(tracing.unwrapped_bindings()) > 100


def report_of(document: dict) -> dict:
    return CLI.execute_job(document)


def pair_document(kind, weights_v, weights_w, **extra) -> dict:
    payload = {
        "rank": len(weights_v[0]),
        "weights_v": weights_v,
        "weights_w": weights_w,
        "v": [1] * len(weights_v),
        "w": ["3/2"] * len(weights_w),
        **extra,
    }
    return {"schema_version": 1, "kind": kind, "payload": payload}


def test_recheck_accepts_and_then_rejects_a_corrupted_witness():
    doc = pair_document("pairs.check", [[4, 0], [0, 4], [1, 3]], [[2, 2]])
    report = report_of(doc)
    assert report["verdict"] == "semistable"
    assert gate.check_certificate(doc, report) == []
    bad = copy.deepcopy(report)
    coeffs = bad["certificate"]["containment"][0]["coefficients"]
    coeffs[0], coeffs[1] = coeffs[1], coeffs[0]
    assert gate.check_certificate(doc, bad)
    bad = copy.deepcopy(report)
    bad["certificate"]["containment"][0]["coefficients"][0] = "-1"
    assert gate.check_certificate(doc, bad)


def test_recheck_rejects_a_corrupted_level_witness():
    doc = pair_document("pairs.stable", [[3, 1], [1, 3]], [[2, 2]], max_level=2)
    report = report_of(doc)
    assert report["verdict"] == "stable-at-l"
    assert gate.check_certificate(doc, report) == []
    bad = copy.deepcopy(report)
    bad["certificate"]["containment"][-1]["coefficients"][-1] = "1/7"
    assert gate.check_certificate(doc, bad)


def test_recheck_accepts_and_then_rejects_a_corrupted_exponent_vector():
    doc = pair_document("pairs.check", [[3, 1], [1, 3]], [[4, 0]])
    report = report_of(doc)
    assert report["verdict"] == "unstable"
    assert gate.check_certificate(doc, report) == []
    bad = copy.deepcopy(report)
    bad["certificate"]["exponents"] = [-e for e in bad["certificate"]["exponents"]]
    assert gate.check_certificate(doc, bad)
    bad = copy.deepcopy(report)
    bad["certificate"]["mu"] = "-7"
    assert gate.check_certificate(doc, bad)


def test_corpus_rule_is_a_deep_subset():
    actual = {"verdict": "ok", "values": {"basis": ["y"], "variables": ["x", "y"]}}
    assert gate.deep_subset({"values": {"basis": ["y"]}}, actual)
    assert not gate.deep_subset({"values": {"basis": ["y", "x"]}}, actual)
    assert not gate.deep_subset({"values": {"missing": 1}}, actual)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "elimination", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
