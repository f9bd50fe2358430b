"""Correctness gate behind the benchmark's failure count.

A job fails when its exit code is not 0, its report does not validate against
the shipped report schema, a corpus expectation does not match, a hull or
separation certificate does not re-check, or its report bytes differ from
those of the untimed warm-up pass.

The certificate re-check uses only integers and `Fraction`; it never calls
stabkit, so a defect in the library cannot vouch for itself.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import jsonschema


def deep_subset(expected, actual) -> bool:
    """The corpus rule: dict expectations may omit keys, lists match in full."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and deep_subset(v, actual[k]) for k, v in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(deep_subset(e, a) for e, a in zip(expected, actual))
        )
    return expected == actual


class Gate:
    def __init__(self, src: Path):
        schema = json.loads((src / "stabkit" / "schemas" / "report-v1.schema.json").read_text())
        self.report_validator = jsonschema.Draft202012Validator(schema)

    def check_first(self, document: dict, expect: dict | None, code: int, data: bytes | None) -> list[str]:
        """Problems with a job's warm-up run; an empty list means it passed."""
        if code != 0:
            return [f"exit code {code}"]
        if data is None:
            return ["no report written"]
        try:
            report = json.loads(data)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        problems = [
            f"report schema: {err.message}" for err in self.report_validator.iter_errors(report)
        ]
        if problems:
            return problems
        if expect is not None and not deep_subset(expect, report):
            problems.append("corpus expectation not met")
        problems += check_certificate(document, report)
        return problems


def check_repeat(code: int, data: bytes | None, reference: bytes | None) -> list[str]:
    """Problems with a later run of a job whose warm-up report is `reference`."""
    if code != 0:
        return [f"exit code {code}"]
    if data != reference:
        return ["report bytes differ from the warm-up pass"]
    return []


# ------------------------------------------------------- certificate re-check


def _supports(payload: dict) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    supp_v = sorted(
        {tuple(q) for q, c in zip(payload["weights_v"], payload["v"]) if Fraction(c) != 0}
    )
    supp_w = sorted(
        {tuple(q) for q, c in zip(payload["weights_w"], payload["w"]) if Fraction(c) != 0}
    )
    return supp_v, supp_w


def _dot(a, b) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(a, b)), Fraction(0))


def check_containment(cert: dict, supp_v, supp_w) -> list[str]:
    """Hull witnesses: for each w weight chi, lambda >= 0, sum lambda = 1 and
    sum lambda_i q_i = chi over the v-support q."""
    if not supp_w:
        return [] if "reason" in cert else ["empty w-support without a reason"]
    if [tuple(q) for q in cert.get("support_v", [])] != supp_v:
        return ["certificate support_v differs from the v-support"]
    rows = cert.get("containment", [])
    if [tuple(r["weight"]) for r in rows] != supp_w:
        return ["certificate does not cover the w-support"]
    problems = []
    for row in rows:
        lam = [Fraction(x) for x in row["coefficients"]]
        chi = tuple(row["weight"])
        if len(lam) != len(supp_v) or any(x < 0 for x in lam) or sum(lam) != 1:
            problems.append(f"witness for {list(chi)} is not a convex combination")
            continue
        point = tuple(sum(l * q[i] for l, q in zip(lam, supp_v)) for i in range(len(chi)))
        if point != chi:
            problems.append(f"witness for {list(chi)} sums to {[str(x) for x in point]}")
    return problems


def check_separation(cert: dict, supp_v, supp_w) -> list[str]:
    """Separating exponents a: <a, chi> < min <a, q> over the v-support, and the
    reported weight equals min <a, w-support> - min <a, v-support> < 0."""
    a = cert["exponents"]
    chi = tuple(cert["separated_weight"])
    if chi not in supp_w:
        return ["separated weight is not in the w-support"]
    low_v = min(_dot(a, q) for q in supp_v)
    if not _dot(a, chi) < low_v:
        return ["exponents do not separate the weight from the v-support"]
    mu = min(_dot(a, q) for q in supp_w) - low_v
    if "mu" in cert and Fraction(cert["mu"]) != mu:
        return [f"reported mu {cert['mu']} differs from the recomputed {mu}"]
    return []


def _minkowski_power(points, times: int, rank: int) -> set[tuple[int, ...]]:
    acc = {(0,) * rank}
    for _ in range(times):
        acc = {tuple(x + y for x, y in zip(p, q)) for p in acc for q in points}
    return acc


def _simplex_points(total: int, rank: int) -> list[tuple[int, ...]]:
    if rank == 1:
        return [(total,)]
    return [(a, *rest) for a in range(total + 1) for rest in _simplex_points(total - a, rank - 1)]


def associated_supports(payload: dict, level: int):
    """Supports of the level-l associated pair: d times the simplex plus
    l-fold sums of the v-support, against (l+1)-fold sums of the w-support."""
    supp_v, supp_w = _supports(payload)
    rank = payload["rank"]
    d = max(sum(q) for q in payload["weights_v"])
    powers = _minkowski_power(supp_v, level, rank)
    new_v = sorted(
        {tuple(b + s for b, s in zip(p, q)) for p in _simplex_points(d, rank) for q in powers}
    )
    new_w = sorted(_minkowski_power(supp_w, level + 1, rank)) if supp_w else []
    return new_v, new_w


def check_certificate(document: dict, report: dict) -> list[str]:
    """Re-check the hull and separation certificates of pairs jobs."""
    kind = document["kind"]
    payload = document["payload"]
    cert = report["certificate"]
    if kind == "pairs.check":
        supp_v, supp_w = _supports(payload)
        if report["verdict"] == "semistable":
            return check_containment(cert, supp_v, supp_w)
        if report["verdict"] == "unstable":
            return check_separation(cert, supp_v, supp_w)
        return [f"unknown verdict {report['verdict']}"]
    if kind == "pairs.stable" and report["verdict"] == "stable-at-l":
        level = report["values"]["least_stable_level"]
        return check_containment(cert, *associated_supports(payload, level))
    return []
