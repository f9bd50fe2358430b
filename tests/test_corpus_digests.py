"""Golden report bytes: every corpus job, run as `stabkit run`, hashes as recorded.

The digests in data/corpus-report-digests.json are sha256 sums of the reports
`stabkit run <job> --out <report>` wrote (no --timing).  A change that means
to keep every verdict and certificate must keep them all; a change that means
to alter a report must re-record its digest and say why.
"""

import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from stabkit import groups
from stabkit.cli import main

DIGESTS = json.loads((Path(__file__).parent / "data" / "corpus-report-digests.json").read_text())


def corpus_entries() -> dict[str, dict]:
    entries = {}
    for path in resources.files("stabkit").joinpath("corpus").iterdir():
        if path.name.endswith(".json"):
            for entry in json.loads(path.read_text()):
                entries[entry["id"]] = entry
    return entries


ENTRIES = corpus_entries()


def test_every_corpus_entry_has_a_digest():
    assert sorted(ENTRIES) == sorted(DIGESTS)


@pytest.mark.parametrize("entry_id", sorted(ENTRIES))
def test_report_bytes(entry_id, tmp_path):
    job = tmp_path / "job.json"
    report = tmp_path / "report.json"
    job.write_text(json.dumps(ENTRIES[entry_id]["job"]))
    assert main(["run", str(job), "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == DIGESTS[entry_id]


def test_reports_do_not_depend_on_earlier_jobs(tmp_path):
    """Sym^d actions are built once and shared by later jobs: every report is
    the same whether its job runs first, in order, or again, in reverse."""
    groups._sym_action.cache_clear()
    job = tmp_path / "job.json"
    report = tmp_path / "report.json"
    reports = {}
    for order in (sorted(ENTRIES), sorted(ENTRIES, reverse=True)):
        for entry_id in order:
            job.write_text(json.dumps(ENTRIES[entry_id]["job"]))
            assert main(["run", str(job), "--out", str(report)]) == 0
            reports.setdefault(entry_id, []).append(report.read_bytes())
    assert [i for i, (first, again) in reports.items() if first != again] == []
