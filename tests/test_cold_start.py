"""Fresh interpreters: stabkit starts, accepts valid documents and reports
bad input without importing jsonschema, and imports it only to explain a
rejected document.  In-process tests cannot see this, because the test
modules have imported jsonschema already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema

import stabkit
from stabkit import cli

SRC = str(Path(stabkit.__file__).resolve().parents[1])

JOB = {
    "schema_version": 1,
    "kind": "algebra.groebner",
    "payload": {
        "variables": ["x", "y", "z"],
        "generators": ["x^2 - y", "x*y - z"],
        "eliminate": ["x"],
    },
}
BAD_INPUT = {
    "schema_version": 1,
    "kind": "algebra.groebner",
    "payload": {"variables": ["x"], "generators": ["y"]},
}
# the "no-version" case of tests/test_job_validation.py::test_run_stderr_lines
INVALID = {"kind": "model.df", "payload": {}}
INVALID_LINE = "invalid job document: 'schema_version' is a required property (at $)\n"
INVALID_ENTRY = {"id": "Bad-Id", "criterion": "A1", "job": JOB, "expect": {}}

# argv: src directory, then the command lines to run, as one JSON list
MAIN = """
import json
import sys
sys.path.insert(0, sys.argv[1])
from importlib import resources
from pathlib import Path
from stabkit import cli
cli._job_validator()
cli._load_corpus(Path(str(resources.files("stabkit").joinpath("corpus"))))
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "jsonschema": "jsonschema" in sys.modules}))
"""


def fresh(*argvs, env=None):
    """Run `cli.main` on each argv in one new interpreter: (exit codes,
    whether jsonschema was imported, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-c", MAIN, SRC, json.dumps(argvs)],
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return result["codes"], result["jsonschema"], proc.stderr


def write(path: Path, document) -> str:
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def test_valid_documents_and_bad_input_never_import_jsonschema(tmp_path):
    job = write(tmp_path / "job.json", JOB)
    report = tmp_path / "report.json"
    bad_input = write(tmp_path / "bad.json", BAD_INPUT)
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "a.json").write_text("[", encoding="utf-8")
    codes, imported, err = fresh(
        ["run", job, "--out", str(report)],
        ["run", bad_input],
        ["run", job, "--budget", "1"],
        ["corpus", "--corpus", str(broken)],
    )
    assert codes == [cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_BUDGET, cli.EXIT_INVALID]
    assert not imported
    assert report.read_text(encoding="utf-8") == cli._render(cli.execute_job(JOB))
    assert err.splitlines() == [
        "invalid job input: unknown variable 'y' (at position 0)",
        "budget exhausted: step budget of 1 exhausted",
        "invalid corpus: Expecting value: line 1 column 2 (char 1)",
    ]


def test_a_rejected_document_is_explained_by_jsonschema(tmp_path):
    invalid = write(tmp_path / "invalid.json", INVALID)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write(corpus / "a.json", [INVALID_ENTRY])
    with_schema = jsonschema.Draft202012Validator(cli._load_schema("corpus-v1.schema.json"))
    corpus_error = next(with_schema.iter_errors([INVALID_ENTRY]))
    codes, imported, err = fresh(["run", invalid], ["corpus", "--corpus", str(corpus)])
    assert codes == [cli.EXIT_INVALID, cli.EXIT_INVALID]
    assert imported
    corpus_line = f"invalid corpus: {corpus_error.message} (at {corpus_error.json_path})\n"
    assert err == INVALID_LINE + corpus_line


def test_files_are_read_as_utf8_in_an_ascii_locale(tmp_path):
    path = tmp_path / "job.json"
    path.write_bytes('{"schema_version": 1, "kind": "pairs.nöpe", "payload": {}}'.encode())
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONIOENCODING": "utf-8"}
    codes, _, err = fresh(["run", str(path)], env=env)
    kinds = cli._load_schema("job-v1.schema.json")["properties"]["kind"]["enum"]
    assert codes == [cli.EXIT_INVALID]
    assert err == f"invalid job document: 'pairs.nöpe' is not one of {kinds!r} (at $.kind)\n"
