"""Per-kind job validation against the whole shipped schema.

`cli._job_validator()` checks each document against the envelope of the job
schema plus the one `if`/`then` branch of the document's `kind`, with the
branch's references inlined.  A plain `Draft202012Validator` of the shipped
file is the reference: on every mutant of the corpus jobs and of a set of
valid documents, both must accept or both must raise, with the same first
error message and `json_path`.
"""

import json
import random
from importlib import resources

import jsonschema
import pytest

from stabkit import cli

SCHEMA = json.loads(
    resources.files("stabkit").joinpath("schemas", "job-v1.schema.json").read_text()
)
REFERENCE = jsonschema.Draft202012Validator(SCHEMA)
KINDS = SCHEMA["properties"]["kind"]["enum"]


def corpus_jobs() -> list[dict]:
    directory = resources.files("stabkit").joinpath("corpus")
    return [
        entry["job"]
        for path in sorted(directory.iterdir(), key=lambda p: p.name)
        if path.name.endswith(".json")
        for entry in json.loads(path.read_text())
    ]


def job(kind, payload, **extra):
    return {"schema_version": 1, "kind": kind, "payload": payload, **extra}


# valid documents of the kinds and representation shapes the corpus lacks
EXTRA_VALID = [
    job(
        "pairs.falsify",
        {
            "group": {"kind": "special-linear", "size": 2},
            "rep_v": {"kind": "sym", "degree": 2},
            "rep_w": {"kind": "trivial"},
            "v": [1, 0, "1/2"],
            "w": [1],
            "draws": 5,
        },
        seed=3,
    ),
    job(
        "arcs.weight",
        {
            "group": {"kind": "general-linear", "size": 1},
            "rep_v": {"kind": "matrix", "entries": [["g11"]]},
            "rep_w": {"kind": "torus-weights", "weights": [[0]]},
            "v": [1],
            "w": [1],
            "arc": [["t"]],
        },
        budget=10,
    ),
    job(
        "locus.map",
        {
            "group": {"kind": "torus", "size": 1},
            "action": {"kind": "torus-weights", "weights": [[1], [-1]]},
            "space": ["x", "y"],
            "limit": ["a", "b"],
            "variety": ["x*y - 1"],
            "projective": False,
        },
    ),
    job("toric.hilb", {"polytope": {"vertices": [[0, 0], [1, 0], [0, 1]]}}),
    job(
        "toric.norm",
        {"polytope": {"vertices": [[0], [2]]}, "pieces": [{"gradient": [1], "constant": "-1/2"}]},
    ),
    job("model.df", {"a0": 1, "a1": "1/2", "b0": 2, "b1": "-3"}),
    job("model.norm", {"n": 2, "r": 1, "l_mix": "1/3", "l_top": 2, "vol": 1}),
]

VALID = corpus_jobs() + EXTRA_VALID
JUNK = [None, True, 0, -3, 2.5, "", "q", "1/0", [], [[]], {}, {"kind": "trivial"}, ["x"]]
NOT_A_KIND = [7, None, True, ["pairs.check"], {"kind": "pairs.check"}, "pairs.nope", ""]
NOT_AN_OBJECT = [[], [job("model.df", {})], "pairs.check", 3, None]


def paths(node, prefix=()):
    """Every (path, value) inside a JSON value, the root included."""
    yield prefix, node
    if isinstance(node, dict):
        for k, v in node.items():
            yield from paths(v, (*prefix, k))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from paths(v, (*prefix, i))


def edited(document, path, edit):
    """A deep copy of `document` with `edit(parent, key)` applied at `path`."""
    out = json.loads(json.dumps(document))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    edit(parent, path[-1])
    return out


def mutants(document, rng):
    """Single edits of `document`: every key or item dropped, junk put in its
    place, an extra key in every object, one more item in every array, and
    the kind swapped for every other kind and for non-kinds."""
    for path, value in paths(document):
        if path:
            yield edited(document, path, lambda parent, key: parent.pop(key))
            for junk in rng.sample(JUNK, 3):
                yield edited(document, path, lambda parent, key: parent.__setitem__(key, junk))
        if isinstance(value, dict):
            extra = rng.choice(["extra", "kind", "weights", "$ref"])
            yield edited(document, (*path, extra), lambda parent, key: parent.setdefault(key, 1))
        if isinstance(value, list):
            junk = rng.choice(JUNK)
            yield edited(document, (*path, 0), lambda parent, key: parent.append(junk))
    for kind in [*KINDS, *NOT_A_KIND]:
        yield {**document, "kind": kind}


def first_error(validator, document):
    try:
        validator.validate(document)
    except jsonschema.ValidationError as exc:
        return exc.message, exc.json_path
    return None


class TestAgainstTheWholeSchema:
    def test_valid_documents_are_valid(self):
        kinds = set()
        for document in VALID:
            REFERENCE.validate(document)
            cli._job_validator().validate(document)
            kinds.add(document["kind"])
        assert kinds == set(KINDS)

    @pytest.mark.parametrize("index", range(len(VALID)))
    def test_mutants_raise_the_same_first_error(self, index):
        document = VALID[index]
        rng = random.Random(index)
        invalid = 0
        for mutant in mutants(document, rng):
            expected = first_error(REFERENCE, mutant)
            assert first_error(cli._job_validator(), mutant) == expected, mutant
            invalid += expected is not None
        assert invalid >= 20

    @pytest.mark.parametrize("document", NOT_AN_OBJECT, ids=lambda d: type(d).__name__)
    def test_documents_that_are_not_objects(self, document):
        assert first_error(cli._job_validator(), document) == first_error(REFERENCE, document)
        assert first_error(REFERENCE, document) is not None


def run_stderr(tmp_path, capsys, document):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(document))
    code = cli.main(["run", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_INVALID, "")
    return captured.err


KIND_LIST = repr(KINDS)


@pytest.mark.parametrize(
    "document, line",
    [
        ([], "[] is not of type 'object' (at $)"),
        (
            {"kind": "model.df", "payload": {}},
            "'schema_version' is a required property (at $)",
        ),
        (
            {"schema_version": 1, "kind": 7, "payload": {}},
            f"7 is not one of {KIND_LIST} (at $.kind)",
        ),
        (
            {"schema_version": 1, "kind": "pairs.nope", "payload": {}},
            f"'pairs.nope' is not one of {KIND_LIST} (at $.kind)",
        ),
        (
            job("model.df", {"a0": 1, "a1": 1, "b0": 1}),
            "'b1' is a required property (at $.payload)",
        ),
        (
            job(
                "pairs.check",
                {"rank": 1, "weights_v": [[1]], "weights_w": [[0]], "v": ["1/0"], "w": [1]},
            ),
            "'1/0' is not valid under any of the given schemas (at $.payload.v[0])",
        ),
        (
            job(
                "locus.map",
                {
                    "group": {"kind": "torus", "size": 1},
                    "action": {"kind": "trivial"},
                    "space": ["x"],
                    "limit": ["a"],
                    "extra": 1,
                },
            ),
            "Unevaluated properties are not allowed ('extra' was unexpected) (at $.payload)",
        ),
    ],
    ids=["array", "no-version", "kind-int", "kind-unknown", "required", "rational", "unevaluated"],
)
def test_run_stderr_lines(tmp_path, capsys, document, line):
    assert run_stderr(tmp_path, capsys, document) == f"invalid job document: {line}\n"


class TestSchemaShape:
    """What the per-kind split relies on in the shipped schema."""

    def test_kinds_branches_and_handlers_agree(self):
        branch_kinds = [b["if"]["properties"]["kind"]["const"] for b in SCHEMA["allOf"]]
        assert len(branch_kinds) == len(set(branch_kinds)) == len(KINDS)
        assert set(branch_kinds) == set(KINDS) == set(cli._HANDLERS)

    def test_every_ref_stands_alone(self):
        refs = [node for _, node in paths(SCHEMA) if isinstance(node, dict) and "$ref" in node]
        assert refs
        for node in refs:
            assert list(node) == ["$ref"]
            assert node["$ref"].removeprefix("#/$defs/") in SCHEMA["$defs"]

    def test_defs_have_no_reference_cycle(self):
        defs = SCHEMA["$defs"]
        edges = {
            name: {
                node["$ref"].removeprefix("#/$defs/")
                for _, node in paths(body)
                if isinstance(node, dict) and "$ref" in node
            }
            for name, body in defs.items()
        }
        done: set[str] = set()

        def visit(name, stack):
            assert name not in stack, f"reference cycle through {name}"
            if name not in done:
                for target in edges[name]:
                    visit(target, (*stack, name))
                done.add(name)

        for name in defs:
            visit(name, ())


def test_cached_parser_keeps_no_state(tmp_path, capsys):
    document = next(d for d in VALID if d["kind"] == "pairs.check")
    document = {**document, "seed": 2, "budget": 9}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(document))

    assert cli.main(["run", str(path), "--timing", "--seed", "5", "--budget", "1"]) == cli.EXIT_OK
    first = json.loads(capsys.readouterr().out)
    assert (first["seed"], first["budget"]["limit"]) == (5, 1)
    assert isinstance(first["timing"]["milliseconds"], int)

    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    second = capsys.readouterr().out
    report = json.loads(second)
    assert report["timing"] is None
    assert (report["seed"], report["budget"]["limit"]) == (2, 9)
    cli._parser.cache_clear()
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    assert capsys.readouterr().out == second
