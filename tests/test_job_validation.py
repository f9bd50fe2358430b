"""Job and corpus validation: a compiled check that accepts, jsonschema that
explains.

`cli._job_validator()` compiles the shipped job schema into plain checks
(`accepts`) and falls back to a plain `Draft202012Validator` of the shipped
file, built on first use, only when they reject.  That validator, built here
as `REFERENCE`, is the reference: on every mutant of the corpus jobs and of a
set of valid documents the compiled check must accept exactly what it
accepts, and `validate` must raise its first error message and `json_path`.
The corpus schema is checked the same way against `CORPUS_REFERENCE`, on
mutants of every bundled corpus file.
"""

import copy
import importlib.util
import json
import random
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import cli
from stabkit._schemacheck import compile_schema

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
            assert cli._job_validator().accepts(mutant) == (expected is None), mutant
            invalid += expected is not None
        assert invalid >= 20

    @pytest.mark.parametrize("document", NOT_AN_OBJECT, ids=lambda d: type(d).__name__)
    def test_documents_that_are_not_objects(self, document):
        assert first_error(cli._job_validator(), document) == first_error(REFERENCE, document)
        assert first_error(REFERENCE, document) is not None
        assert not cli._job_validator().accepts(document)


LEAVES = [True, False, 0, 1, 1.0, -0.0, 2.5, 2**70, None, "", "1/0", "-3/4", [], {}]


@st.composite
def one_leaf_put(draw):
    """A valid document with one drawn leaf in place of a drawn node, under
    a new key of an object, or after the last item of an array."""
    document = draw(st.sampled_from(VALID))
    spots = []
    for path, value in paths(document):
        if path:
            spots.append(path)
        if isinstance(value, dict):
            spots.append((*path, "extra"))
        if isinstance(value, list):
            spots.append((*path, len(value)))
    leaf = copy.deepcopy(draw(st.sampled_from(LEAVES)))

    def put(parent, key):
        if isinstance(parent, list) and key == len(parent):
            parent.append(leaf)
        else:
            parent[key] = leaf

    return edited(document, draw(st.sampled_from(spots)), put)


# the shape of the locus_* defs: keys of `allOf` and of `properties` evaluated
UNEVALUATED = {
    "$defs": {"base": {"properties": {"a": {"type": "integer"}}}},
    "allOf": [{"$ref": "#/$defs/base"}],
    "properties": {"b": {}},
    "unevaluatedProperties": False,
}
LOCUS_PAYLOAD = next(d for d in EXTRA_VALID if d["kind"] == "locus.map")["payload"]


class TestCompiledCheck:
    """`accepts` alone: the same accept set as jsonschema, keyword by keyword."""

    @settings(max_examples=400, deadline=None)
    @given(one_leaf_put())
    def test_one_leaf_anywhere(self, document):
        assert cli._job_validator().accepts(document) == REFERENCE.is_valid(document)

    @pytest.mark.parametrize(
        "kind, extra, valid",
        [
            ("locus.degeneration", {"target": ["x"], "probes": [[1, "1/2"], [0, -3]]}, True),
            ("locus.degeneration", {"target": ["x"], "probes": []}, True),
            ("locus.degeneration", {"target": ["x"], "probes": [[]]}, False),
            ("locus.degeneration", {"target": ["x"], "probes": [["1/0"]]}, False),
            ("locus.degeneration", {"target": ["x"], "probes": [1]}, False),
            ("locus.degeneration", {"target": ["x"], "probes": [[1]], "extra": 1}, False),
            ("locus.degeneration", {"probes": [[1]]}, False),
            ("locus.map", {"target": ["x"]}, True),
            ("locus.map", {"probes": [[1]]}, False),
            ("locus.map", {"extra": 1}, False),
            ("locus.map", {"point": [1]}, False),
            ("locus.oracle", {"target": ["x"], "point": [1, "2"]}, True),
            ("locus.oracle", {"target": ["x"], "point": [1], "probes": [[1]]}, False),
        ],
    )
    def test_locus_payloads(self, kind, extra, valid):
        document = job(kind, {**LOCUS_PAYLOAD, **extra})
        assert REFERENCE.is_valid(document) == valid
        assert cli._job_validator().accepts(document) == valid

    @pytest.mark.parametrize(
        "schema, instance, valid",
        [
            ({"type": "integer"}, 2.0, True),
            ({"type": "integer"}, 2, True),
            ({"type": "integer"}, True, False),
            ({"type": "integer"}, 2.5, False),
            ({"const": 1}, 1.0, True),
            ({"const": 1}, True, False),
            ({"const": True}, 1, False),
            ({"const": [1, {"a": 0}]}, [1.0, {"a": 0.0}], True),
            ({"const": [1, {"a": 0}]}, [1, {"a": False}], False),
            ({"enum": [1, "a"]}, 1.0, True),
            ({"enum": [1, "a"]}, True, False),
            ({"enum": [False]}, 0, False),
            ({"enum": ["a", "b"]}, "b", True),
            ({"enum": ["a", "b"]}, ["a"], False),
            ({"uniqueItems": True}, [1, True], True),
            ({"uniqueItems": True}, [0, False], True),
            ({"uniqueItems": True}, [1, 1.0], False),
            ({"uniqueItems": True}, [{"a": 1}, {"a": 1.0}], False),
            ({"uniqueItems": True}, ["a", "b", "a"], False),
            ({"uniqueItems": True}, "aa", True),
            ({"minimum": 1, "maximum": 2}, True, True),
            ({"minimum": 1, "maximum": 2}, False, True),
            ({"minimum": 1, "maximum": 2}, "0", True),
            ({"minimum": 1, "maximum": 2}, None, True),
            ({"minimum": 1, "maximum": 2}, 0, False),
            ({"minimum": 1, "maximum": 2}, 2.5, False),
            ({"minimum": 1, "maximum": 2}, 2.0, True),
            ({"pattern": "b"}, "abc", True),
            ({"pattern": "^b"}, "abc", False),
            ({"pattern": "^b"}, 7, True),
            ({"items": {"type": "string"}}, ["a", "b"], True),
            ({"items": {"type": "string"}}, [1, "a"], False),
            ({"items": {"type": "string"}}, ["a", "b", 3], False),
            ({"items": {"type": "string"}}, {"a": 1}, True),
            ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, 1, False),
            ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, -1, True),
            ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, 0.5, True),
            ({"if": {"minimum": 0}, "then": {"type": "integer"}}, 0.5, False),
            ({"if": {"minimum": 0}, "then": {"type": "integer"}}, -0.5, True),
            (UNEVALUATED, {"a": 1, "b": 2}, True),
            (UNEVALUATED, {"a": 1, "c": 2}, False),
            (UNEVALUATED, {"b": 2, "c": 2}, False),
            (UNEVALUATED, {"a": "x"}, False),
            (UNEVALUATED, [], True),
            ({"unevaluatedProperties": False}, {"a": 1}, False),
        ],
    )
    def test_keywords_decide_as_jsonschema_does(self, schema, instance, valid):
        assert jsonschema.Draft202012Validator(schema).is_valid(instance) == valid
        assert compile_schema(schema)(instance) == valid

    @pytest.mark.parametrize(
        "edit",
        [
            lambda s: s["$defs"]["poly"].update(format="regex"),
            lambda s: s["$defs"]["group"].update(patternProperties={"^x": {}}),
            lambda s: s["$defs"]["rational_vector"].update(prefixItems=[{"type": "integer"}]),
            lambda s: s["$defs"]["names"]["items"].update({"$ref": "#/properties/kind"}),
            lambda s: s["$defs"]["names"]["items"].update({"$ref": "job-v1.schema.json"}),
            lambda s: s["$defs"]["names"]["items"].update({"$ref": "#/$defs/missing"}),
            lambda s: s["$defs"]["names"]["items"].update({"$ref": "#/$defs/names"}),
            lambda s: s.update({"$schema": "http://json-schema.org/draft-07/schema#"}),
        ],
        ids=[
            "format",
            "patternProperties",
            "prefixItems",
            "ref-outside-defs",
            "ref-to-a-file",
            "ref-to-no-def",
            "ref-cycle",
            "draft-07",
        ],
    )
    def test_compiler_raises_on_what_it_does_not_know(self, edit):
        schema = copy.deepcopy(SCHEMA)
        edit(schema)
        compile_schema(SCHEMA)
        with pytest.raises(ValueError, match="unsupported|cycle"):
            compile_schema(schema)


class TestJsonschemaDecidesRejections:
    """With the compiled check rejecting everything, `validate` is plain
    jsonschema: a false rejection costs time and changes nothing else."""

    @pytest.fixture
    def validator(self, monkeypatch):
        validator = cli._job_validator()
        monkeypatch.setattr(validator, "accepts", lambda document: False)
        return validator

    def test_valid_documents_are_accepted(self, validator):
        for document in VALID:
            validator.validate(document)

    @pytest.mark.parametrize("index", range(len(VALID)))
    def test_mutants_raise_the_same_first_error(self, validator, index):
        for mutant in mutants(VALID[index], random.Random(index)):
            assert first_error(validator, mutant) == first_error(REFERENCE, mutant), mutant


def benchmark_documents():
    """(workload, seed, job id, document) of the benchmark's mixes for seeds
    1 to 3, generated by `benchmark/workloads.py`."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "stabkit_bench_workloads", root / "benchmark" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for item in workloads.generate(workload, seed, root / "src").jobs:
                yield workload, seed, item.job_id, item.document


def test_the_compiled_check_alone_accepts_every_known_valid_document():
    """A false rejection would only slow a job down, so no other test sees it."""
    accepts = cli._job_validator().accepts
    assert [d for d in corpus_jobs() + EXTRA_VALID if not accepts(d)] == []
    seen = set()
    rejected = []
    for workload, seed, job_id, document in benchmark_documents():
        seen.add(workload)
        if not accepts(document):
            rejected.append((workload, seed, job_id))
    assert rejected == []
    assert seen == {"pairs-levels", "elimination", "arcs-toric"}


def test_valid_documents_never_reach_jsonschema(monkeypatch):
    validator = cli._job_validator()
    monkeypatch.setattr(validator, "explainer", None)
    for document in VALID:
        validator.validate(document)


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



def identity(m):
    return [["1" if i == j else "0" for j in range(m)] for i in range(m)]


@pytest.mark.parametrize(
    "arc_a, arc_b, at",
    [
        (identity(10), identity(10), "arc_a"),
        (identity(9), [row + ["0"] for row in identity(9)], "arc_b[0]"),
    ],
    ids=["10x10", "9x10"],
)
def test_an_arc_is_at_most_nine_by_nine(tmp_path, capsys, arc_a, arc_b, at):
    """As a group is, even in an arcs.equiv job that names no group."""
    err = run_stderr(tmp_path, capsys, job("arcs.equiv", {"arc_a": arc_a, "arc_b": arc_b}))
    assert err.endswith(f" is too long (at $.payload.{at})\n")


class TestSchemaShape:
    """What the handlers and the compiled check rely on in the shipped schema."""

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


CORPUS_SCHEMA = json.loads(
    resources.files("stabkit").joinpath("schemas", "corpus-v1.schema.json").read_text()
)
CORPUS_REFERENCE = jsonschema.Draft202012Validator(CORPUS_SCHEMA)
CORPUS_FILES = sorted(
    p.name for p in resources.files("stabkit").joinpath("corpus").iterdir() if p.name.endswith(".json")
)
BAD_IDS = ["", "A1", "-a", "a b", "a_1", "\u00e91", "a1\n", "a1\nb"]
BAD_CRITERIA = ["", "a1", "A", "A1x", "B1", " A1", "A1\n", "A-1"]


def corpus_file(name):
    return json.loads(resources.files("stabkit").joinpath("corpus", name).read_text())


def corpus_mutants(batch, rng):
    """Single edits of a corpus file: in each entry every key dropped, junk
    put in its place, an extra key, and ids and criteria near their patterns;
    every entry replaced by junk; one more entry; and top levels that are not
    lists."""
    for i, entry in enumerate(batch):
        for key in entry:
            yield edited(batch, (i, key), lambda parent, k: parent.pop(k))
            for junk in rng.sample(JUNK, 3):
                yield edited(batch, (i, key), lambda parent, k: parent.__setitem__(k, junk))
        yield edited(batch, (i, "extra"), lambda parent, k: parent.setdefault(k, 1))
        for key, values in (("id", BAD_IDS), ("criterion", BAD_CRITERIA)):
            for value in values:
                yield edited(batch, (i, key), lambda parent, k: parent.__setitem__(k, value))
        yield edited(batch, (i,), lambda parent, k: parent.__setitem__(k, rng.choice(JUNK)))
    yield [*batch, rng.choice(JUNK)]
    yield from [{}, batch[0], {"entries": batch}, "A1", None, 3]


def corpus_validator():
    """The validator `cli._load_corpus` checks each corpus file with."""
    return cli._SchemaValidator(cli._load_schema("corpus-v1.schema.json"))


class TestCorpusSchema:
    def test_bundled_files_are_valid(self):
        validator = corpus_validator()
        for name in CORPUS_FILES:
            batch = corpus_file(name)
            CORPUS_REFERENCE.validate(batch)
            assert validator.accepts(batch)

    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_mutants_are_decided_as_jsonschema_decides(self, name):
        validator = corpus_validator()
        invalid = 0
        for mutant in corpus_mutants(corpus_file(name), random.Random(name)):
            expected = first_error(CORPUS_REFERENCE, mutant)
            assert validator.accepts(mutant) == (expected is None), mutant
            assert first_error(validator, mutant) == expected, mutant
            invalid += expected is not None
        assert invalid >= 20

    @pytest.mark.parametrize(
        "edit",
        [
            lambda batch: [{k: v for k, v in batch[0].items() if k != "expect"}],
            lambda batch: [{**batch[0], "extra": 1}],
            lambda batch: [{**batch[0], "id": "Bad-Id"}],
            lambda batch: [{**batch[0], "criterion": "A1x"}],
            lambda batch: [{**batch[0], "job": []}],
            lambda batch: ["entry", *batch],
            lambda batch: {"entries": batch},
        ],
        ids=[
            "drop-expect",
            "extra-key",
            "bad-id",
            "bad-criterion",
            "job-not-object",
            "junk-entry",
            "not-a-list",
        ],
    )
    def test_stabkit_corpus_prints_the_first_error(self, tmp_path, capsys, edit):
        batch = edit(corpus_file(CORPUS_FILES[0]))
        with pytest.raises(jsonschema.ValidationError) as caught:
            CORPUS_REFERENCE.validate(batch)
        directory = tmp_path / "corpus"
        directory.mkdir()
        (directory / CORPUS_FILES[0]).write_text(json.dumps(batch))
        assert cli.main(["corpus", "--corpus", str(directory)]) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        error = caught.value
        line = f"invalid corpus: {error.message} (at {error.json_path})\n"
        assert (captured.out, captured.err) == ("", line)


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
