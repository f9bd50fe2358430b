"""Command-line interface: reports, exit codes, determinism, corpus checks."""

import json
import random
import time
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.algebra import format_multi
from stabkit.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, _mismatch, execute_job, main
from stabkit import cli, groups
from stabkit.groups import GroupPresentation, sym_action

QUARTIC_PAIR = {
    "rank": 1,
    "weights_v": [[4], [2], [0], [-2], [-4]],
    "weights_w": [[0]],
    "v": [1, 0, 0, 0, 0],
    "w": [1],
}

CHECK_JOB = {"schema_version": 1, "kind": "pairs.check", "payload": QUARTIC_PAIR}

GROEBNER_JOB = {
    "schema_version": 1,
    "kind": "algebra.groebner",
    "payload": {
        "variables": ["x", "y", "z"],
        "generators": ["x^2 - y", "x*y - z"],
        "eliminate": ["x"],
    },
}


def write_job(tmp_path, document, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


def gl2_weight_job(rep_v, v):
    """An arcs.weight job over GL2 with the given v-representation."""
    return {
        "schema_version": 1,
        "kind": "arcs.weight",
        "payload": {
            "group": {"kind": "general-linear", "size": 2},
            "rep_v": rep_v,
            "rep_w": {"kind": "trivial"},
            "v": v,
            "w": [1],
            "arc": [["t", "1 + t^2"], ["0", "t^-2"]],
        },
    }


def run_cli(tmp_path, capsys, document, *flags):
    path = write_job(tmp_path, document)
    code = main(["run", str(path), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_report_envelope(self, tmp_path, capsys):
        code, out, err = run_cli(tmp_path, capsys, CHECK_JOB)
        assert code == EXIT_OK
        assert err == ""
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["kind"] == "pairs.check"
        assert report["verdict"] == "unstable"
        assert report["certificate"]["exponents"] == [1]
        assert report["certificate"]["mu"] == "-4"
        assert report["modules"] == {"stabkit": "0.1.0"}
        assert report["timing"] is None
        assert set(report["budget"]) == {"limit", "used"}

    def test_report_matches_schema(self, tmp_path, capsys):
        code, out, _ = run_cli(tmp_path, capsys, GROEBNER_JOB)
        assert code == EXIT_OK
        schema = json.loads(
            resources.files("stabkit").joinpath("schemas/report-v1.schema.json").read_text()
        )
        jsonschema.validate(json.loads(out), schema)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write_job(tmp_path, GROEBNER_JOB)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["run", str(path), "--out", str(out1)]) == EXIT_OK
        assert main(["run", str(path), "--out", str(out2)]) == EXIT_OK
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_elimination_golden(self, tmp_path, capsys):
        code, out, _ = run_cli(tmp_path, capsys, GROEBNER_JOB)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["values"]["variables"] == ["y", "z"]
        assert report["values"]["basis"] == ["y^3 - z^2"]

    def test_model_df_golden(self, tmp_path, capsys):
        job = {
            "schema_version": 1,
            "kind": "model.df",
            "payload": {"a0": 1, "a1": 2, "b0": "-2/3", "b1": "-3/2"},
        }
        code, out, _ = run_cli(tmp_path, capsys, job)
        assert code == EXIT_OK
        assert json.loads(out)["values"]["df"] == "1/6"

    def test_toric_df_golden(self, tmp_path, capsys):
        job = {
            "schema_version": 1,
            "kind": "toric.df",
            "payload": {
                "polytope": {"vertices": [[0], [1]]},
                "pieces": [
                    {"gradient": [0], "constant": 0},
                    {"gradient": [2], "constant": -1},
                ],
            },
        }
        code, out, _ = run_cli(tmp_path, capsys, job)
        assert code == EXIT_OK
        assert json.loads(out)["values"]["df"] == "1/4"

    def test_timing_flag(self, tmp_path, capsys):
        code, out, _ = run_cli(tmp_path, capsys, CHECK_JOB, "--timing")
        assert code == EXIT_OK
        timing = json.loads(out)["timing"]
        assert isinstance(timing["milliseconds"], int)

    def test_seed_echo_and_default(self, tmp_path, capsys):
        payload = {
            "group": {"kind": "torus", "size": 1},
            "rep_v": {"kind": "torus-weights", "weights": [[4], [2], [0], [-2], [-4]]},
            "rep_w": {"kind": "torus-weights", "weights": [[0]]},
            "v": [1, 0, 0, 0, 0],
            "w": [1],
        }
        job = {"schema_version": 1, "kind": "pairs.falsify", "payload": payload}
        code, out, _ = run_cli(tmp_path, capsys, job)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["seed"] == 0
        assert report["verdict"] == "destabilized"
        code, out, _ = run_cli(tmp_path, capsys, job, "--seed", "7")
        assert json.loads(out)["seed"] == 7

    def test_budget_exhaustion_exit_code(self, tmp_path, capsys):
        code, out, err = run_cli(tmp_path, capsys, GROEBNER_JOB, "--budget", "3")
        assert code == EXIT_BUDGET
        assert out == ""
        assert "budget" in err

    def test_malformed_polynomial(self, tmp_path, capsys):
        bad = {
            "schema_version": 1,
            "kind": "algebra.groebner",
            "payload": {"variables": ["x"], "generators": ["x +* 1"]},
        }
        code, out, err = run_cli(tmp_path, capsys, bad)
        assert code == EXIT_INVALID
        assert "position" in err

    def test_unknown_kind(self, tmp_path, capsys):
        code, _, err = run_cli(
            tmp_path, capsys, {"schema_version": 1, "kind": "nope", "payload": {}}
        )
        assert code == EXIT_INVALID
        assert "invalid job document" in err

    @pytest.mark.parametrize(
        "kind, payload",
        [
            (
                "locus.family",
                {
                    "rank": 1,
                    "base": ["a", "a"],
                    "weights_v": [[0], [2]],
                    "weights_w": [[1]],
                    "v": ["a", "1"],
                    "w": ["1"],
                },
            ),
            ("algebra.groebner", {"variables": ["x", "x"], "generators": ["x^2"]}),
            (
                "algebra.groebner",
                {"variables": ["x", "y"], "generators": ["x - y"], "eliminate": ["x", "x"]},
            ),
        ],
        ids=["base", "variables", "eliminate"],
    )
    def test_duplicate_names_rejected(self, tmp_path, capsys, kind, payload):
        job = {"schema_version": 1, "kind": kind, "payload": payload}
        code, out, err = run_cli(tmp_path, capsys, job)
        assert code == EXIT_INVALID
        assert out == ""
        assert "invalid job document" in err

    def test_float_payload_rejected(self, tmp_path, capsys):
        job = {
            "schema_version": 1,
            "kind": "model.df",
            "payload": {"a0": 1.5, "a1": 2, "b0": 0, "b1": 0},
        }
        code, _, err = run_cli(tmp_path, capsys, job)
        assert code == EXIT_INVALID

    def test_matrix_action_failing_the_spot_check(self, tmp_path, capsys):
        bad = {"kind": "matrix", "entries": [["g11 + 1"]]}
        code, out, err = run_cli(tmp_path, capsys, gl2_weight_job(bad, [1]))
        assert code == EXIT_INVALID
        assert out == ""
        assert "action matrix is not compatible with group multiplication" in err

    def test_matrix_action_moving_the_identity(self, tmp_path, capsys):
        # multiplicative, but the identity acts as diag(1, 0): the norm's
        # degree would come from one weight for two coordinates
        job = {
            "schema_version": 1,
            "kind": "arcs.weight",
            "payload": {
                "group": {"kind": "torus", "size": 2},
                "rep_v": {"kind": "matrix", "entries": [["g11", "0"], ["0", "0"]]},
                "rep_w": {"kind": "trivial"},
                "v": [1, 1],
                "w": [1],
                "arc": [["t", "0"], ["0", "t^-1"]],
            },
        }
        code, out, err = run_cli(tmp_path, capsys, job)
        assert code == EXIT_INVALID
        assert out == ""
        assert "action matrix is not compatible with group multiplication" in err

    def test_matrix_action_matches_sym(self, tmp_path, capsys):
        action = sym_action(GroupPresentation(2, "general-linear"), 2)
        entries = [[format_multi(p) for p in row] for row in action.matrix]
        reports = []
        for rep_v in ({"kind": "matrix", "entries": entries}, {"kind": "sym", "degree": 2}):
            code, out, _ = run_cli(tmp_path, capsys, gl2_weight_job(rep_v, [1, 0, 1]))
            assert code == EXIT_OK
            reports.append(json.loads(out)["values"])
        assert reports[0] == reports[1]
        assert "norm" in reports[0]

    @pytest.mark.parametrize("kind", ["arcs.weight", "pairs.falsify"])
    def test_sym_on_a_size_seven_group_is_rejected_before_the_group(
        self, tmp_path, capsys, monkeypatch, kind
    ):
        def no_determinant(*args):
            raise AssertionError("determinant built")

        monkeypatch.setattr(groups, "det_polynomial", no_determinant)
        job = gl2_weight_job({"kind": "sym", "degree": 2}, [1, 0, 1])
        job["kind"] = kind
        job["payload"]["group"] = {"kind": "special-linear", "size": 7}
        if kind == "pairs.falsify":
            del job["payload"]["arc"]
        code, out, err = run_cli(tmp_path, capsys, job)
        assert code == EXIT_INVALID
        assert out == ""
        assert "symmetric-power helper is for 2x2 groups" in err

    @pytest.mark.parametrize("kind", ["special-linear", "general-linear"])
    @pytest.mark.parametrize("job_kind", ["arcs.weight", "arcs.equiv", "pairs.falsify"])
    def test_no_arc_or_falsifier_job_builds_the_determinant(
        self, tmp_path, capsys, monkeypatch, kind, job_kind
    ):
        def no_determinant(*args):
            raise AssertionError("determinant built")

        monkeypatch.setattr(groups, "det_polynomial", no_determinant)
        group = {"kind": kind, "size": 3}
        standard = [[f"g{i}{j}" for j in (1, 2, 3)] for i in (1, 2, 3)]
        shear = [["1", "t", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        if job_kind == "arcs.equiv":
            payload = {"arc_a": shear, "arc_b": shear, "group": group}
        else:
            payload = {
                "group": group,
                "rep_v": {"kind": "matrix", "entries": standard},
                "rep_w": {"kind": "trivial"},
                "v": [1, 0, 2],
                "w": [1],
                "arc": shear,
                "draws": 5,
            }
            del payload["draws" if job_kind == "arcs.weight" else "arc"]
        job = {"schema_version": 1, "kind": job_kind, "payload": payload}
        code, out, err = run_cli(tmp_path, capsys, job)
        assert code == EXIT_OK, err
        assert json.loads(out)["kind"] == job_kind

    @pytest.mark.parametrize(
        "job_kind, group, arc, label",
        [
            ("arcs.weight", "special-linear", [["t", "0"], ["0", "t"]], "arc"),
            ("arcs.weight", "torus", [["t", "1"], ["0", "1"]], "arc"),
            ("arcs.weight", "general-linear", [["t", "t"], ["1", "1"]], "arc"),
            ("arcs.equiv", "torus", [["t", "1"], ["0", "1"]], "arc_b"),
        ],
    )
    def test_arcs_outside_the_group_are_refused(
        self, tmp_path, capsys, job_kind, group, arc, label
    ):
        payload = {"group": {"kind": group, "size": 2}}
        if job_kind == "arcs.equiv":
            payload |= {"arc_a": [["t", "0"], ["0", "1"]], "arc_b": arc}
        else:
            trivial = {"kind": "trivial"}
            payload |= {"rep_v": trivial, "rep_w": trivial, "v": [1], "w": [1], "arc": arc}
        job = {"schema_version": 1, "kind": job_kind, "payload": payload}
        code, out, err = run_cli(tmp_path, capsys, job)
        assert (code, out) == (EXIT_INVALID, "")
        assert err == f"invalid job input: {label} does not satisfy the group relations\n"

    @pytest.mark.parametrize("w_value", [0, 1])
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"v": [1, 1, 1]}, "vector length does not match the representation"),
            (
                {"rep_v": {"kind": "torus-weights", "weights": [[1], [2]]}},
                "arc size does not match the torus rank",
            ),
            (
                {"rep_w": {"kind": "torus-weights", "weights": [[1]]}},
                "arc size does not match the torus rank",
            ),
            ({"w": [1, 1]}, "vector length does not match the representation"),
        ],
        ids=["v-length", "v-rank", "w-rank", "w-length"],
    )
    def test_malformed_arc_weight_is_refused_whatever_w_is(
        self, tmp_path, capsys, change, message, w_value
    ):
        payload = {
            "group": {"kind": "torus", "size": 2},
            "rep_v": {"kind": "torus-weights", "weights": [[1, 0], [0, 1]]},
            "rep_w": {"kind": "torus-weights", "weights": [[1, 1]]},
            "v": [1, 1],
            "w": [1],
            "arc": [["t", "0"], ["0", "t"]],
        } | change
        payload["w"] = [w_value] * len(payload["w"])
        job = {"schema_version": 1, "kind": "arcs.weight", "payload": payload}
        code, out, err = run_cli(tmp_path, capsys, job)
        assert (code, out) == (EXIT_INVALID, "")
        assert err == f"invalid job input: {message}\n"

    def test_size_nine_arc_weight_builds_no_determinant(self, tmp_path, capsys, monkeypatch):
        def no_determinant(*args):
            raise AssertionError("determinant built")

        monkeypatch.setattr(groups, "det_polynomial", no_determinant)
        identity = [["1" if i == j else "0" for j in range(9)] for i in range(9)]
        payload = {
            "group": {"kind": "general-linear", "size": 9},
            "rep_v": {"kind": "trivial"},
            "rep_w": {"kind": "trivial"},
            "v": [1],
            "w": [1],
            "arc": identity,
        }
        job = {"schema_version": 1, "kind": "arcs.weight", "payload": payload}
        code, out, err = run_cli(tmp_path, capsys, job)
        assert code == EXIT_OK, err
        assert json.loads(out)["values"] == {"mu": "0"}

    @pytest.mark.parametrize(
        "w_weight, verdict", [([1] * 9, "semistable"), ([2] * 9, "unstable")]
    )
    def test_rank_nine_pair(self, tmp_path, capsys, w_weight, verdict):
        # the schema's largest rank: nine weights 9*e_i around the all-ones weight
        weights_v = [[9 if i == j else 0 for j in range(9)] for i in range(9)]
        payload = {"rank": 9, "weights_v": weights_v, "weights_w": [w_weight], "v": [1] * 9, "w": [1]}
        job = {"schema_version": 1, "kind": "pairs.check", "payload": payload}
        code, out, err = run_cli(tmp_path, capsys, job)
        assert code == EXIT_OK, err
        report = json.loads(out)
        assert report["verdict"] == verdict
        if verdict == "semistable":
            assert report["certificate"]["containment"][0]["coefficients"] == ["1/9"] * 9
        else:
            assert report["certificate"]["exponents"] == [-1] * 9

    def test_unreadable_and_unparsable_documents(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == EXIT_INVALID
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["run", str(broken)]) == EXIT_INVALID
        capsys.readouterr()

    def test_a_document_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_bytes(json.dumps(CHECK_JOB).encode("utf-16"))  # starts with ff fe
        code = main(["run", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_INVALID, "")
        assert captured.err == (
            "job document is not UTF-8: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n"
        )

    def test_out_into_a_missing_directory(self, tmp_path, capsys):
        path = write_job(tmp_path, CHECK_JOB)
        out = tmp_path / "nodir" / "r.json"
        code = main(["run", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_INVALID, "")
        assert captured.err == f"cannot write report: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])


FALSIFY_JOB = {
    "schema_version": 1,
    "kind": "pairs.falsify",
    "payload": {
        "group": {"kind": "torus", "size": 1},
        "rep_v": {"kind": "torus-weights", "weights": [[4], [2], [0], [-2], [-4]]},
        "rep_w": {"kind": "torus-weights", "weights": [[0]]},
        "v": [1, 0, 0, 0, 0],
        "w": [1],
        "draws": 3,
    },
    "seed": 2,
}

RANK2_PAIR = {
    "rank": 2,
    "weights_v": [[3, 1], [1, 3]],
    "weights_w": [[2, 2]],
    "v": [1, 1],
    "w": [1],
}


class TestIntegralFloats:
    """A float literal with an integral value reads as the integer JSON Schema
    takes it for; any other float is still rejected."""

    @pytest.mark.parametrize(
        "document, path",
        [
            (FALSIFY_JOB, ("seed",)),
            (
                {"schema_version": 1, "kind": "pairs.check", "payload": RANK2_PAIR},
                ("payload", "rank"),
            ),
            (
                {
                    "schema_version": 1,
                    "kind": "pairs.stable",
                    "payload": {**RANK2_PAIR, "max_level": 3},
                },
                ("payload", "max_level"),
            ),
        ],
        ids=["seed", "rank", "max_level"],
    )
    def test_report_equals_the_integer_documents(self, tmp_path, capsys, document, path):
        code, out, _ = run_cli(tmp_path, capsys, document)
        assert code == EXIT_OK
        floated = json.loads(json.dumps(document))
        parent = floated
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = float(parent[path[-1]])
        assert f"{parent[path[-1]]:.1f}" in json.dumps(floated)
        assert run_cli(tmp_path, capsys, floated) == (EXIT_OK, out, "")

    @pytest.mark.parametrize(
        "field, literal, message",
        [
            ("seed", "1.5", "1.5 is not of type 'integer' (at $.seed)"),
            ("seed", "1e400", "inf is not of type 'integer' (at $.seed)"),
            ("budget", "0.0", "0 is less than the minimum of 1 (at $.budget)"),
            ("rank", "10.0", "10 is greater than the maximum of 9 (at $.payload.rank)"),
        ],
    )
    def test_other_floats_are_rejected(self, tmp_path, capsys, field, literal, message):
        document = json.loads(json.dumps(CHECK_JOB))
        if field == "rank":
            document["payload"]["rank"] = "FIELD"
        else:
            document[field] = "FIELD"
        path = tmp_path / "job.json"
        path.write_text(json.dumps(document).replace('"FIELD"', literal))
        code = main(["run", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_INVALID, "")
        assert captured.err == f"invalid job document: {message}\n"

    def test_corpus_job(self, tmp_path, capsys):
        job = {**CHECK_JOB, "payload": {**QUARTIC_PAIR, "rank": 1.0}}
        d = tmp_path / "corpus"
        d.mkdir()
        entry = {"id": "t", "criterion": "A1", "job": job, "expect": {"verdict": "unstable"}}
        (d / "batch.json").write_text(json.dumps([entry]))
        assert main(["corpus", "--corpus", str(d)]) == EXIT_OK
        assert "[t] ok" in capsys.readouterr().out


JOB_SCHEMA = json.loads(
    resources.files("stabkit").joinpath("schemas", "job-v1.schema.json").read_text()
)


class TestOverrideMinimums:
    """`--budget` and `--seed` take what the job schema takes for `budget`
    and `seed`; a smaller value exits 2, as a non-integer does."""

    def test_minimums_are_the_schemas(self):
        properties = JOB_SCHEMA["properties"]
        assert (properties["budget"]["minimum"], properties["seed"]["minimum"]) == (1, 0)

    @pytest.mark.parametrize(
        "flag, value",
        [("--budget", "-1"), ("--budget", "0"), ("--budget", "x"), ("--seed", "-1")],
    )
    def test_run_rejects(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, capsys, CHECK_JOB, flag, value)
        assert exc.value.code == EXIT_INVALID
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field", [("--budget", "1", "budget"), ("--seed", "0", "seed")]
    )
    def test_run_takes_the_minimum(self, tmp_path, capsys, flag, value, field):
        code, out, _ = run_cli(tmp_path, capsys, CHECK_JOB, flag, value)
        assert code == EXIT_OK
        report = json.loads(out)
        echoed = report["budget"]["limit"] if field == "budget" else report["seed"]
        assert echoed == int(value)

    @pytest.mark.parametrize(
        "value, code", [("-1", EXIT_INVALID), ("0", EXIT_INVALID), ("1", EXIT_OK)]
    )
    def test_corpus_budget(self, tmp_path, capsys, value, code):
        d = tmp_path / "corpus"
        d.mkdir()
        entry = {"id": "t", "criterion": "A1", "job": CHECK_JOB, "expect": {"verdict": "unstable"}}
        (d / "batch.json").write_text(json.dumps([entry]))
        try:
            found = main(["corpus", "--corpus", str(d), "--budget", value])
        except SystemExit as exc:
            found = exc.code
        capsys.readouterr()
        assert found == code


class TestExecuteJob:
    def test_returns_report_dict(self):
        report = execute_job(CHECK_JOB)
        assert report["verdict"] == "unstable"
        assert report["budget"]["limit"] > 0

    def test_budget_override_echoed(self):
        report = execute_job(GROEBNER_JOB, budget_override=5000)
        assert report["budget"]["limit"] == 5000
        assert 0 < report["budget"]["used"] <= 5000

    def test_semistable_witness(self):
        job = {
            "schema_version": 1,
            "kind": "pairs.check",
            "payload": {
                "rank": 1,
                "weights_v": [[0], [2]],
                "weights_w": [[1]],
                "v": [1, 1],
                "w": [1],
            },
        }
        report = execute_job(job)
        assert report["verdict"] == "semistable"
        witness = report["certificate"]["containment"][0]
        assert witness["coefficients"] == ["1/2", "1/2"]

    def test_a_sym_action_is_packed_once_and_shared(self, monkeypatch):
        """The first arc weight that reads a Sym^d action packs its terms;
        a later job on the same group and degree reuses them, and an
        action that has never met an arc holds none."""
        groups._sym_action.cache_clear()
        packed = []
        pack = groups._pack_terms
        monkeypatch.setattr(
            groups, "_pack_terms", lambda action: packed.append(action) or pack(action)
        )
        sl2 = {"kind": "special-linear", "size": 2}
        job = {
            "schema_version": 1,
            "kind": "arcs.weight",
            "payload": {
                "group": sl2,
                "rep_v": {"kind": "sym", "degree": 3},
                "rep_w": {"kind": "sym", "degree": 1},
                "v": [1, 0, 2, 0],
                "w": [0, 1],
                "arc": [["t", "1 + t^2"], ["0", "t^-1"]],
            },
        }
        first = execute_job(job)
        action = sym_action(GroupPresentation(2, "special-linear"), 3)
        kept = action._packed
        assert kept is not None
        assert execute_job(job)["values"] == first["values"]
        assert action._packed is kept
        assert [a.dim for a in packed] == [4, 2]
        assert sym_action(GroupPresentation(2, "special-linear"), 2)._packed is None
        diagonal = groups.diagonal_action(GroupPresentation(1, "torus"), [[1], [-2]])
        assert groups.rep_weights(diagonal, 1) == [(1,), (-2,)]
        assert diagonal._packed is None

    def test_a_dense_size_nine_arc_is_equivalent_to_itself_in_seconds(self):
        """Every entry has two terms of exponents -1..2.  Elimination takes
        well under a second; the bound leaves room for a slow host."""
        rng = random.Random(9)

        def entry():
            low, high = rng.sample(range(-1, 3), 2)
            return f"{rng.choice([-2, -1, 1, 2])}*t^{low} + {rng.randint(1, 3)}*t^{high}"

        arc = [[entry() for _ in range(9)] for _ in range(9)]
        job = {"schema_version": 1, "kind": "arcs.equiv", "payload": {"arc_a": arc, "arc_b": arc}}
        start = time.perf_counter()
        report = execute_job(job)
        assert time.perf_counter() - start < 5
        assert report["verdict"] == "equivalent"

    def test_oracle_verdict(self):
        job = {
            "schema_version": 1,
            "kind": "locus.oracle",
            "payload": {
                "group": {"kind": "torus", "size": 1},
                "action": {"kind": "torus-weights", "weights": [[1], [-1]]},
                "space": ["x1", "y1"],
                "limit": ["x2", "y2"],
                "variety": [],
                "target": ["x1"],
                "projective": True,
                "point": [1, 0],
            },
        }
        report = execute_job(job)
        assert report["verdict"] == "does-not-degenerate"


def ref_matches(expected, actual) -> bool:
    """The two-pass corpus matcher that `_mismatch` replaced: the match test."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return False
        return all(k in actual and ref_matches(v, actual[k]) for k, v in expected.items())
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return False
        return all(ref_matches(e, a) for e, a in zip(expected, actual))
    return expected == actual


def ref_first_mismatch(expected, actual, path=""):
    """The two-pass corpus matcher that `_mismatch` replaced: the message."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for k, v in expected.items():
            if k not in actual:
                return f"{path}.{k} missing"
            if not ref_matches(v, actual[k]):
                return ref_first_mismatch(v, actual[k], f"{path}.{k}")
        return f"{path} mismatch"
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path} length {len(actual)} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            if not ref_matches(e, a):
                return ref_first_mismatch(e, a, f"{path}[{i}]")
        return f"{path} mismatch"
    return f"{path}: expected {expected!r}, got {actual!r}"


json_values = st.recursive(
    st.integers(min_value=0, max_value=2) | st.sampled_from(["a", "b"]) | st.booleans(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from("xyz"), inner, max_size=3),
    max_leaves=8,
)


@given(json_values, json_values)
@settings(max_examples=300, deadline=None)
def test_mismatch_agrees_with_the_two_pass_matcher(expected, actual):
    cases = [(expected, actual), (expected, expected)]
    if isinstance(expected, dict) and isinstance(actual, dict):
        cases.append((expected, {**actual, **expected}))
    for e, a in cases:
        want = None if ref_matches(e, a) else ref_first_mismatch(e, a)
        assert _mismatch(e, a) == want


class TestCorpus:
    def corpus_dir(self, tmp_path, entries, name="batch.json"):
        d = tmp_path / "corpus"
        d.mkdir(exist_ok=True)
        (d / name).write_text(json.dumps(entries))
        return d

    def test_pass_and_fail_lines(self, tmp_path, capsys):
        entries = [
            {
                "id": "t-pass",
                "criterion": "A1",
                "job": CHECK_JOB,
                "expect": {"verdict": "unstable"},
            },
            {
                "id": "t-fail",
                "criterion": "A2",
                "job": GROEBNER_JOB,
                "expect": {"values": {"basis": ["wrong"]}},
            },
        ]
        d = self.corpus_dir(tmp_path, entries)
        summary_path = tmp_path / "summary.json"
        code = main(["corpus", "--corpus", str(d), "--out", str(summary_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "[t-pass] ok" in out
        assert "[t-fail] FAIL" in out
        assert "A1 PASS (1/1)" in out
        assert "A2 FAIL (0/1)" in out
        summary = json.loads(summary_path.read_text())
        assert summary["criteria"] == {"A1": True, "A2": False}

    def test_expectations_are_deep_subsets(self, tmp_path, capsys):
        entries = [
            {
                "id": "subset",
                "criterion": "A1",
                "job": CHECK_JOB,
                "expect": {
                    "verdict": "unstable",
                    "certificate": {"mu": "-4"},
                    "budget": {"limit": 100000},
                },
            }
        ]
        d = self.corpus_dir(tmp_path, entries)
        code = main(["corpus", "--corpus", str(d)])
        capsys.readouterr()
        assert code == EXIT_OK

    def test_crashing_entry_fails(self, tmp_path, capsys):
        entries = [
            {
                "id": "crash",
                "criterion": "A3",
                "job": {
                    "schema_version": 1,
                    "kind": "algebra.groebner",
                    "payload": {"variables": ["x"], "generators": ["y"]},
                },
                "expect": {"verdict": "ok"},
            }
        ]
        d = self.corpus_dir(tmp_path, entries)
        code = main(["corpus", "--corpus", str(d)])
        out = capsys.readouterr().out
        assert code == 1
        assert "[crash] FAIL" in out

    def test_entry_failing_the_job_schema_is_one_line(self, tmp_path, capsys):
        job = {"schema_version": 1, "kind": "model.df", "payload": {"a0": "1"}}
        entries = [{"id": "no-a1", "criterion": "A1", "job": job, "expect": {}}]
        d = self.corpus_dir(tmp_path, entries)
        code = main(["corpus", "--corpus", str(d)])
        out = capsys.readouterr().out
        with pytest.raises(jsonschema.ValidationError) as caught:
            cli._job_validator().explainer.validate(job)
        error = caught.value
        assert code == 1
        assert out == (
            f"[no-a1] FAIL: ValidationError: {error.message} (at {error.json_path})\n"
            "A1 FAIL (0/1)\n"
        )

    def test_duplicate_ids_rejected(self, tmp_path, capsys):
        entry = {
            "id": "dup",
            "criterion": "A1",
            "job": CHECK_JOB,
            "expect": {"verdict": "unstable"},
        }
        d = self.corpus_dir(tmp_path, [entry])
        (d / "again.json").write_text(json.dumps([entry]))
        code = main(["corpus", "--corpus", str(d)])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert "duplicate" in err

    def test_empty_directory_rejected(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        code = main(["corpus", "--corpus", str(d)])
        capsys.readouterr()
        assert code == EXIT_INVALID

    def test_missing_directory_rejected(self, tmp_path, capsys):
        code = main(["corpus", "--corpus", str(tmp_path / "nowhere")])
        capsys.readouterr()
        assert code == EXIT_INVALID

    def test_summary_into_a_missing_directory(self, tmp_path, capsys):
        entry = {"id": "t-pass", "criterion": "A1", "job": CHECK_JOB, "expect": {}}
        d = self.corpus_dir(tmp_path, [entry])
        out = tmp_path / "nodir" / "s.json"
        code = main(["corpus", "--corpus", str(d), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.out == "[t-pass] ok\nA1 PASS (1/1)\n"
        assert captured.err == f"cannot write summary: [Errno 2] No such file or directory: '{out}'\n"

    def test_unreadable_corpus_files_rejected(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "a.json").write_bytes(b"\xff\xfe[]")
        assert main(["corpus", "--corpus", str(d)]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            "invalid corpus: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )
        (d / "a.json").unlink()
        (d / "a.json").mkdir()
        assert main(["corpus", "--corpus", str(d)]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("invalid corpus: [Errno 21] Is a directory")

    def test_malformed_corpus_rejected(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "bad.json").write_text(json.dumps({"not": "an array"}))
        code = main(["corpus", "--corpus", str(d)])
        capsys.readouterr()
        assert code == EXIT_INVALID
