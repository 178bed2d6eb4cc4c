"""Scene loading, the command-line verbs, report determinism, exit codes."""

import json

import pytest

from redstar.cli import (
    Scene,
    SceneError,
    emit_report,
    load_scene,
    main,
    parse_expr,
)

HEIS_SCENE = {
    "label": "heis-test",
    "lie_algebra": {"dim": 3,
                    "structure_constants": [[1, 2, 3, "1"], [2, 1, 3, "-1"]],
                    "label": "heis3"},
    "base": {"dim": 2},
    "truncation_order": 2,
    "degree_caps": {"polynomial": 2},
    "seed": 5,
    "trials": 2,
    "suites": ["koszul"],
}

AFF_SCENE = {
    "label": "aff-test",
    "lie_algebra": {"dim": 2,
                    "structure_constants": [[1, 2, 2, "1"], [2, 1, 2, "-1"]],
                    "label": "aff1"},
    "base": {"dim": 2},
    "truncation_order": 2,
    "seed": 5,
    "trials": 2,
    "suites": ["crossed"],
}


def write_scene(tmp_path, data, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestSceneLoading:
    def test_heisenberg_scene_loads(self, tmp_path):
        scene = load_scene(write_scene(tmp_path, HEIS_SCENE))
        assert scene.lie.nilpotency_class == 2
        model = scene.model()
        assert model.has_group

    def test_antisymmetry_diagnostics(self, tmp_path):
        bad = dict(HEIS_SCENE)
        bad["lie_algebra"] = {"dim": 2,
                              "structure_constants": [[1, 2, 1, "1"], [2, 1, 1, "1"]]}
        with pytest.raises(SceneError, match=r"C\[1\]\[2\]\^1"):
            load_scene(write_scene(tmp_path, bad))

    def test_jacobi_diagnostics(self, tmp_path):
        bad = dict(HEIS_SCENE)
        bad["lie_algebra"] = {
            "dim": 3,
            "structure_constants": [
                [1, 2, 3, "1"], [2, 1, 3, "-1"],
                [1, 3, 2, "1"], [3, 1, 2, "-1"],
                [2, 3, 3, "1"], [3, 2, 3, "-1"],
            ],
        }
        with pytest.raises(SceneError, match="Jacobi"):
            load_scene(write_scene(tmp_path, bad))

    def test_affine_scene_is_momentum_level(self, tmp_path):
        scene = load_scene(write_scene(tmp_path, AFF_SCENE))
        assert scene.lie.modular == (1, 0)
        assert not scene.model().has_group

    def test_poisson_antisymmetry_checked(self, tmp_path):
        bad = dict(HEIS_SCENE)
        bad["base"] = {"dim": 2, "poisson_matrix": [["0", "1"], ["1", "0"]]}
        scene = load_scene(write_scene(tmp_path, bad))
        with pytest.raises(SceneError, match="antisymmetric"):
            scene.model()

    def test_missing_file(self):
        with pytest.raises(SceneError):
            load_scene("/nonexistent/scene.json")


class TestMalformedScenes:
    """Each malformed scene is rejected at load: exit 2, one line on stderr."""

    @pytest.mark.parametrize("changes,extra,message", [
        ({"base": {"dim": 2, "poisson_matrix": [[0]]}}, [],
         "poisson_matrix must be 2x2"),
        ({"base": {"dim": 2, "poisson_matrix": [[0, 1, 0], [-1, 0]]}}, [],
         "poisson_matrix must be 2x2"),
        ({"truncation_order": -1}, [], "truncation order must be at least 0"),
        ({}, ["--order", "-1"], "truncation order must be at least 0"),
        ({"trials": -3}, [], "trials must be at least 1"),
        ({"trials": 0}, [], "trials must be at least 1"),
        ({"degree_caps": {"polynomial": -2}}, [], "degree cap must be at least 0"),
        ({}, ["--degree-cap", "-1"], "degree cap must be at least 0"),
    ], ids=["poisson_too_small", "poisson_ragged", "negative_order",
            "negative_order_override", "negative_trials", "zero_trials",
            "negative_degree_cap", "negative_degree_cap_override"])
    def test_verify_rejects(self, tmp_path, capsys, changes, extra, message):
        path = write_scene(tmp_path, {**HEIS_SCENE, **changes})
        assert main(["verify", "--scene", path, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert message in captured.err

    def test_operator_basis_key_still_loads(self, tmp_path):
        data = dict(HEIS_SCENE)
        data["degree_caps"] = {"polynomial": 2, "operator_basis": 3}
        scene = load_scene(write_scene(tmp_path, data))
        assert scene.degree_cap == 2


class TestExpressions:
    def test_parse(self, tmp_path):
        scene = Scene(HEIS_SCENE)
        m = scene.model()
        f = parse_expr("q^2 - 3/2*p*g1 + 1", m)
        expect = m.var("q") * m.var("q") - m.var("p") * m.var("g1") * (
            __import__("fractions").Fraction(3, 2)) + m.one()
        assert (f - expect).is_zero()

    def test_unknown_symbol(self):
        scene = Scene(HEIS_SCENE)
        with pytest.raises(SceneError, match="unknown symbol"):
            parse_expr("z + 1", scene.model())


class TestVerbs:
    def test_verify_exit_zero(self, tmp_path, capsys):
        path = write_scene(tmp_path, HEIS_SCENE)
        assert main(["verify", "--scene", path, "--suite", "koszul"]) == 0
        out = capsys.readouterr().out
        assert "koszul.square_zero" in out

    def test_verify_skip_not_failure(self, tmp_path, capsys):
        path = write_scene(tmp_path, AFF_SCENE)
        assert main(["verify", "--scene", path, "--suite", "crossed"]) == 0
        out = capsys.readouterr().out
        assert "skip" in out and "out of model class" in out

    def test_unknown_suite_exit_two(self, tmp_path, capsys):
        path = write_scene(tmp_path, HEIS_SCENE)
        assert main(["verify", "--scene", path, "--suite", "brst"]) == 2

    def test_bad_scene_exit_two(self, tmp_path, capsys):
        bad = dict(HEIS_SCENE)
        bad["lie_algebra"] = {"dim": 2,
                              "structure_constants": [[1, 2, 1, "1"], [2, 1, 1, "1"]]}
        path = write_scene(tmp_path, bad)
        assert main(["verify", "--scene", path]) == 2

    @pytest.mark.parametrize("expr", ["q^", "1/0"],
                             ids=["dangling_power", "zero_denominator"])
    def test_malformed_expression_exit_two(self, tmp_path, capsys, expr):
        path = write_scene(tmp_path, HEIS_SCENE)
        code = main(["star", "--scene", path, "--left", expr, "--right", "p"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1

    def test_star_verb(self, tmp_path, capsys):
        path = write_scene(tmp_path, HEIS_SCENE)
        code = main(["star", "--scene", path, "--product", "weyl_g",
                     "--left", "0-J1", "--right", "g1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lam^1" in out and "-1/2*i" in out

    def test_reduce_verb(self, tmp_path, capsys):
        path = write_scene(tmp_path, HEIS_SCENE)
        assert main(["reduce", "--scene", path, "--left", "q",
                     "--right", "p"]) == 0
        out = capsys.readouterr().out
        assert "C_0: q*p" in out and "C_1: 1/2*i" in out

    def test_involve_verb(self, tmp_path, capsys):
        path = write_scene(tmp_path, HEIS_SCENE)
        assert main(["involve", "--scene", path, "--input", "q",
                     "--weight", "gaussian"]) == 0
        out = capsys.readouterr().out
        assert "lam^1: 2*i*p" in out


class TestReports:
    def test_determinism_byte_identical(self, tmp_path):
        from redstar.cli import load_scene
        from redstar.suites import run_suite

        path = write_scene(tmp_path, HEIS_SCENE)
        outputs = []
        for _ in range(2):
            scene = load_scene(path)
            model = scene.model()
            ctx = scene.context(model)
            run_suite(ctx, "koszul")
            outputs.append(emit_report(ctx.records, "json", scene.label))
        assert outputs[0] == outputs[1]
        assert "seconds" not in outputs[0]
        timed = emit_report(ctx.records, "json", scene.label, timings=True)
        assert "seconds" in timed

    def test_empty_report(self):
        doc = json.loads(emit_report([], "json", "empty"))
        assert doc["records"] == [] and doc["counts"]["fail"] == 0
        assert "total: 0 pass" in emit_report([], "text", "empty")

    def test_failing_record_carries_order(self):
        rec = {"id": "x", "statement": "s", "status": "fail",
               "first_bad_order": 2, "detail": "3/2", "seconds": 0.0}
        doc = json.loads(emit_report([rec], "json", "l", timings=True))
        assert doc["records"][0]["first_bad_order"] == 2
        text = emit_report([rec], "text", "l")
        assert "first bad order 2" in text

    def test_json_text_round_trip_counts(self, tmp_path):
        from redstar.cli import load_scene
        from redstar.suites import run_suite

        path = write_scene(tmp_path, AFF_SCENE)
        scene = load_scene(path)
        ctx = scene.context(scene.model())
        run_suite(ctx, "crossed")
        doc = json.loads(emit_report(ctx.records, "json", scene.label))
        text = emit_report(ctx.records, "text", scene.label)
        total_line = text.splitlines()[-1]
        assert (f"{doc['counts']['pass']} pass" in total_line
                and f"{doc['counts']['fail']} fail" in total_line
                and f"{doc['counts']['skip']} skip" in total_line)


def test_scene_selects_star_product(tmp_path, capsys):
    data = dict(HEIS_SCENE)
    data["star_product"] = "std"
    path = write_scene(tmp_path, data)
    assert main(["star", "--scene", path, "--left", "g1", "--right", "0-J1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# std:")
