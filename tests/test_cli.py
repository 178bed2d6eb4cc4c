"""Scene loading, the command-line verbs, report determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import redstar
from redstar.cli import (
    EXIT_CLOSED_PIPE,
    Scene,
    SceneError,
    emit_report,
    load_scene,
    main,
    parse_expr,
)
from redstar import cli, suites
from redstar.morita import VerticalOperator
from redstar.starprod import STAR_PRODUCTS
from redstar.suites import SUITES

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
        ({"suites": ["star", "bogus"]}, [], "unknown suite 'bogus'"),
        ({"lie_algebra": {"dim": 0, "structure_constants": []}}, [],
         "lie_algebra dim must be at least 1"),
        ({"lie_algebra": {"dim": -1, "structure_constants": []}}, [],
         "lie_algebra dim must be at least 1"),
        ({"base": {"dim": -2}}, [], "base dim must be at least 0"),
        ({"truncation_order": 0}, [], "verify truncation order must be at least 1"),
        ({}, ["--order", "0"], "verify truncation order must be at least 1"),
        ({"degree_caps": 3}, [], "degree_caps must be a JSON object, got int"),
        ({"base": 2}, [], "base must be a JSON object, got int"),
        ({"lie_algebra": 3}, [], "lie_algebra must be a JSON object, got int"),
        ({"weights": [1, 2]}, [], "weights must be a JSON object, got list"),
        ({"weights": {"gaussian": "x"}}, [],
         "weight 'gaussian' must be a JSON object, got str"),
        ({"suites": 3}, [], "suites must be a JSON list of suite names, got int"),
        ({"seed": [1]}, [], "seed must be an integer, got list"),
        ({"truncation_order": [1]}, [], "truncation order must be an integer, got list"),
        ({"trials": None}, [], "trials must be an integer, got null"),
        ({"lie_algebra": {"dim": 2, "structure_constants": [[1, 2, 2, "1/0"],
                                                             [2, 1, 2, "-1"]]}}, [],
         "structure constant must be a rational number, got '1/0'"),
        ({"lie_algebra": {"dim": 2, "structure_constants": [[1, 2, 2, True],
                                                             [2, 1, 2, "-1"]]}}, [],
         "structure constant must be a rational number, got bool"),
        ({"base": {"dim": 2, "poisson_matrix": [[0, "1/0"], [-1, 0]]}}, [],
         "poisson_matrix entry must be a rational number, got '1/0'"),
        ({"base": {"dim": 2, "poisson_matrix": [[0, None], [-1, 0]]}}, [],
         "poisson_matrix entry must be a rational number, got null"),
        ({"weights": {"gaussian": {"exponent": "1/0"}}}, [],
         "weight 'gaussian' exponent must be a rational number, got '1/0'"),
        ({"weights": {"wide": {"kind": "gaussian", "exponent": [2]}}}, [],
         "weight 'wide' exponent must be a rational number, got list"),
        ({"lie_algebra": {"dim": 2, "structure_constants": [[1.5, 2, 2, "1"],
                                                             [2, 1, 2, "-1"]]}}, [],
         "structure constant index must be an integer, got float"),
        ({"lie_algebra": {"dim": 2, "structure_constants": [[True, 2, 2, "1"],
                                                             [2, 1, 2, "-1"]]}}, [],
         "structure constant index must be an integer, got bool"),
        ({"weights": {"w": {"kind": "bogus"}}}, [],
         "unknown weight kind 'bogus' for weight 'w'"),
        ({"star_product": "bogus"}, [],
         "star_product must be one of moyal, std, weyl_g, total, got 'bogus'"),
        ({"star_product": [1]}, [],
         "star_product must be one of moyal, std, weyl_g, total, got list"),
        ({"weights": {"w": {"kind": "gaussian", "exponent": "-1"}}}, [],
         "weight 'w' exponent must be positive, got -1"),
        ({"weights": {"w": {"exponent": "0"}}}, [],
         "weight 'w' exponent must be positive, got 0"),
        ({"suites": []}, [], "suites must name at least one suite"),
        ({"suites": ["kms", "kms"]}, [], "suites names 'kms' more than once"),
        ({"suites": ["all", "kms"]}, [], "suites lists 'all' beside other suites"),
        ({}, ["--out", "{tmp}"], "cannot write report: [Errno 21] Is a directory"),
        ({}, ["--out", "{tmp}/missing/x.json"],
         "cannot write report: [Errno 2] No such file or directory"),
        ({"lie_algebra": {"dim": 3, "structure_constants": ["1230"]}}, [],
         'structure_constants entry 1 "1230": must be a JSON list of four items '
         '[a, b, c, value]'),
        ({"lie_algebra": {"dim": 3, "structure_constants": [
            [1, 2, 3, "1"], {"a": 2, "b": 1, "c": 3, "value": "-1"}]}}, [],
         'structure_constants entry 2 {"a": 2, "b": 1, "c": 3, "value": "-1"}: '
         "must be a JSON list of four items [a, b, c, value]"),
        ({"lie_algebra": {"dim": 3, "structure_constants": [[1, 2, 3]]}}, [],
         "structure_constants entry 1 [1, 2, 3]: must be a JSON list of four items"),
        ({"lie_algebra": {"dim": 3, "structure_constants": "1230"}}, [],
         "structure_constants must be a JSON list, got str"),
        ({"lie_algebra": {"dim": 3, "structure_constants": [[0, 2, 3, "1"],
                                                            [2, 0, 3, "-1"]]}}, [],
         'structure_constants entry 1 [0, 2, 3, "1"]: structure constant index 0 '
         "is outside 1..3"),
        ({"lie_algebra": {"dim": 3, "structure_constants": [[1, 2, 3, "1"],
                                                            [2, 1, 4, "-1"]]}}, [],
         'structure_constants entry 2 [2, 1, 4, "-1"]: structure constant index 4 '
         "is outside 1..3"),
        ({"label": ["x"]}, [], "label must be a string, got list"),
        ({"lie_algebra": {**HEIS_SCENE["lie_algebra"], "label": 7}}, [],
         "lie_algebra label must be a string, got int"),
        ({"lie_algebra": {**HEIS_SCENE["lie_algebra"], "label": 0}}, [],
         "lie_algebra label must be a string, got int"),
        ({"lie_algebra": {"dim": 3, "structure_constants": [
            [1, 2, 3, "1"], [2, 1, 3, "-1"], [1, 2, 3, "2/2"]]}}, [],
         'structure_constants entry 3 [1, 2, 3, "2/2"] repeats entry 1 [1, 2, 3, "1"]'),
        ({"lie_algebra": {"dim": 3, "structure_constants": [
            [1, 2, 3, "1"], [2, 1, 3, "-1"], [2, 1, 3, "5"]]}}, [],
         'structure_constants entry 3 [2, 1, 3, "5"] repeats entry 2 [2, 1, 3, "-1"]'),
    ], ids=["poisson_too_small", "poisson_ragged", "negative_order",
            "negative_order_override", "negative_trials", "zero_trials",
            "negative_degree_cap", "negative_degree_cap_override",
            "unknown_suite_in_list", "zero_lie_dim",
            "negative_lie_dim", "negative_base_dim", "zero_order",
            "zero_order_override", "degree_caps_not_object", "base_not_object",
            "lie_algebra_not_object", "weights_not_object",
            "weight_spec_not_object", "suites_not_list", "seed_not_integer",
            "order_not_integer", "trials_null", "structure_zero_denominator",
            "structure_bool", "poisson_zero_denominator", "poisson_null",
            "weight_exponent_zero_denominator", "weight_exponent_list",
            "structure_index_float", "structure_index_bool",
            "weight_kind_unknown", "star_product_unknown", "star_product_list",
            "weight_exponent_negative", "weight_exponent_zero", "suites_empty",
            "suites_repeated", "suites_all_beside_others", "out_is_directory",
            "out_directory_missing", "structure_entry_string", "structure_entry_object",
            "structure_entry_short", "structure_not_list", "structure_index_zero",
            "structure_index_above_dim", "label_list", "lie_label_int",
            "lie_label_zero", "structure_repeated_equal",
            "structure_repeated_contradicting"])
    def test_verify_rejects(self, tmp_path, capsys, monkeypatch, changes, extra,
                            message):
        ran = []
        monkeypatch.setattr("redstar.suites.run_suite", lambda ctx, name: ran.append(name))
        path = write_scene(tmp_path, {**HEIS_SCENE, **changes})
        extra = [arg.replace("{tmp}", str(tmp_path)) for arg in extra]
        assert main(["verify", "--scene", path, *extra]) == 2
        assert ran == []  # rejected before any suite runs
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize("changes,extra,message", [
        ({"truncation_order": 13}, [], "truncation order must be at most 12, got 13"),
        ({}, ["--order", "13"], "truncation order must be at most 12, got 13"),
        ({"trials": 1001}, [], "trials must be at most 1000, got 1001"),
        ({"degree_caps": {"polynomial": 13}}, [], "degree cap must be at most 12, got 13"),
        ({}, ["--degree-cap", "13"], "degree cap must be at most 12, got 13"),
        ({"lie_algebra": {"dim": 13, "structure_constants": []}}, [],
         "lie_algebra dim must be at most 12, got 13"),
        ({"lie_algebra": {"dim": 40, "structure_constants": []}}, [],
         "lie_algebra dim must be at most 12, got 40"),
        ({"base": {"dim": 14}}, [], "base dim must be at most 12, got 14"),
        ({"base": {"dim": 100000}}, [], "base dim must be at most 12, got 100000"),
    ], ids=["order", "order_override", "trials", "degree_cap", "degree_cap_override",
            "lie_dim", "lie_dim_40", "base_dim", "base_dim_huge"])
    def test_verify_rejects_too_large(self, tmp_path, capsys, monkeypatch, changes,
                                      extra, message):
        # only the rejection is tested: no model is built and no suite runs
        def refuse(*args):
            pytest.fail("a model was built for an out-of-range scene")
        monkeypatch.setattr("redstar.cli.Scene.model", refuse)
        monkeypatch.setattr("redstar.suites.run_suite", refuse)
        path = write_scene(tmp_path, {**HEIS_SCENE, **changes})
        assert main(["verify", "--scene", path, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {message}\n"

    def test_star_rejects_large_exponent(self, tmp_path, capsys):
        path = write_scene(tmp_path, HEIS_SCENE)
        assert main(["star", "--scene", path, "--left", "q^65", "--right", "p"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("configuration error: exponent must be at most 64, "
                                "got 65\n")

    @pytest.mark.parametrize("expr,degree", [
        ("((q+p+1)^12)^12", 144),
        ("*".join(["(q+p+1)^64"] * 20), 128),
        ("q^40*p^20*(q+1)^5", 65),
    ], ids=["nested_power", "product_chain", "mixed"])
    def test_star_rejects_large_degree(self, tmp_path, capsys, expr, degree):
        path = write_scene(tmp_path, HEIS_SCENE)
        assert main(["star", "--scene", path, f"--left={expr}", "--right=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("configuration error: expression degree must be "
                                f"at most 64, got {degree}\n")

    @pytest.mark.parametrize("expr", ["(q+p+1)^64", "((q+p+1)^8)^8",
                                      "q^40*p^20*(q+1)^4"])
    def test_star_accepts_degree_up_to_the_bound(self, tmp_path, capsys, expr):
        path = write_scene(tmp_path, HEIS_SCENE)
        assert main(["star", "--scene", path, f"--left={expr}", "--right=1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "lam^0:" in captured.out

    def test_scene_not_object(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text("[1, 2]")
        assert main(["verify", "--scene", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: a scene must be a JSON object, got list\n"

    def test_involve_rejects_weight_spec(self, tmp_path, capsys):
        path = write_scene(tmp_path, {**HEIS_SCENE, "weights": {"gaussian": "x"}})
        assert main(["involve", "--scene", path, "--input", "q"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("configuration error: weight 'gaussian' must be "
                                "a JSON object, got str\n")

    def test_involve_rejects_weight_kind(self, tmp_path, capsys):
        """An unknown kind is rejected at load, even for a weight not asked for."""
        path = write_scene(tmp_path, {**HEIS_SCENE, "weights": {"w": {"kind": "bogus"}}})
        for weight in ("w", "gaussian"):
            assert main(["involve", "--scene", path, "--input", "q",
                         "--weight", weight]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("configuration error: unknown weight kind "
                                    "'bogus' for weight 'w'\n")

    @pytest.mark.parametrize("value,shown", [("bogus", "'bogus'"), ([1], "list"),
                                             (None, "null")],
                             ids=["unknown", "list", "null"])
    def test_every_verb_rejects_star_product(self, tmp_path, capsys, value, shown):
        path = write_scene(tmp_path, {**HEIS_SCENE, "star_product": value})
        for verb in (["verify"], ["star", "--left", "q", "--right", "p"],
                     ["star", "--product", "moyal", "--left", "q", "--right", "p"],
                     ["reduce", "--left", "q", "--right", "p"],
                     ["involve", "--input", "q"]):
            assert main([verb[0], "--scene", path, *verb[1:]]) == 2, verb
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("configuration error: star_product must be one "
                                    f"of moyal, std, weyl_g, total, got {shown}\n")

    @pytest.mark.parametrize("name", STAR_PRODUCTS)
    def test_every_star_product_is_a_choice(self, tmp_path, capsys, name):
        """One tuple of names: each loads from a scene and each is a --product
        choice."""
        path = write_scene(tmp_path, {**HEIS_SCENE, "star_product": name})
        assert main(["star", "--scene", path, "--left", "q", "--right", "p"]) == 0
        assert main(["star", "--scene", path, "--product", name,
                     "--left", "q", "--right", "p"]) == 0
        assert capsys.readouterr().out.startswith(f"# {name}:")

    @pytest.mark.parametrize("where,key", [
        ((), "truncation_ordr"), (("lie_algebra",), "dimension"),
        (("base",), "poisson"), (("weights", "w"), "exponnent"),
        (("degree_caps",), "polynomal")])
    def test_unknown_key_exit_two(self, tmp_path, capsys, where, key):
        """A misspelt key is named on one line, not silently ignored."""
        data = json.loads(json.dumps({**HEIS_SCENE, "weights": {"w": {"exponent": 2}}}))
        block = data
        for name in where:
            block = block[name]
        block[key] = 9
        path = write_scene(tmp_path, data)
        assert main(["verify", "--scene", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: unknown key {key!r} in ")
        assert captured.err.count("\n") == 1

    def test_operator_basis_key_still_loads(self, tmp_path):
        data = dict(HEIS_SCENE)
        data["degree_caps"] = {"polynomial": 2, "operator_basis": 3}
        scene = load_scene(write_scene(tmp_path, data))
        assert scene.degree_cap == 2


class TestOutsideThePlane:
    """Checks written in (q, p) skip on other bases; the rest still run."""

    SCENE = {"label": "small", "lie_algebra": {"dim": 1, "structure_constants": []},
             "truncation_order": 1, "degree_caps": {"polynomial": 1}, "trials": 1}
    PLANE_ONLY = {"involution.first_order", "involution.comparison",
                  "involution.density_ratio", "involution.modular_class",
                  "involution.inner_difference", "morita.gram_psd", "morita.vertical"}

    def report(self, tmp_path, base, suites):
        path = write_scene(tmp_path, {**self.SCENE, "base": base, "suites": suites})
        out = tmp_path / "report.json"
        code = main(["verify", "--scene", path, "--format", "json", "--out", str(out)])
        return code, {r["id"]: r for r in json.loads(out.read_text())["records"]}

    def test_four_dimensional_base_skips_plane_checks(self, tmp_path):
        code, recs = self.report(tmp_path, {"dim": 4}, ["involution", "morita"])
        assert code == 0
        skipped = {k for k, r in recs.items() if r["status"] == "skip"}
        assert skipped == self.PLANE_ONLY
        assert all("(q, p) plane" in recs[k]["detail"] for k in skipped)

    def test_first_order_reads_the_poisson_matrix(self, tmp_path):
        code, recs = self.report(
            tmp_path, {"dim": 2, "poisson_matrix": [[0, 2], [-2, 0]]}, ["involution"])
        assert recs["involution.first_order"]["status"] == "pass"
        assert code == 0

    def test_zero_dimensional_base_draws_constants(self, tmp_path):
        code, recs = self.report(tmp_path, {"dim": 0}, ["star"])
        assert recs["star.bracket.moyal"]["status"] == "pass"
        assert code == 0


class TestEngineErrors:
    """An exception inside a check is an error, not a failed identity."""

    def run(self, tmp_path, monkeypatch, capsys, defects, fmt="json"):
        def suite(ctx):
            ctx.check("demo.boom", "a check whose engine raises", defects)
            return ctx.records

        monkeypatch.setitem(SUITES, "koszul", suite)
        path = write_scene(tmp_path, HEIS_SCENE)
        code = main(["verify", "--scene", path, "--format", fmt])
        return code, capsys.readouterr().out

    @staticmethod
    def boom():
        yield False
        raise RuntimeError("engine broke")

    def test_error_exits_three_failure_one(self, tmp_path, monkeypatch, capsys):
        code, out = self.run(tmp_path, monkeypatch, capsys, self.boom)
        assert code == 3
        doc = json.loads(out)
        assert doc["counts"] == {"pass": 0, "fail": 0, "skip": 0, "error": 1}
        rec = doc["records"][0]
        assert rec["status"] == "error" and rec["detail"] == "RuntimeError: engine broke"
        code, out = self.run(tmp_path, monkeypatch, capsys, [False])
        assert code == 1
        assert json.loads(out)["counts"] == {"pass": 0, "fail": 1, "skip": 0}

    def test_vertical_defect_is_a_failure(self, tmp_path, monkeypatch, capsys):
        """A nonzero vertical-operator defect in morita.comparison is a failed
        identity at its first bad order, not an engine error: the planted
        h0 = L_{e_1} gives the defect L_{e_1} - id."""
        real = suites.deformation_comparison_H
        calls = []

        def planted(cfg, ket, **caps):
            calls.append(caps)
            if len(calls) == 1:
                return VerticalOperator.fundamental(cfg.model, 0)
            return real(cfg, ket, **caps)

        monkeypatch.setattr(suites, "deformation_comparison_H", planted)
        path = write_scene(tmp_path, {**HEIS_SCENE, "suites": ["morita"]})
        code = main(["verify", "--scene", path, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        rec = {r["id"]: r for r in doc["records"]}["morita.comparison"]
        assert len(calls) == 2
        assert rec["status"] == "fail" and rec["first_bad_order"] == 0
        assert doc["counts"]["fail"] == 1 and "error" not in doc["counts"]
        assert code == 1

    def test_text_marks_error(self, tmp_path, monkeypatch, capsys):
        code, out = self.run(tmp_path, monkeypatch, capsys, self.boom, fmt="text")
        assert code == 3
        assert "ERR   demo.boom" in out and "[RuntimeError: engine broke]" in out
        assert out.splitlines()[-1] == "total: 0 pass, 0 fail, 0 skip, 1 error"

    @pytest.mark.parametrize("exc", [ValueError("engine broke"), KeyError("x")],
                             ids=["ValueError", "KeyError"])
    def test_engine_error_in_a_verb_exits_three(self, tmp_path, monkeypatch, capsys,
                                                exc):
        """An engine exception outside any check is one engine-error line
        and exit 3: not a configuration error, and no traceback."""
        def broken(cfg, u, v):
            raise exc

        monkeypatch.setattr(cli, "reduced_star", broken)
        path = write_scene(tmp_path, HEIS_SCENE)
        assert main(["reduce", "--scene", path, "--left", "q", "--right", "p"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"engine error: {type(exc).__name__}: {exc}\n"

    @pytest.mark.parametrize("product", ["std", "weyl_g"])
    @pytest.mark.parametrize("where", ["option", "scene"])
    def test_product_without_group_coordinates_exits_two(self, tmp_path, capsys,
                                                         product, where):
        """A product that needs group coordinates, asked for on a
        momentum-level scene, is a configuration error."""
        if where == "option":
            path, extra = write_scene(tmp_path, AFF_SCENE), ["--product", product]
        else:
            path, extra = write_scene(tmp_path, {**AFF_SCENE, "star_product": product}), []
        assert main(["star", "--scene", path, *extra, "--left", "q", "--right", "p"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"configuration error: product {product!r} "
                                "needs group coordinates\n")


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

    def test_unary_minus_in_a_product_negates_the_factor(self, tmp_path, capsys):
        """Powers bind tighter than a unary minus inside a product, as they
        do for a leading one."""
        m = Scene(HEIS_SCENE).model()
        q, p = m.var("q"), m.var("p")
        assert parse_expr("q*-p^2", m) == -(q * p * p)
        assert parse_expr("2*-3^2", m) == m.constant(-18)
        assert parse_expr("(-p)^2", m) == p * p
        assert parse_expr("-p^2", m) == -(p * p)
        path = write_scene(tmp_path, HEIS_SCENE)
        assert main(["star", "--scene", path, "--left=2^-1", "--right", "p"]) == 2
        assert capsys.readouterr().err == ("configuration error: exponent must be a "
                                           "non-negative integer, got '-'\n")


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

    @pytest.mark.parametrize("argv,err", [
        (["star", "--order", "x"], "argument --order: invalid int value: 'x'"),
        (["star", "--left", "q", "--right", "p", "--product", "x"],
         "argument --product: invalid choice: 'x' (choose from "
         "'moyal', 'std', 'weyl_g', 'total')"),
        (["involve", "--input", "-(q)"], "argument --input: expected one argument"),
        (["verify", "--bogus"], "the following arguments are required: --scene"),
        (["verify", "--scene", "s.json", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ], ids=["order", "product", "dash_input", "missing", "unknown", "no_verb"])
    def test_option_error_is_one_line(self, tmp_path, capsys, argv, err):
        """An option argparse rejects gives one configuration-error line and
        exit 2, before any scene is read, and no usage block."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {err}\n"

    def test_help_is_unchanged_and_documents_dash_inputs(self, capsys):
        for argv in (["-h"], ["involve", "-h"], ["star", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert out.startswith("usage: redstar")
            assert "--input=-(q)" in out

    def test_dash_input_written_with_equals(self, tmp_path, capsys):
        path = write_scene(tmp_path, HEIS_SCENE)
        assert main(["involve", "--scene", path, "--input=-(q)"]) == 0
        negated = capsys.readouterr().out
        assert main(["involve", "--scene", path, "--input", "0-q"]) == 0
        spelled = capsys.readouterr().out
        assert negated.startswith("# involution of (-(q)) for weight gaussian\n")
        assert negated.splitlines()[1:] == spelled.splitlines()[1:]
        assert "lam^0: -1*q" in negated.splitlines()

    def test_unknown_suite_exit_two(self, tmp_path, capsys):
        path = write_scene(tmp_path, HEIS_SCENE)
        assert main(["verify", "--scene", path, "--suite", "brst"]) == 2

    def test_bad_scene_exit_two(self, tmp_path, capsys):
        bad = dict(HEIS_SCENE)
        bad["lie_algebra"] = {"dim": 2,
                              "structure_constants": [[1, 2, 1, "1"], [2, 1, 1, "1"]]}
        path = write_scene(tmp_path, bad)
        assert main(["verify", "--scene", path]) == 2

    @pytest.mark.parametrize("expr", ["q^", "1/0", "q!", "q.", "q#"],
                             ids=["dangling_power", "zero_denominator",
                                  "stray_bang", "stray_dot", "stray_hash"])
    def test_malformed_expression_exit_two(self, tmp_path, capsys, expr):
        path = write_scene(tmp_path, HEIS_SCENE)
        code = main(["star", "--scene", path, "--left", expr, "--right", "p"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("expr", ["(" * 3000 + "q" + ")" * 3000,
                                      "q*" + "-" * 5000 + "q",
                                      "(" * 1200 + "q" + ")" * 1200,
                                      "q*-(" * 51 + "q" + ")" * 51],
                             ids=["parens", "unary_minus", "parens_1200", "mixed"])
    @pytest.mark.parametrize("verb", ["star", "reduce", "involve"])
    def test_deep_nesting_exit_two(self, tmp_path, capsys, verb, expr):
        path = write_scene(tmp_path, HEIS_SCENE)
        args = {"star": [f"--left={expr}", "--right=p"],
                "reduce": [f"--left={expr}", "--right=p"],
                "involve": [f"--input={expr}"]}[verb]
        assert main([verb, "--scene", path] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("configuration error: expression nests parentheses "
                                "and unary minus deeper than 100 levels\n")

    def test_nesting_up_to_the_bound(self, tmp_path, capsys):
        path = write_scene(tmp_path, HEIS_SCENE)
        deep = "(" * 50 + "-(" * 25 + "q" + ")" * 75
        assert main(["star", "--scene", path, "--left", deep, "--right", "p"]) == 0
        assert main(["reduce", "--scene", path, "--left", deep, "--right", "p"]) == 0
        assert main(["involve", "--scene", path, "--input", "(" * 100 + "q" + ")" * 100]) == 0
        out = capsys.readouterr().out
        assert "lam^0: -1*q*p" in out and "C_0: -1*q*p" in out and "lam^0: q" in out

    def test_other_verbs_accept_order_zero(self, tmp_path, capsys):
        path = write_scene(tmp_path, {**HEIS_SCENE, "truncation_order": 0})
        assert main(["star", "--scene", path, "--left", "q", "--right", "p"]) == 0
        assert main(["reduce", "--scene", path, "--left", "q", "--right", "p"]) == 0
        assert main(["involve", "--scene", path, "--input", "q"]) == 0
        assert "lam^0: q*p" in capsys.readouterr().out

    def test_hermitian_draws_keep_the_std_control(self, tmp_path, capsys):
        """At seed 1 every random pair happens to be std-Hermitian; the fixed
        witness still shows std is not."""
        path = write_scene(tmp_path, {**HEIS_SCENE, "seed": 1})
        assert main(["verify", "--scene", path, "--suite", "star"]) == 0
        assert "ok    star.std_hermitian_fails" in capsys.readouterr().out

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

    def test_random_reduce_draws_the_suite_context_inputs(self, tmp_path, capsys):
        """Without --left and --right, reduce multiplies the first two base
        draws of the scene's suite context."""
        path = write_scene(tmp_path, HEIS_SCENE)
        assert main(["reduce", "--scene", path]) == 0
        out = capsys.readouterr().out
        scene = load_scene(path)
        ctx = scene.context(scene.model())
        u, v = ctx.rand_base(), ctx.rand_base()
        assert out.splitlines()[0] == f"# random inputs (seed {scene.seed}): u = {u!r}; v = {v!r}"

    @pytest.mark.parametrize("side", ["--left", "--right"])
    def test_reduce_needs_both_sides(self, tmp_path, capsys, side):
        path = write_scene(tmp_path, HEIS_SCENE)
        assert main(["reduce", "--scene", path, side, "q"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: reduce takes both")
        assert captured.err.count("\n") == 1

    def test_involve_verb(self, tmp_path, capsys):
        path = write_scene(tmp_path, HEIS_SCENE)
        assert main(["involve", "--scene", path, "--input", "q",
                     "--weight", "gaussian"]) == 0
        out = capsys.readouterr().out
        assert "lam^1: 2*i*p" in out

    @pytest.mark.parametrize("expr", ["g1", "J2", "J1*q + g1"],
                             ids=["group", "momentum", "mixed"])
    @pytest.mark.parametrize("verb", ["involve", "reduce"])
    def test_base_verbs_reject_fiber_coordinates(self, tmp_path, capsys, verb, expr):
        path = write_scene(tmp_path, HEIS_SCENE)
        args = (["--input", expr] if verb == "involve"
                else ["--left", expr, "--right", "p"])
        assert main([verb, "--scene", path] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"configuration error: {verb} takes "
                                "base-coordinate functions\n")


class TestClosedPipe:
    """A reader that closes the pipe ends a run with the documented exit
    code and nothing on stderr.  The read end is closed before the child
    starts, so its first write to stdout finds no reader."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "koszul", "--format", "json"],
        ["star", "--left", "q*q", "--right", "p"],
        ["reduce", "--left", "q", "--right", "p"],
        ["involve", "--input", "q*p"],
    ], ids=["verify", "star", "reduce", "involve"])
    def test_closed_pipe_has_no_traceback(self, tmp_path, argv):
        path = write_scene(tmp_path, HEIS_SCENE)
        env = dict(os.environ, PYTHONPATH=str(Path(redstar.__file__).parent.parent))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "redstar.cli", argv[0], "--scene", path, *argv[1:]],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
        finally:
            os.close(write_end)
        _, err = proc.communicate(timeout=120)
        assert "Traceback" not in err, err
        assert err == ""
        assert proc.returncode == EXIT_CLOSED_PIPE


LOADING_SCRIPT = """
import contextlib, io, json, sys
from redstar import cli

VERIFICATION = ("redstar.suites", "redstar.morita")
scene = sys.argv[1]
loaded = {}
for label, argv in (("involve", ["involve", "--input", "q*p"]),
                    ("star", ["star", "--left", "g1", "--right", "J1"]),
                    ("reduce", ["reduce", "--left", "q", "--right", "p"]),
                    ("random reduce", ["reduce"]),
                    ("verify", ["verify", "--suite", "star"])):
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main([argv[0], "--scene", scene, *argv[1:]])
    loaded[label] = [status, [m for m in VERIFICATION if m in sys.modules]]
print(json.dumps(loaded))
"""


def test_only_verify_loads_the_verification_layer():
    """In a fresh interpreter the computation verbs, a reduce of random
    inputs included, leave suites and morita unimported; verify imports
    both."""
    src = Path(redstar.__file__).parent.parent
    scene = src.parent / "scenes" / "heisenberg.json"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", LOADING_SCRIPT, str(scene)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "involve": [0, []], "star": [0, []], "reduce": [0, []], "random reduce": [0, []],
        "verify": [0, ["redstar.suites", "redstar.morita"]]}


def heisenberg_star(left, right, product, order):
    """`redstar star` on the heisenberg scene in a fresh interpreter, which
    must finish within 30 s."""
    src = Path(redstar.__file__).parent.parent
    scene = src.parent / "scenes" / "heisenberg.json"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "redstar.cli", "star", "--scene", str(scene), "--left",
         left, "--right", right, "--product", product, "--order", order],
        capture_output=True, text=True, env=env, timeout=30)


def test_high_power_of_one_letter_multiplies_in_time():
    """J1^13 star_std 1 at order 3 on heisenberg exits 0 within 30 s: the
    symmetrization of J1^13 reads one table per shorter power, not the
    13! permutations of the word."""
    proc = heisenberg_star("J1^13", "1", "std", "3")
    assert proc.returncode == 0, proc.stderr
    assert "lam^0: J1^13" in proc.stdout


@pytest.mark.parametrize("left,product,right,order", [
    ("J1^9", "std", "J2^9", "3"), ("J1^12", "weyl_g", "J2^12", "4"),
    ("J1^64", "std", "J2^64", "2")])
def test_mixed_powers_multiply_in_time(left, product, right, order):
    """Powers of two letters exit 0 within 30 s: the symmetrization table of
    J1^m J2^n is built from the tables of the words one letter shorter, not
    from its (m + n)! / (m! n!) arrangements (J1^9 with J2^9 did not finish
    in 100 s that way), and a sorted word's symbol from its prefix's by one
    right multiplication, up to level K, not by inverting the symmetrization
    tables of all its sub-words (J1^64 with J2^64 took over 40 s that way)."""
    proc = heisenberg_star(left, right, product, order)
    assert proc.returncode == 0, proc.stderr


def test_mixed_powers_keep_their_product():
    """J1^7 star_std J2^7 at order 3 prints the output recorded while the
    symmetrization tables were summed over every arrangement of a word."""
    proc = heisenberg_star("J1^7", "J2^7", "std", "3")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "e02469bf71d21ddd842dd51f78e6c4785c61b2ec39e6c1f76bdf07b9abc1c7e1")


def star_lines(capsys, scene, argv):
    """The lam^r lines that `redstar star` prints on a committed scene."""
    path = Path(redstar.__file__).parent.parent.parent / "scenes" / f"{scene}.json"
    assert main(["star", "--scene", str(path), *argv]) == 0, capsys.readouterr().err
    return [line for line in capsys.readouterr().out.splitlines() if line.startswith("lam^")]


@pytest.mark.parametrize("scene,product,left,right,order", [
    ("heisenberg", "std", "J1^5*J2^5", "1", 3),
    ("so3", "total", "J1^3*J2^3", "1", 1),
    ("heisenberg", "std", "J1^5*J2^5", "J2^3*J3+J1", 3),
    ("so3", "total", "J1^3*J2^3", "J3^2+J1", 1),
    ("sl2", "total", "(J1+J2+J3)^5", "J1*J2^2", 2),
    ("filiform4", "weyl_g", "J1^4*J2^4", "J3*J1^2", 3)])
def test_product_at_an_order_truncates_the_deeper_product(capsys, scene, product, left,
                                                          right, order):
    """The product at order K is the first K + 1 coefficients of the same
    product at order K + 4.  The symmetrization tables of these left words
    hold words more than K letters shorter, whose terms fall past the
    truncation (the first four cases raised IndexError once)."""
    def lines(k):
        return star_lines(capsys, scene, ["--left", left, "--right", right,
                                          "--product", product, "--order", str(k)])
    assert lines(order) == lines(order + 4)[: order + 1]


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
