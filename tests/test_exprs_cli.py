import json
from unittest import mock

import pytest

from jwcat import exprs
from jwcat.cli import main
from jwcat.exprs import ParseError, evaluate, parse, render_value
from jwcat.functors import Setup


@pytest.fixture(scope="module")
def setup():
    return Setup.create()


class TestParser:
    def test_objects(self):
        n = parse("P(1)")
        assert n.kind == "obj" and n.name == "P(1)"

    def test_nested_functors(self):
        n = parse("CK(D(P(2)))")
        assert n.kind == "apply" and n.name == "CK"
        assert n.child.name == "D" and n.child.child.name == "P(2)"

    def test_functor_vs_object_ambiguity(self):
        n = parse("P(P(1))")
        assert n.kind == "apply" and n.name == "P"
        assert n.child.kind == "obj" and n.child.name == "P(1)"

    def test_shift_suffixes(self):
        n = parse("P(2)<1>[2]")
        assert n.shifts == (("<", 1), ("[", 2))
        n = parse("D(P(1))<-3>")
        assert n.shifts == (("<", -3),)

    def test_morphism_atoms(self):
        n = parse("D(P(c))")
        assert n.child.child.kind == "map" and n.child.child.name == "c"

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("P(1) + P(2)")
        assert "position" in str(exc.value)
        with pytest.raises(ParseError):
            parse("Q(1)")
        with pytest.raises(ParseError):
            parse("D(P(1)")


class TestEvaluate:
    def test_object_value(self, setup):
        val = evaluate(setup, parse("D(P(1))"), (0, 8), 17)
        assert val.complex.window() == (0, 1)
        text = render_value(val)
        assert "P(2)" in text and "P(1)<-1>" in text

    def test_shifted_object(self, setup):
        val = evaluate(setup, parse("P(2)<1>[2]"), (0, 8), 17)
        assert val.complex.window() == (-2, -2)
        assert val.complex.term(-2)[0].shift == 1

    def test_projector_expression(self, setup):
        val = evaluate(setup, parse("P(P(1))"), (0, 6), 13)
        assert val.complex.tail is not None
        assert "q" in val.kclass.render()

    def test_morphism_expression(self, setup):
        val = evaluate(setup, parse("D(P(c))"), (0, 8), 17)
        text = render_value(val)
        assert "component" in text

    def test_shifts_on_a_map_are_rejected(self, setup):
        for expr in ("D(c)<1>", "P(a)[1]", "CK(D(b))<-1>"):
            with pytest.raises(ParseError) as exc:
                evaluate(setup, parse(expr), (0, 8), 17)
            assert str(exc.value) == ("shift suffixes apply to objects, not "
                                      "morphisms (at position 0)")

    def test_an_order_with_no_validity_window_renders_without_a_class(self, setup):
        val = evaluate(setup, parse("P(1)"), (0, 8), -1)
        assert val.kclass is None
        assert render_value(val) == "complex: [0] P(1)"

    @pytest.mark.parametrize("expr, rendered", [
        ("D(L(1))", "complex: [0] P(2)"),
        ("L(1)", "complex: [-2] P(1)<2>  →  [-1] P(2)<1>  →  [0] P(1)"),
    ])
    def test_a_functor_value_and_a_module_alike_render_without_a_class(
            self, setup, expr, rendered):
        # D(L(1)) is decategorified by euler_class, the module L(1) by
        # class_of_module; an order with no window leaves both without one
        val = evaluate(setup, parse(expr), (0, 8), -1)
        assert val.kclass is None
        assert render_value(val) == rendered

    def test_any_other_class_error_propagates(self, setup):
        with mock.patch.object(exprs, "euler_class",
                               side_effect=ZeroDivisionError("not a window")):
            with pytest.raises(ZeroDivisionError, match="not a window"):
                evaluate(setup, parse("P(1)"), (0, 8), 17)


class TestCli:
    def test_eval_exit_zero(self, capsys):
        code = main(["eval", "D(P(1))", "--window", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "P(1)<-1>" in out

    def test_eval_of_a_module_at_an_order_with_no_window_exits_zero(self, capsys):
        assert main(["eval", "L(1)", "--order", "-1"]) == 0
        assert "class:" not in capsys.readouterr().out

    def test_eval_on_an_empty_window_is_a_usage_error(self, capsys):
        assert main(["eval", "P(1)", "--window", "-2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "window must be at least 0" in captured.err

    def test_eval_on_a_window_too_small_exits_inconclusive(self, capsys):
        assert main(["eval", "CK(CK(P(1)))", "--window", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("jwcat: WindowTooSmall: projector tensor output")

    @pytest.mark.parametrize("expr, window, name", [
        ("P(P(1))[3]", "2", "ℙ(P(1))<0>[3]"),
        ("D(P(P(1)))[-13]", "12", "𝔻(ℙ(P(1)))<0>[-13]")])
    def test_a_tailed_value_shifted_out_of_the_window_is_inconclusive(
            self, capsys, expr, window, name):
        """A tail shifted past the window leaves its reduction no degree to
        keep; that empty reduction is not the value's minimal model."""
        assert main(["eval", expr, "--window", window]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"jwcat: WindowTooSmall: {name} has no stored degree "
                                f"in (-{window}, {window}); enlarge the window\n")

    def test_eval_engine_error_exits_one(self, capsys):
        assert main(["eval", "CK(P(P(1)))", "--window", "8"]) == 1
        assert "RegimeError" in capsys.readouterr().err

    def test_parse_error_is_usage_error(self, capsys):
        code = main(["eval", "P(1) %% nothing"])
        assert code == 3

    def test_bad_subcommand_usage_error(self):
        assert main(["frobnicate"]) == 3

    def test_window_too_small_rejected(self):
        assert main(["verify", "--window", "2"]) == 3

    def test_an_order_below_one_is_a_usage_error(self, capsys):
        # the reference [2]^-1 starts at q^1: at order 0 its window is empty
        for order in ("0", "-1"):
            assert main(["verify", "--order", order]) == 3
            assert "order must be at least 1" in capsys.readouterr().err

    def test_show_lists_and_loads(self, capsys):
        assert main(["show", "list"]) == 0
        names = capsys.readouterr().out.split()
        assert "algebra_two_vertex" in names
        assert main(["show", "algebra_two_vertex"]) == 0
        out = capsys.readouterr().out
        assert "relations: ba" in out

    def test_show_missing_fixture(self):
        assert main(["show", "no_such_thing"]) == 3

    def test_verify_selection_and_json(self, capsys):
        code = main(["verify", "--window", "6", "--only", "algebra-sanity",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "jwcat-report-v1"
        assert [c["name"] for c in payload["checks"]] == ["algebra-sanity"]

    def test_verify_unknown_check_is_a_usage_error(self, capsys):
        assert main(["verify", "--window", "6", "--only", "algebra-sanity,nosuch"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown check nosuch" in captured.err
        assert "algebra-sanity, translation-bimodule" in captured.err

    def test_verify_text_report(self, capsys):
        code = main(["verify", "--window", "6", "--only", "algebra-sanity"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[    PASS    ] algebra-sanity")
        assert lines[-1] == ("1 passed, 0 failed, 0 inconclusive "
                             "(window N=6, series order 13)")

    def test_json_report_deterministic(self):
        from jwcat.verify import VerificationConfig, run_suite
        cfg = VerificationConfig(window=6, only=("algebra-sanity", "module-duals"))
        a = run_suite(cfg).to_json(with_timings=False)
        b = run_suite(cfg).to_json(with_timings=False)
        assert a == b

    def test_env_window(self, monkeypatch, capsys):
        monkeypatch.setenv("JWCAT_WINDOW", "6")
        code = main(["verify", "--only", "algebra-sanity", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["window"] == 6

    def test_malformed_env_window_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("JWCAT_WINDOW", "abc")
        assert main(["verify", "--only", "algebra-sanity"]) == 3
        assert "invalid int value: 'abc'" in capsys.readouterr().err
        assert main(["eval", "P(1)"]) == 3

    def test_malformed_env_window_is_read_only_by_verify_and_eval(self, monkeypatch):
        monkeypatch.setenv("JWCAT_WINDOW", "abc")
        assert main(["show", "list"]) == 0

    def test_window_option_overrides_a_malformed_env_window(self, monkeypatch, capsys):
        monkeypatch.setenv("JWCAT_WINDOW", "abc")
        code = main(["verify", "--window", "8", "--only", "algebra-sanity",
                     "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["config"]["window"] == 8


class TestFixtureRoundTrip:
    def test_bit_exact_roundtrip(self, tmp_path):
        from jwcat.fixtures import load_fixture, write_bundled_fixtures
        write_bundled_fixtures(tmp_path)
        for f in sorted(tmp_path.iterdir()):
            kind, obj = load_fixture(str(f))
            assert kind in ("algebra", "module", "complex")

    def test_a_complex_over_the_dual_algebra_round_trips(self, tmp_path, capsys):
        """Entries are read back as basis-path words, so a starred arrow such
        as a* is one arrow, not the arrow a followed by a character *."""
        from jwcat.complexes import AlgMatrix, ProjComplex, Summand
        from jwcat.fixtures import load_fixture
        from jwcat.quiver import Path, build_B, koszul_dual
        dual, _ = koszul_dual(build_B())
        terms = {0: (Summand("2", 1), Summand("1", 2)), 1: (Summand("1", 0),)}
        d0 = AlgMatrix(dual, terms[1], terms[0],
                       [[dual.path_element(("a*",)).scale(-2),
                         dual.path_element(("a*", "b*"))]])
        x = ProjComplex(dual, terms, {0: d0}, None, "X")
        assert x.to_json()["diffs"] == {"0": [["-2·a*", "a*b*"]]}
        path = tmp_path / "dual.json"
        path.write_text(json.dumps({"kind": "complex", "payload": x.to_json()}))
        kind, y = load_fixture(str(path))
        assert kind == "complex" and y.algebra.name == "B!"
        assert y.diffs[0].entries[0][0].terms == {Path(("a*",)): -2}
        assert y.to_json() == x.to_json()
        assert main(["show", str(path)]) == 0
        assert "[0] P(2)<1> ⊕ P(1)<2>  →  [1] P(1)" in capsys.readouterr().out

    def test_unknown_fixture_kind_rejected(self, tmp_path):
        from jwcat.fixtures import load_fixture
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"kind": "bimodule", "payload": {}}))
        with pytest.raises(ValueError, match="unknown fixture kind 'bimodule'"):
            load_fixture(str(path))

    @pytest.mark.parametrize("tail", [{"period": 0, "shift": 0}, {"side": "up"}])
    def test_a_malformed_tail_is_rejected(self, tmp_path, capsys, tail):
        """A tail of period 0 would extend nothing, and a side other than
        left or right would be drawn on one side and extended on the other."""
        from jwcat.fixtures import _data_dir, load_fixture
        blob = json.loads((_data_dir() / "complex_projector_p1.json").read_text())
        blob["payload"]["tail"].update(tail)
        path = tmp_path / "bad_tail.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="a tail runs left or right"):
            load_fixture(str(path))
        assert main(["show", str(path)]) == 1
        assert "invalid fixture" in capsys.readouterr().err

    def test_corrupted_fixture_rejected(self, tmp_path):
        import json as _json
        from jwcat.fixtures import load_fixture
        blob = {"kind": "algebra",
                "payload": {"name": "B",
                            "quiver": {"vertices": ["1", "2"],
                                       "arrows": [{"name": "a", "source": "1",
                                                   "target": "2", "degree": 1},
                                                  {"name": "b", "source": "2",
                                                   "target": "1", "degree": 1}]},
                            "relations": [["b", "a"]], "d_max": 4,
                            "assertions": {"graded_dimensions": [9, 9, 9]}}}
        p = tmp_path / "bad.json"
        p.write_text(_json.dumps(blob))
        with pytest.raises(Exception):
            load_fixture(str(p))
