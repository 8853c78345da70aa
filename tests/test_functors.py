import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from jwcat import functors
from jwcat.complexes import (LEFT_TAIL, RIGHT_TAIL, AlgMatrix, Complex,
                             ProjChainMap, ProjComplex, RegimeError, Summand,
                             TailSpec, gaussian_reduce, homology,
                             iso_in_homotopy_category,
                             maps_agree_under_identification, realize,
                             reduce_on_window)
from jwcat.functors import (CK_on_map, CK_on_object, P_on_module_map,
                            P_on_object, Setup, D_of_P1, koszul_D_on_map,
                            koszul_D_on_object, two_term_dual_model)
from jwcat.modules import (hom_space, injective2, left_multiplication_hom,
                           projective, simple)
from jwcat.quiver import ConstructionError
from jwcat.resolutions import projective_resolution


@pytest.fixture(scope="module")
def setup():
    return Setup.create()


def generator_maps(setup):
    """The five generator maps as degree-0 module maps."""
    return {name: left_multiplication_hom(src, tgt, z, name)
            for name, (z, src, tgt) in setup.generator_maps().items()}


class TestAtoms:
    """The standard modules and generator maps that the suite and the
    expression language share, in the order reports list them."""

    def test_standard_modules(self, setup):
        B = setup.B
        assert list(setup.standard_modules().items()) == [
            ("P(1)", projective(B, "1")), ("P(2)", projective(B, "2")),
            ("L(1)", simple(B, "1")), ("L(2)", simple(B, "2")),
            ("I(2)", injective2(B))]
        with pytest.raises(KeyError):
            setup.standard_module("L(3)")

    def test_generator_maps(self, setup):
        B = setup.B
        P1, P2 = projective(B, "1"), projective(B, "2")
        assert list(setup.generator_maps().items()) == [
            ("c", (B.path_element(("a", "b")), P2.shift(2), P2)),
            ("a", (B.arrow_element("a"), P1.shift(1), P2)),
            ("b", (B.arrow_element("b"), P2.shift(1), P1)),
            ("e(1)", (B.idempotent("1"), P1, P1)),
            ("e(2)", (B.idempotent("2"), P2, P2))]


SRC = Path(__file__).resolve().parents[1] / "src"
FLAT_LEFT_TAIL = """
from jwcat.complexes import LEFT_TAIL, ProjComplex, RegimeError, Summand, TailSpec
from jwcat.functors import Setup, koszul_D_on_object

setup = Setup.create()
x = ProjComplex(setup.B, {i: (Summand("2", 0),) for i in range(-3, 1)}, {},
                TailSpec(LEFT_TAIL, -2, 1, 0), "flat")
try:
    koszul_D_on_object(setup, x, out_window=(0, 8))
except RegimeError:
    print("RegimeError")
"""


def identity_homotopy(setup):
    """h: P(1) in degree 0 -> P(1) in degree -1 with h_0 = id, a map of
    degree -1."""
    x = ProjComplex.from_summand(setup.B, "1")
    return ProjChainMap(x, x.shift(0, 1), {0: AlgMatrix.identity(setup.B, x.term(0))},
                        "h", degree=-1)


def assert_same_complex(x, y):
    assert x.terms == y.terms
    assert x.diffs == y.diffs
    assert x.tail == y.tail


def vertex2_complex(B, terms, diffs):
    """A bounded complex of shifted P(2)s: terms {degree: shifts}, diffs
    {degree: rows of loop coefficients (ab) or, on equal shifts, e(2)}."""
    S = Summand
    t = {i: tuple(S("2", r) for r in shifts) for i, shifts in terms.items()}
    d = {}
    for i, rows in diffs.items():
        entries = [[(B.idempotent("2") if src.shift == tgt.shift
                     else B.path_element(("a", "b"))).scale(x)
                    for src, x in zip(t[i], row)] for tgt, row in zip(t[i + 1], rows)]
        d[i] = AlgMatrix(B, t[i + 1], t[i], entries)
    return ProjComplex(B, t, d)


VERTEX2_CASES = [
    ({0: (0,)}, {}),
    ({2: (3,)}, {}),
    ({0: (0, 2)}, {}),
    ({-1: (2,), 0: (0,)}, {-1: [[-3]]}),
    ({-2: (4,), -1: (2,), 0: (0,)}, {-2: [[1]], -1: [[1]]}),
    ({-1: (0,), 0: (0,)}, {-1: [[1]]}),
    ({-1: (2,), 0: (0, 2)}, {-1: [[1], [2]]}),
]


class TestProjector:
    def test_fixes_big_projective(self, setup):
        out = P_on_object(setup, projective(setup.B, "2"), depth=8)
        assert dict(out.terms) == {0: (Summand("2", 0),)}
        assert not out.diffs

    def test_periodic_model_on_other_projective(self, setup):
        out = P_on_object(setup, projective(setup.B, "1"), depth=8)
        c = setup.B.path_element(("a", "b"))
        for i in range(-8, 1):
            assert out.term(i) == (Summand("2", -2 * i + 1),)
        for i in range(-8, 0):
            assert out.diff(i).entries[0][0] == c
        assert out.tail is not None and out.tail.side == "left"

    def test_zero(self, setup):
        assert P_on_object(setup, ProjComplex.zero_complex(setup.B), depth=16).is_zero()

    def test_identity_map(self, setup):
        e2 = setup.B.idempotent("2")
        P2 = projective(setup.B, "2")
        f = P_on_module_map(setup, left_multiplication_hom(P2, P2, e2), depth=6)
        assert f.component(0).entries[0][0] == e2

    def test_on_loop_map(self, setup):
        B = setup.B
        c = B.path_element(("a", "b"))
        P2 = projective(B, "2")
        f = P_on_module_map(
            setup, left_multiplication_hom(P2.shift(2), P2, c), depth=6)
        # the projector fixes shifted big projectives, and the image of the
        # loop map is the loop map again (the shift-by-two inclusion)
        assert f.source.terms == {0: (Summand("2", 2),)}
        assert f.target.terms == {0: (Summand("2", 0),)}
        assert f.component(0).entries[0][0] == c

    def test_on_inclusion_map(self, setup):
        B = setup.B
        f = P_on_module_map(
            setup,
            left_multiplication_hom(projective(B, "2").shift(1),
                                    projective(B, "1"), B.arrow_element("b")),
            depth=8)
        # hits the degree-zero term of the periodic model by the identity
        assert f.source.terms == {0: (Summand("2", 1),)}
        assert f.target.term(0) == (Summand("2", 1),)
        assert f.component(0).entries[0][0] == B.idempotent("2")

    def test_functoriality_composition(self, setup):
        B = setup.B
        P1, P2 = projective(B, "1"), projective(B, "2")
        fa = P_on_module_map(
            setup, left_multiplication_hom(P1.shift(1), P2, B.arrow_element("a")),
            depth=8)
        fb = P_on_module_map(
            setup,
            left_multiplication_hom(P2.shift(2), P1.shift(1),
                                    B.arrow_element("b")), depth=8)
        fc = P_on_module_map(
            setup, left_multiplication_hom(P2.shift(2), P2,
                                           B.path_element(("a", "b"))), depth=8)
        comp = fa.compose(fb)
        assert comp.component(0).entries == fc.component(0).entries

    @pytest.mark.parametrize("terms, diffs", VERTEX2_CASES)
    def test_vertex2_shortcut_equals_general_path(self, setup, terms, diffs):
        # a formal complex of P(2)'s is returned as it is, its module-level
        # realization goes through the section functor and resolve_complex
        x = vertex2_complex(setup.B, terms, diffs)
        assert_same_complex(P_on_object(setup, x, depth=16),
                            P_on_object(setup, realize(x), depth=16))

    @pytest.mark.parametrize("terms, diffs", VERTEX2_CASES)
    def test_vertex2_complex_is_returned_as_it_is(self, setup, terms, diffs):
        x = vertex2_complex(setup.B, terms, diffs)
        out = P_on_object(setup, x, depth=16)
        assert_same_complex(out, x)
        assert out.name == f"ℙ({x.name})"

    def test_left_tailed_and_zero_vertex2_complexes_are_returned_as_they_are(self, setup):
        tailed = P_on_object(setup, simple(setup.B, "2"), depth=12)
        assert tailed.tail.side == LEFT_TAIL
        for x in (tailed, ProjComplex.zero_complex(setup.B)):
            out = P_on_object(setup, x, depth=16)
            assert_same_complex(out, x)
            assert out.name == f"ℙ({x.name})"

    def test_vertex2_complex_is_validated(self, setup):
        B = setup.B
        e2 = B.idempotent("2")
        t = (Summand("2", 0),)
        broken = ProjComplex(B, {-1: t, 0: t, 1: t},
                             {-1: AlgMatrix(B, t, t, [[e2]]),
                              0: AlgMatrix(B, t, t, [[e2]])}, validate=False)
        with pytest.raises(ConstructionError, match="d∘d != 0 at degree -1"):
            P_on_object(setup, broken, depth=16)
        # a tail whose stored pattern breaks: d∘d still vanishes
        tailed = P_on_object(setup, simple(B, "2"), depth=12)
        lo = tailed.window()[0]
        diffs = {**tailed.diffs, lo: tailed.diffs[lo].scale(2)}
        seam = ProjComplex(B, tailed.terms, diffs, tailed.tail, validate=False)
        with pytest.raises(ConstructionError, match="tail diff pattern broken"):
            P_on_object(setup, seam, depth=16)


class TestDuality:
    def test_simple_images(self, setup):
        DL1 = koszul_D_on_object(setup, simple(setup.B, "1"))
        assert dict(DL1.terms) == {0: (Summand("2", 0),)} and not DL1.diffs
        DL2 = koszul_D_on_object(setup, simple(setup.B, "2"))
        assert dict(DL2.terms) == {0: (Summand("1", 0),)} and not DL2.diffs

    def test_injective_image_is_simple_model(self, setup):
        DI2 = koszul_D_on_object(setup, injective2(setup.B))
        red = gaussian_reduce(DI2).reduced
        model = projective_resolution(simple(setup.B, "1"), 4)
        v = iso_in_homotopy_category(red, model, window=(-3, 1))
        assert v.value == "true"
        assert homology(realize(DI2), 0) == simple(setup.B, "1").graded_dims_by_vertex()

    def test_two_term_model(self, setup):
        rep = D_of_P1(setup)
        model = two_term_dual_model(setup)
        assert rep.reduced.terms == model.terms
        assert rep.reduced.diffs[0].entries[0][0] == setup.B.arrow_element("b")

    def test_big_projective_image(self, setup):
        DP2 = koszul_D_on_object(setup, projective(setup.B, "2"))
        model = projective_resolution(simple(setup.B, "1"), 4).shift(-2, -2)
        v = iso_in_homotopy_category(DP2, model, window=(-1, 3))
        assert v.value == "true"

    def test_internal_shift_law(self, setup):
        M = simple(setup.B, "1")
        DM = koszul_D_on_object(setup, M)
        for r in range(-3, 4):
            lhs = koszul_D_on_object(setup, M.shift(r))
            rhs = DM.shift(-r, -r)
            v = iso_in_homotopy_category(lhs, rhs, window=(-4, 4))
            assert v.value == "true", f"r={r}"

    def test_homological_shift_law(self, setup):
        M = injective2(setup.B)
        DM = koszul_D_on_object(setup, M)
        for r in range(-3, 4):
            lhs = koszul_D_on_object(setup, Complex.from_module(M, degree=-r))
            rhs = DM.shift(0, r)
            v = iso_in_homotopy_category(lhs, rhs, window=(-6, 6))
            assert v.value == "true", f"r={r}"

    def test_on_loop_map_ladder(self, setup):
        B = setup.B
        P2 = projective(B, "2")
        f0 = left_multiplication_hom(P2.shift(2), P2, B.path_element(("a", "b")), "c")
        Dc = koszul_D_on_map(setup, f0, out_window=(-2, 5))
        nonzero = {i: m for i, m in Dc.maps.items() if not m.is_zero()}
        assert list(nonzero) == [2]
        assert nonzero[2].entries[0][0] == B.idempotent("1")

    def test_functoriality_on_maps(self, setup):
        # the image of a composite is the composite of the images
        B = setup.B
        P1, P2 = projective(B, "1"), projective(B, "2")
        w = (-2, 6)

        def dual_of(z, src, tgt, name):
            return koszul_D_on_map(setup, left_multiplication_hom(src, tgt, z, name),
                                   out_window=w)

        Dc = dual_of(B.path_element(("a", "b")), P2.shift(2), P2, "c")
        Da = dual_of(B.arrow_element("a"), P1.shift(1), P2, "a")
        Db = dual_of(B.arrow_element("b"), P2.shift(2), P1.shift(1), "b")
        comp = Da.compose(Db)
        for i in set(Dc.maps) | set(comp.maps):
            assert Dc.component(i).entries == comp.component(i).entries

    def test_left_tail_extended_past_the_stored_window(self, setup):
        # a short resolution is extended by its tail until the window is
        # covered, so it gives what a long one gives
        P1 = projective(setup.B, "1")
        for w in ((0, 8), (0, 11)):
            short = koszul_D_on_object(setup, P_on_object(setup, P1, depth=3),
                                       out_window=w)
            long = koszul_D_on_object(setup, P_on_object(setup, P1, depth=20),
                                      out_window=w)
            assert_same_complex(short, long)

    def test_map_source_and_target_are_the_object_images(self, setup):
        w = (0, 12)
        maps = dict(generator_maps(setup))
        for name, f0 in generator_maps(setup).items():
            maps[f"P({name})"] = P_on_module_map(setup, f0, depth=18)
        for name, f in maps.items():
            Df = koszul_D_on_map(setup, f, out_window=w)
            assert_same_complex(Df.source, koszul_D_on_object(setup, f.source, w))
            assert_same_complex(Df.target, koszul_D_on_object(setup, f.target, w))

    def test_a_left_tailed_input_needs_a_window(self, setup):
        # D of a bounded input has every degree; of a left-tailed one, only
        # the degrees of a window
        x = P_on_object(setup, projective(setup.B, "1"), depth=3)
        with pytest.raises(RegimeError, match="needs an output window"):
            koszul_D_on_object(setup, x)

    def test_map_extended_past_its_stored_degrees(self, setup):
        # a short lift is extended by the tail of its mapping cone, as its
        # source and target are, so it gives what a long one gives
        f0 = generator_maps(setup)["e(1)"]
        w = (0, 12)
        long = koszul_D_on_map(setup, P_on_module_map(setup, f0, depth=18), w)
        assert long.source.window() == long.target.window() == (1, 12)
        for depth in (3, 4, 5, 8):
            short = koszul_D_on_map(setup, P_on_module_map(setup, f0, depth=depth), w)
            assert_same_complex(short.source, long.source)
            assert_same_complex(short.target, long.target)
            assert short.maps == long.maps, depth

    def test_map_of_nonzero_degree_is_rejected(self, setup):
        B = setup.B
        (f,) = hom_space(projective(B, "1"), projective(B, "2"), 1)
        with pytest.raises(ConstructionError,
                           match="shift the source so the map has degree 0"):
            koszul_D_on_map(setup, f, out_window=(0, 8))

    def test_a_homotopy_is_rejected(self, setup):
        """A ``ProjChainMap`` of degree -1 is a homotopy, not a chain map:
        D refuses it before it builds anything."""
        with mock.patch.object(functors, "_koszul_D",
                               side_effect=AssertionError("built")):
            with pytest.raises(ConstructionError, match="h has degree -1"):
                koszul_D_on_map(setup, identity_homotopy(setup), out_window=(0, 6))

    def test_a_right_tailed_input_is_a_regime_error(self, setup):
        # CK(P(1)) has a right tail, and so do both sides of its identity
        x = CK_on_object(setup, ProjComplex.from_summand(setup.B, "1"), (0, 8))
        assert x.tail.side == RIGHT_TAIL
        with pytest.raises(RegimeError, match="duality input must be bounded above"):
            koszul_D_on_object(setup, x, (0, 8))
        with pytest.raises(RegimeError, match="duality input must be bounded above"):
            koszul_D_on_map(setup, ProjChainMap.identity(x), (0, 8))

    def test_a_map_between_tails_that_do_not_agree_is_a_regime_error(self, setup):
        """P(2)<-2r> and P(2)<-3r> in each degree r <= 0 repeat with period 1
        and shifts 2 and 3, so the mapping cone D reads has no tail."""
        def climbing(shift):
            terms = {r: (Summand("2", -shift * r),) for r in range(-8, 1)}
            return ProjComplex(setup.B, terms, {}, TailSpec(LEFT_TAIL, -6, 1, shift),
                               f"climb{shift}")
        zero = ProjChainMap(climbing(2), climbing(3), {}, "z")
        with pytest.raises(RegimeError, match="tails of the source and target of z "
                                              "do not agree"):
            koszul_D_on_map(setup, zero, (0, 12))

    def test_a_left_tail_that_does_not_climb_is_a_regime_error(self):
        """P(2) in every degree <= 0, with zero differentials: each period
        outward lands in the same degrees of D, so those degrees would read
        infinitely many terms and D's tail has no period. It is refused
        before D reads the input; the child process keeps a read that does
        not end from hanging the test."""
        done = subprocess.run([sys.executable, "-B", "-c", FLAT_LEFT_TAIL],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["RegimeError"]


class TestTopologicalProjector:
    def test_kills_big_projective(self, setup):
        ck = CK_on_object(setup, ProjComplex.from_summand(setup.B, "2"),
                          out_window=(0, 10))
        red = reduce_on_window(ck, (0, 6))
        assert red.reduced.is_zero()

    def test_displayed_complex_on_other(self, setup):
        B = setup.B
        ck = CK_on_object(setup, ProjComplex.from_summand(B, "1"),
                          out_window=(0, 10))
        c = B.path_element(("a", "b"))
        assert ck.term(0) == (Summand("1", 0),)
        assert ck.diff(0).entries == [[B.arrow_element("a")]]
        for i in range(1, 9):
            assert ck.term(i) == (Summand("2", -2 * i + 1),)
            sign = -1 if i % 2 == 1 else 1
            assert ck.diff(i).entries == [[c.scale(sign)]]

    def test_zero(self, setup):
        assert CK_on_object(setup, ProjComplex.zero_complex(setup.B),
                            out_window=(0, 8)).is_zero()

    def test_identity_map(self, setup):
        x = ProjComplex.from_summand(setup.B, "1", 0)
        f = CK_on_map(setup, ProjChainMap.identity(x), out_window=(0, 8))
        for i, m in f.maps.items():
            for k in range(len(m.rows)):
                assert m.entries[k][k].scalar_part() == 1

    def test_a_homotopy_is_rejected(self, setup):
        with mock.patch.object(functors, "_ck_total",
                               side_effect=AssertionError("built")):
            with pytest.raises(ConstructionError, match="h has degree -1"):
                CK_on_map(setup, identity_homotopy(setup), out_window=(0, 6))

    def test_map_source_and_target_are_the_object_images(self, setup):
        w = (0, 12)
        maps = {}
        for name, f0 in generator_maps(setup).items():
            maps[f"D({name})"] = koszul_D_on_map(setup, f0, out_window=w)
        B = setup.B
        x = ProjComplex.from_summand(B, "2", 2)
        y = ProjComplex.from_summand(B, "2", 0)
        maps["c"] = ProjChainMap(x, y, {0: AlgMatrix(B, y.term(0), x.term(0),
                                                     [[B.path_element(("a", "b"))]])})
        for name, f in maps.items():
            CKf = CK_on_map(setup, f, out_window=w)
            assert_same_complex(CKf.source, CK_on_object(setup, f.source, w))
            assert_same_complex(CKf.target, CK_on_object(setup, f.target, w))


class TestComposites:
    def test_objects_agree(self, setup):
        B = setup.B
        N = 10
        for v in ("1", "2"):
            dp = koszul_D_on_object(
                setup, P_on_object(setup, projective(B, v), depth=N + 8),
                out_window=(0, N))
            ckd = CK_on_object(setup, koszul_D_on_object(setup, projective(B, v)),
                               out_window=(0, N))
            verdict = iso_in_homotopy_category(dp, ckd, window=(0, N))
            assert verdict.value == "true", v

    def test_maps_agree(self, setup):
        B = setup.B
        N = 10
        w = (0, N)
        cmp_w = (0, N - 2)
        P1, P2 = projective(B, "1"), projective(B, "2")
        cases = {
            "c": (B.path_element(("a", "b")), P2.shift(2), P2),
            "a": (B.arrow_element("a"), P1.shift(1), P2),
            "b": (B.arrow_element("b"), P2.shift(1), P1),
        }
        for name, (z, src, tgt) in cases.items():
            f0 = left_multiplication_hom(src, tgt, z, name)
            DPz = koszul_D_on_map(setup, P_on_module_map(setup, f0, depth=N + 6),
                                  out_window=w)
            CKDz = CK_on_map(setup, koszul_D_on_map(setup, f0, out_window=w),
                             out_window=w)
            red = [reduce_on_window(c, cmp_w) for c in
                   (DPz.source, DPz.target, CKDz.source, CKDz.target)]
            lhs = red[1].to_reduced.compose(DPz).compose(red[0].from_reduced)
            rhs = red[3].to_reduced.compose(CKDz).compose(red[2].from_reduced)
            verdict = maps_agree_under_identification(lhs, rhs, cmp_w)
            assert verdict.value == "true", f"{name}: {verdict.reason}"
