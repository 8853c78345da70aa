import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jwcat.complexes import Summand, realize, homology
from jwcat.modules import (GradedModule, apply_iota, apply_pi,
                           apply_pi_hom, direct_sum, find_module_iso,
                           hom_space, injective2, left_multiplication_hom,
                           projective, simple, tensor_with_bimodule)
from jwcat.quiver import build_B, build_C, build_theta
from jwcat.resolutions import projective_resolution, resolve_complex


@pytest.fixture(scope="module")
def B():
    return build_B()


@pytest.fixture(scope="module")
def C():
    return build_C()


@pytest.fixture(scope="module")
def mods(B):
    return {
        "P(1)": projective(B, "1"), "P(2)": projective(B, "2"),
        "L(1)": simple(B, "1"), "L(2)": simple(B, "2"), "I(2)": injective2(B),
    }


class TestStandardModules:
    def test_graded_dimensions(self, mods):
        assert mods["P(1)"].graded_dims_by_vertex() == {(0, "1"): 1, (1, "2"): 1}
        assert mods["P(2)"].graded_dims_by_vertex() == \
            {(0, "2"): 1, (1, "1"): 1, (2, "2"): 1}
        assert mods["L(1)"].graded_dims_by_vertex() == {(0, "1"): 1}
        assert mods["I(2)"].graded_dims_by_vertex() == \
            {(-2, "2"): 1, (-1, "1"): 1, (0, "2"): 1}

    def test_shift_laws(self, mods):
        m = mods["P(2)"]
        assert m.shift(0) == m
        assert m.shift(3).shift(-3) == m
        shifted = simple(m.algebra, "1").shift(2)
        assert shifted.graded_dims_by_vertex() == {(2, "1"): 1}

    def test_relations_act_as_zero(self, B, mods):
        # exhaustive generator words of length 2 on every standard module:
        # m·(r1 r2) applies r1 first
        for M in mods.values():
            for (r1, r2) in B.relations:
                d1 = B.quiver.arrow(r1).degree
                for d in M.degrees():
                    comp = M.act_arrow(r2, d + d1) * M.act_arrow(r1, d)
                    assert comp.is_zero()
            M._validate()

    def test_injective_shift_relation(self, B, mods):
        assert find_module_iso(mods["P(2)"], mods["I(2)"].shift(2)) is not None


    def test_one_zero_module_per_algebra(self, B, C, mods):
        z = GradedModule.zero_module(B)
        assert z.is_zero() and z.name == "0"
        assert GradedModule.zero_module(B) is z and direct_sum([], B) is z
        assert GradedModule.zero_module(C) is not z
        assert z.shift(0) is z
        X = realize(projective_resolution(mods["L(1)"], 4))
        assert X.term(max(X.terms) + 1) is z and X.diff(max(X.terms)).target is z


class TestHomSpaces:
    def test_endomorphisms_of_big_projective(self, mods):
        degrees = sorted(h.degree for h in hom_space(mods["P(2)"], mods["P(2)"]))
        assert degrees == [0, 2]

    def test_between_projectives(self, mods):
        assert sorted(h.degree for h in hom_space(mods["P(1)"], mods["P(2)"])) == [1]
        assert sorted(h.degree for h in hom_space(mods["P(2)"], mods["P(1)"])) == [1]
        assert sorted(h.degree for h in hom_space(mods["P(1)"], mods["P(1)"])) == [0]

    def test_no_maps_between_distinct_simples(self, mods):
        assert hom_space(mods["L(1)"], mods["L(2)"]) == []

    def test_yoneda_dimensions(self, mods):
        # dim Hom(P(v), M) in degree j equals dim of the v weight space in
        # degree j, for every standard module
        for M in mods.values():
            for v in ("1", "2"):
                homs = hom_space(mods[f"P({v})"], M)
                got = {}
                for h in homs:
                    got[h.degree] = got.get(h.degree, 0) + 1
                want = {}
                for (d, lab), k in M.graded_dims_by_vertex().items():
                    if lab == v:
                        want[d] = want.get(d, 0) + k
                assert got == want

    def test_left_multiplication_ranks(self, B, mods):
        a = left_multiplication_hom(mods["P(1)"], mods["P(2)"], B.arrow_element("a"))
        assert a.degree == 1 and a.rank() == 2      # injective
        b = left_multiplication_hom(mods["P(2)"], mods["P(1)"], B.arrow_element("b"))
        assert b.degree == 1 and b.rank() == 1
        c = left_multiplication_hom(mods["P(2)"].shift(2), mods["P(2)"],
                                    B.path_element(("a", "b")))
        assert c.degree == 0 and c.rank() == 1


class TestTensor:
    def test_translation_of_projectives(self, B, mods):
        theta = build_theta(B)
        tP1 = tensor_with_bimodule(mods["P(1)"], theta)
        assert find_module_iso(tP1, mods["P(2)"]) is not None
        tP2 = tensor_with_bimodule(mods["P(2)"], theta)
        want = direct_sum([mods["P(2)"].shift(-1), mods["P(2)"].shift(1)])
        assert find_module_iso(tP2, want) is not None

    def test_zero_module(self, B):
        theta = build_theta(B)
        z = GradedModule.zero_module(B)
        assert tensor_with_bimodule(z, theta).is_zero()

    def test_commutes_with_shift(self, B, mods):
        theta = build_theta(B)
        for r in (-2, 1, 3):
            lhs = tensor_with_bimodule(mods["P(1)"].shift(r), theta)
            rhs = tensor_with_bimodule(mods["P(1)"], theta).shift(r)
            assert find_module_iso(lhs, rhs) is not None


class TestSectionAndInclusion:
    def test_section_values(self, B, C, mods):
        piP2 = apply_pi(mods["P(2)"], C)
        assert piP2.graded_dims_by_vertex() == {(-1, "*"): 1, (1, "*"): 1}
        assert piP2.act_arrow("x", -1).rank() == 1
        piP1 = apply_pi(mods["P(1)"], C)
        assert piP1.graded_dims_by_vertex() == {(0, "*"): 1}
        assert piP1.action.get("x", {}) == {}
        assert apply_pi(mods["L(1)"], C).is_zero()

    def test_section_exactness_on_extension(self, B, C, mods):
        incl = hom_space(mods["L(2)"].shift(1), mods["P(1)"], degree=0)[0]
        proj = hom_space(mods["P(1)"], mods["L(1)"], degree=0)[0]
        pi_incl = apply_pi_hom(incl, C)
        pi_proj = apply_pi_hom(proj, C)
        mid = apply_pi(mods["P(1)"], C)
        assert pi_incl.rank() == apply_pi(mods["L(2)"].shift(1), C).total_dim()
        assert mid.total_dim() - pi_proj.rank() == pi_incl.rank()

    def test_inclusion_values(self, B, C, mods):
        Cfree = projective(C, "*")
        assert find_module_iso(apply_iota(Cfree, B), mods["P(2)"].shift(1)) is not None
        assert find_module_iso(apply_iota(Cfree.shift(3), B),
                               mods["P(2)"].shift(4)) is not None
        iCbar = apply_iota(simple(C, "*"), B)
        assert iCbar.graded_dims_by_vertex() == {(1, "2"): 1, (2, "1"): 1}


class TestResolutions:
    def test_simple_one(self, B, mods):
        res = projective_resolution(mods["L(1)"], 6)
        assert [res.term(i) for i in (-2, -1, 0)] == [
            (Summand("1", 2),), (Summand("2", 1),), (Summand("1", 0),)]
        assert res.diffs[-2].entries[0][0] == B.arrow_element("a")
        assert res.diffs[-1].entries[0][0] == B.arrow_element("b")
        assert homology(realize(res), 0) == mods["L(1)"].graded_dims_by_vertex()
        assert not homology(realize(res), -1)
        assert not homology(realize(res), -2)

    def test_simple_two_has_length_one(self, B, mods):
        # the oracle: exact rank computation shows the kernel of the cover is
        # already projective, so the resolution stops after one step
        res = projective_resolution(mods["L(2)"], 6)
        assert sorted(res.terms) == [-1, 0]
        assert res.term(-1) == (Summand("1", 1),)
        assert res.term(0) == (Summand("2", 0),)
        assert homology(realize(res), 0) == mods["L(2)"].graded_dims_by_vertex()
        assert not homology(realize(res), -1)

    def test_projective_resolves_to_itself(self, B, mods):
        res = projective_resolution(mods["P(2)"], 4)
        assert dict(res.terms) == {0: (Summand("2", 0),)}

    def test_dual_numbers_periodic(self, C):
        res = projective_resolution(simple(C, "*"), 8)
        assert res.tail is not None and res.tail.side == "left"
        assert (res.tail.period, res.tail.shift) == (1, 2)
        x = C.arrow_element("x")
        for i in range(-6, 0):
            assert res.diffs[i].entries[0][0] == x

    def test_dual_numbers_shift_compat(self, C):
        res = projective_resolution(simple(C, "*").shift(5), 6)
        assert res.term(0) == (Summand("*", 5),)
        assert res.term(-1) == (Summand("*", 7),)

    def test_free_module_resolves_to_itself(self, C):
        res = projective_resolution(projective(C, "*"), 5)
        assert dict(res.terms) == {0: (Summand("*", 0),)}

    def test_resolve_complex_quasi_iso(self, B, mods):
        # resolving the two-term complex L(2)<1> -> 0 -> ... with a map
        from jwcat.complexes import Complex
        Y = Complex.from_module(mods["L(1)"])
        res, aug = resolve_complex(Y, 6)
        R = realize(res)
        assert homology(R, 0) == mods["L(1)"].graded_dims_by_vertex()
        for i in range(res.window()[0] + 1, 0):
            assert not homology(R, i)


SUMMAND_FIELDS = st.tuples(st.sampled_from(("1", "2", "*")), st.integers(-40, 40))


class TestCanonicalSummands:
    @settings(max_examples=150, deadline=None)
    @given(SUMMAND_FIELDS, SUMMAND_FIELDS, st.integers(-40, 40))
    def test_summands_are_canonical(self, f, g, r):
        s, t = Summand(*f), Summand(*g)
        assert s is Summand(*f) and (s.vertex, s.shift) == f
        assert (s is t) == (f == g) and (s == t) == (f == g)
        assert s.shifted(r) is Summand(f[0], f[1] + r) and s.shifted(0) is s
        assert pickle.loads(pickle.dumps(s)) is s
        assert copy.copy(s) is s and copy.deepcopy([s])[0] is s

    def test_repr_is_the_field_text(self):
        assert repr(Summand("1", 2)) == "Summand(vertex='1', shift=2)"
